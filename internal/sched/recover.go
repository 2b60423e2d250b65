package sched

import (
	"encoding/json"
	"errors"
	"fmt"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/wal"
)

// Crash recovery: rebuild a runtime — stores AND recorded execution —
// from nothing but a WAL directory, in the classic three passes.
//
// Analysis walks the log once and classifies every transaction (committed
// iff its commit marker is durable, aborted iff marked, in-flight
// otherwise) and every journaled apply (cancelled by TypeApplyFail,
// compensated by TypeComp, leaked by TypeQuarantine). It also locates the
// last *complete* checkpoint — TypeCkItem store snapshot terminated by a
// TypeCheckpoint marker; trailing items without a marker are a crash
// mid-checkpoint and are ignored.
//
// Redo replays, against freshly built stores, the baseline and then the
// tail. Without a checkpoint the baseline is the TypeSeed records and the
// tail is everything; with one, the baseline is the seeds overlaid in log
// order by every ck-item below the last marker — the last base batch and
// the delta batches since (see checkpoint.go), which together hold every
// item's value at the last cut — and redo skips every record at or below
// the marker: the cut guarantees each journaled mutation's effect is
// either fully inside the batches or fully after the marker, never half
// of each.
//
// Undo inverts — in reverse log order — each surviving apply of a
// non-committed transaction that has neither a compensation nor a
// quarantine on record, journaling each inverse (and a final abort marker
// per transaction) before applying it. Applies of transactions in flight
// at the checkpoint survive truncation by construction (the truncation
// barrier never passes an in-flight attempt's first apply), and their
// effects are inside the snapshot, so the inversion is exactly right. The
// journaled inverses make recovery idempotent in the ARIES
// compensation-log-record sense: recovering the recovered log again finds
// every in-flight apply already compensated and has nothing to undo.
// Quarantined compensations are deliberately NOT repaired: the leak
// happened, the recovered runtime re-reports it — from the marker's
// metadata for pre-checkpoint leaks, from surviving TypeQuarantine
// records for the tail.
//
// Finally the committed projection (node/event records of transactions
// committed since the checkpoint) is rebuilt into the recorder and
// re-checked with the Comp-C reduction (front.Check). The pre-checkpoint
// prefix was folded out of the live engine at the cut with verdicts
// provably unchanged, so verifying the tail is verifying everything the
// recovered process can still be asked about.

// ErrRecoveredViolation is returned by Recover when the recovered
// committed execution fails the Comp-C check. The Recovered value is
// still returned alongside it, so callers can inspect the verdict.
var ErrRecoveredViolation = errors.New("sched: recovered execution is not Comp-C")

// RecoveryStats summarizes one recovery pass.
type RecoveryStats struct {
	Segments  int   // WAL segment files scanned
	Records   int   // valid records read
	TornBytes int64 // torn tail truncated (0 on a clean shutdown)

	// CheckpointLSN is the marker recovery started from (0 = no
	// checkpoint, full replay from the seed records).
	CheckpointLSN uint64
	// Skipped counts log records at or below the checkpoint marker —
	// history the snapshot already covers, not replayed.
	Skipped int

	Committed int // cumulative commits (marker metadata + tail markers)
	Aborted   int // transactions the crashed process had rolled back
	InFlight  int // transactions interrupted by the crash (undone here)

	Redone      int // applies + compensations replayed into the stores
	Undone      int // inverse operations applied (and journaled) here
	Quarantined int // leaked compensations re-reported (metadata + log)
}

// Recovered is the result of a WAL recovery.
type Recovered struct {
	Runtime *Runtime       // rebuilt runtime, WAL re-attached, ready for new Submits
	System  *model.System  // recovered committed execution (tail since checkpoint)
	Verdict *front.Verdict // Comp-C verdict over System
	Stats   RecoveryStats
}

// Recover rebuilds a runtime from the write-ahead log in cfg.Dir: torn
// tail truncated, the last durable checkpoint restored as the baseline,
// the committed tail redone, in-flight work undone and journaled,
// quarantines re-reported, and the recovered execution re-verified
// against Comp-C. On a verdict failure the Recovered value is returned
// together with ErrRecoveredViolation.
func Recover(cfg WALConfig) (*Recovered, error) {
	recs, info, err := wal.ReadAll(cfg.Dir)
	if err != nil {
		return nil, err
	}
	ckLSN := info.CheckpointLSN
	lsnOf := func(i int) uint64 { return info.FirstLSN + uint64(i) }

	// Runtime configuration: from the last checkpoint marker when there is
	// one (the segment holding the TypeMeta record may have been truncated
	// away), from the leading metadata record otherwise.
	var meta walMeta
	var ck ckMeta
	if ckLSN > 0 {
		for i := len(recs) - 1; i >= 0; i-- {
			if recs[i].Type == wal.TypeCheckpoint {
				if err := json.Unmarshal(recs[i].Meta, &ck); err != nil {
					return nil, fmt.Errorf("sched: bad checkpoint metadata: %w", err)
				}
				break
			}
		}
		meta = ck.walMeta
	} else {
		if len(recs) == 0 || recs[0].Type != wal.TypeMeta {
			return nil, fmt.Errorf("sched: %q does not start with a WAL metadata record", cfg.Dir)
		}
		if err := json.Unmarshal(recs[0].Meta, &meta); err != nil {
			return nil, fmt.Errorf("sched: bad WAL metadata: %w", err)
		}
	}
	if meta.Dist {
		return nil, fmt.Errorf("sched: %q is a distributed coordinator log; recover it with RecoverCoordinator", cfg.Dir)
	}
	protocol, err := ParseProtocol(meta.Protocol)
	if err != nil {
		return nil, fmt.Errorf("sched: bad WAL metadata: %w", err)
	}
	topo, err := topologyFromDoc(meta.Topology, false)
	if err != nil {
		return nil, fmt.Errorf("sched: bad WAL topology: %w", err)
	}
	rt := topo.NewRuntime(protocol)
	// The recovered runtime's markers carry the configuration this log
	// was written under. Its first cut is a base batch (ckState starts
	// with no base), which is what lets ck-items of a checkpoint that
	// crashed before its marker sit below later markers harmlessly: the
	// base overlays every one of them.
	if rt.walMetaJSON, err = json.Marshal(meta); err != nil {
		return nil, err
	}

	// --- Analysis ---
	type applyRec struct {
		lsn uint64 // absolute LSN
		rec wal.Record
	}
	var (
		applies     []applyRec
		applyByLSN  = map[uint64]wal.Record{}
		cancelled   = map[uint64]bool{}
		compensated = map[uint64]bool{}
		quarantined = map[uint64]bool{}
		committed   = map[string]bool{}
		aborted     = map[string]bool{}
		active      = map[string]bool{} // txns with any journaled mutation
		tailCommits int                 // commit markers above the checkpoint
		maxSeq      = ck.Seq
	)
	for i, rec := range recs {
		lsn := lsnOf(i)
		switch rec.Type {
		case wal.TypeApply:
			applies = append(applies, applyRec{lsn: lsn, rec: rec})
			applyByLSN[lsn] = rec
			active[rec.Txn] = true
		case wal.TypeApplyFail:
			cancelled[rec.Ref] = true
		case wal.TypeComp:
			compensated[rec.Ref] = true
		case wal.TypeQuarantine:
			quarantined[rec.Ref] = true
		case wal.TypeCommit:
			committed[rec.Txn] = true
			if lsn > ckLSN {
				tailCommits++
			}
		case wal.TypeAbort:
			aborted[rec.Txn] = true
		case wal.TypeEvent:
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		}
	}
	stats := RecoveryStats{
		Segments:      info.Segments,
		Records:       info.Records,
		TornBytes:     info.TornBytes,
		CheckpointLSN: ckLSN,
	}
	if ckLSN > 0 {
		stats.Skipped = int(ckLSN - info.FirstLSN + 1)
		stats.Committed = int(ck.Committed) + tailCommits
	} else {
		stats.Committed = len(committed)
	}
	for txn := range aborted {
		if !committed[txn] {
			stats.Aborted++
		}
	}

	// Reopen the log for appending before the undo pass, so recovery's
	// own compensations and abort markers are journaled write-ahead like
	// everything else (this also physically truncates the torn tail).
	log, _, err := wal.Open(cfg.Dir, wal.Options{SyncEvery: cfg.SyncEvery, SegmentBytes: cfg.SegmentBytes})
	if err != nil {
		return nil, err
	}
	rt.wal = log

	// --- Redo ---
	storeOf := func(comp string) (*data.Store, error) {
		c := rt.comps[comp]
		if c == nil || c.store == nil {
			return nil, fmt.Errorf("sched: WAL references unknown store component %q", comp)
		}
		return c.store, nil
	}
	// Baseline: seed records, overlaid (in log order, so later batches
	// win) by every ck-item below the last marker — base ⊕ deltas.
	// Trailing ck-items above the last marker belong to a checkpoint that
	// never completed and are skipped.
	for i, rec := range recs {
		var baseline bool
		switch rec.Type {
		case wal.TypeSeed:
			baseline = true
		case wal.TypeCkItem:
			baseline = lsnOf(i) < ckLSN
		}
		if !baseline {
			continue
		}
		s, err := storeOf(rec.Comp)
		if err != nil {
			log.Close()
			return nil, err
		}
		s.Set(rec.Item, rec.Prev)
	}
	for i, rec := range recs {
		lsn := lsnOf(i)
		if lsn <= ckLSN {
			continue // inside the snapshot already (the cut's invariant)
		}
		switch rec.Type {
		case wal.TypeApply:
			if cancelled[lsn] {
				continue
			}
		case wal.TypeComp:
			if quarantined[rec.Ref] {
				continue // the compensation never took effect; keep the leak
			}
		default:
			continue
		}
		s, err := storeOf(rec.Comp)
		if err != nil {
			log.Close()
			return nil, err
		}
		if _, err := s.Apply(opOf(rec)); err != nil {
			log.Close()
			return nil, fmt.Errorf("sched: redo of %s record %d: %w", rec.Type, lsn, err)
		}
		stats.Redone++
	}

	// --- Undo ---
	// Every surviving apply of a non-committed transaction is inverted,
	// including pre-checkpoint ones: the truncation barrier kept them
	// alive precisely because their effects sit inside the checkpoint
	// snapshot with no durable outcome.
	for i := len(applies) - 1; i >= 0; i-- {
		lsn, rec := applies[i].lsn, applies[i].rec
		if committed[rec.Txn] || cancelled[lsn] || compensated[lsn] || quarantined[lsn] {
			continue
		}
		inv, ok := data.Inverse(opOf(rec), data.Result{Prev: rec.Prev})
		if !ok {
			continue
		}
		if _, err := log.Append(wal.Record{
			Type: wal.TypeComp, Txn: rec.Txn, Comp: rec.Comp,
			Item: inv.Item, Mode: string(inv.Mode), Impl: string(inv.Impl),
			Arg: inv.Arg, Ref: lsn,
		}); err != nil {
			log.Close()
			return nil, err
		}
		s, err := storeOf(rec.Comp)
		if err != nil {
			log.Close()
			return nil, err
		}
		if _, err := s.Apply(inv); err != nil {
			log.Close()
			return nil, fmt.Errorf("sched: undo of apply record %d: %w", lsn, err)
		}
		stats.Undone++
	}
	for txn := range active {
		if committed[txn] || aborted[txn] {
			continue
		}
		stats.InFlight++
		if _, err := log.Append(wal.Record{Type: wal.TypeAbort, Txn: txn}); err != nil {
			log.Close()
			return nil, err
		}
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return nil, err
	}

	// Re-report quarantined compensations: pre-checkpoint leaks from the
	// marker metadata (their records may be truncated), tail leaks from
	// the surviving TypeQuarantine records.
	for _, q := range ck.Quarantines {
		rt.quarantine(Quarantine{
			Component: q.Component, Txn: q.Txn,
			Op:  data.Op{Mode: data.Mode(q.Mode), Item: q.Item, Arg: q.Arg, Impl: data.Mode(q.Impl)},
			Err: errors.New(q.Err),
		})
	}
	for i, rec := range recs {
		if rec.Type != wal.TypeQuarantine || lsnOf(i) <= ckLSN {
			continue
		}
		apl, ok := applyByLSN[rec.Ref]
		if !ok {
			continue
		}
		rt.quarantine(Quarantine{
			Component: apl.Comp, Txn: apl.Txn, Op: opOf(apl),
			Err: errors.New("sched: compensation quarantined before crash (from WAL)"),
		})
	}
	stats.Quarantined = len(rt.quarantined)

	// --- Rebuild the committed projection (tail since the checkpoint) ---
	// The recorder holds only the tail, exactly as the live runtime's did
	// after the cut pruned it; the folded prefix's verdict is sealed.
	for i, rec := range recs {
		if lsnOf(i) <= ckLSN || !committed[rec.Txn] {
			continue
		}
		switch rec.Type {
		case wal.TypeNode:
			rt.rec.nodes = append(rt.rec.nodes, nodeDecl{
				id: model.NodeID(rec.Node), parent: model.NodeID(rec.Parent), sched: rec.Sched,
			})
		case wal.TypeEvent:
			rt.rec.events = append(rt.rec.events, event{
				seq: rec.Seq, comp: rec.Comp,
				op: model.NodeID(rec.Node), parentTx: model.NodeID(rec.Parent),
				item: rec.Item, mode: data.Mode(rec.Mode),
			})
		}
	}
	rt.commits.Store(int64(stats.Committed))
	// Resume the global sequence past both the journaled high-water mark
	// (including the checkpoint's recorded clock) and anything the
	// redo/undo passes allocated (version stamps come off this counter too
	// — rewinding it would hand out duplicate stamps).
	if cur := rt.seq.Load(); maxSeq > cur {
		rt.seq.Store(maxSeq)
	}

	// --- Verify ---
	sys := rt.RecordedSystem()
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("sched: recovered execution is malformed: %w", err)
	}
	verdict, err := front.Check(sys, front.Options{})
	if err != nil {
		return nil, fmt.Errorf("sched: checking recovered execution: %w", err)
	}
	out := &Recovered{Runtime: rt, System: sys, Verdict: verdict, Stats: stats}
	if !verdict.Correct {
		return out, ErrRecoveredViolation
	}
	// Certify mode survives the crash: rebuild the certifier over the
	// recovered committed history, so the recovered runtime keeps
	// rejecting violating commits exactly where the crashed one would.
	// (The unguarded variant: the recovered log's metadata already
	// records certify mode, so the EnableCertify/EnableWAL ordering
	// check does not apply.)
	if meta.Certify {
		if err := rt.enableCertify(); err != nil {
			return out, fmt.Errorf("sched: rebuilding certifier from recovered history: %w", err)
		}
	}
	return out, nil
}

// opOf reconstructs the store operation a WAL record journaled.
func opOf(rec wal.Record) data.Op {
	return data.Op{Mode: data.Mode(rec.Mode), Item: rec.Item, Arg: rec.Arg, Impl: data.Mode(rec.Impl)}
}
