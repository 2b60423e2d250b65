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
// from nothing but a WAL directory. The stores come back through the
// recovery core (journal.go: analysis, redo, undo) — a transaction is
// committed iff its commit marker is durable, aborted iff marked, in
// flight otherwise; what is the runtime's own is what it does with those
// outcomes and everything a runtime has beside its stores.
//
// Every in-flight transaction is a loser: its surviving applies are
// undone, and a final abort marker per transaction is journaled after the
// inverses. Quarantined compensations are re-reported — from the marker's
// metadata for pre-checkpoint leaks, from surviving TypeQuarantine
// records for the tail.
//
// Finally the committed projection (node/event records of transactions
// committed since the checkpoint) is filed into the execution index and
// re-checked with the Comp-C reduction (front.Check). The pre-checkpoint
// prefix was certified before the cut dropped it, and no attempt outlives
// the crash, so every recovered event precedes every later one: verifying
// the tail is verifying everything the recovered process can still be
// asked about. That check is the recovery's one reduction: a certified
// log's certifier is seeded from the checked system (enableCertify).

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
	Quarantined int // leaked compensations reported (metadata, log, and undo's own)
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
// quarantines re-reported, and the recovered execution validated and
// checked against Comp-C, once. On a verdict failure the Recovered value
// is returned together with ErrRecoveredViolation.
func Recover(cfg WALConfig) (*Recovered, error) {
	scan, err := wal.ScanDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	info := scan.Info
	ck, protocol, topo, err := readLogMeta(cfg.Dir, scan.Records, info)
	if err != nil {
		return nil, err
	}
	meta := ck.walMeta
	if meta.Dist {
		return nil, fmt.Errorf("sched: %q is a distributed coordinator log; recover it with RecoverCoordinator", cfg.Dir)
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

	// Re-report quarantined compensations: pre-checkpoint leaks from the
	// marker metadata (their records may be truncated); recovery reports
	// the tail's after them.
	for _, q := range ck.Quarantines {
		rt.leaks.report(Quarantine{
			Component: q.Component, Txn: q.Txn,
			Op:  data.Op{Mode: data.Mode(q.Mode), Item: q.Item, Arg: q.Arg, Impl: data.Mode(q.Impl)},
			Err: errors.New(q.Err),
		})
	}
	sl, log, err := recoverLog(scan, false, wal.Options{SyncEvery: cfg.SyncEvery, SegmentBytes: cfg.SegmentBytes}, rt.comps, &rt.leaks)
	if err != nil {
		return nil, err
	}
	rt.wal = log
	stats := RecoveryStats{
		Segments:      info.Segments,
		Records:       info.Records,
		TornBytes:     info.TornBytes,
		CheckpointLSN: sl.ckLSN,
		Committed:     int(ck.Committed), // cut before the marker; none without one
		Redone:        sl.redone,
		Undone:        sl.undone,
		Quarantined:   len(rt.leaks.all()),
	}
	if sl.ckLSN > 0 {
		stats.Skipped = int(sl.ckLSN - info.FirstLSN + 1)
	}
	for _, d := range sl.decided {
		if sl.lsn(int(d)) > sl.ckLSN {
			stats.Committed++
		}
	}
	for _, o := range sl.txns {
		if o.closed && o.fate != fateWinner {
			stats.Aborted++
		}
	}
	// Abort markers, one per in-flight transaction (closing it as it
	// goes), in log order of their first journaled mutations; then one
	// fsync for everything recovery appended.
	for _, i := range sl.applies {
		txn := sl.recs[i].Txn
		o := sl.txns[txn]
		if o.fate == fateWinner || o.closed {
			continue
		}
		o.closed = true
		sl.txns[txn] = o
		stats.InFlight++
		if _, err = log.append(wal.Record{Type: wal.TypeAbort, Txn: txn}); err != nil {
			break
		}
	}
	if err == nil {
		err = log.sync()
	}
	if err != nil {
		log.close()
		return nil, err
	}

	// --- Rebuild the committed projection (tail since the checkpoint) ---
	// The index holds only the tail and the schedules declared before the
	// cut, exactly as the live runtime's record did after the cut; the cut
	// prefix's verdict is sealed.
	rt.ix.scheds = ck.Schedules
	sl.fileCommitted(rt.ix)
	rt.commits.Store(int64(stats.Committed))
	// Resume the global sequence past both the journaled high-water mark
	// (including the checkpoint's recorded clock) and anything the
	// redo/undo passes allocated (version stamps come off this counter too
	// — rewinding it would hand out duplicate stamps).
	if maxSeq := max(ck.Seq, sl.maxSeq); maxSeq > rt.seq.Load() {
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
	// Certify mode survives the crash, seeded from the system just
	// checked: no attempt outlives the crash, so every root retires.
	if meta.Certify {
		if err := rt.enableCertify(sys); err != nil {
			return out, fmt.Errorf("sched: seeding certifier from recovered history: %w", err)
		}
	}
	return out, nil
}
