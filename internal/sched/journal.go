package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/wal"
)

// Journal and replay: everything the three kinds of node — the
// single-process Runtime, the distributed Coordinator and each Participant
// — know about the write-ahead log lives in this file. Writing is the
// journal type (append, force, attaching a fresh log) and the record
// codecs that map runtime structs onto wal.Record fields; reading is
// recovery's core: one analysis (scanStoreLog) that classifies every
// apply and every transaction of any node's log, redo and undo, which
// rebuild the stores, and the committed projection (fileCommitted). The
// nodes differ only in what they do with the outcomes: a runtime journals
// an abort marker per loser, a participant re-acquires the locks of its
// in-doubt transactions, a coordinator re-drives its un-ended decisions.

// journal is a node's handle on its write-ahead log; the zero value is a
// volatile node and every method is a no-op on it. An append against a
// crash-abandoned log surfaces as ErrCrashed so the transaction drains
// like every other participant of the crash.
type journal struct {
	log   *wal.Log
	group bool // opened with a group window: force points go through wal.Force
}

// crashErr maps a closed (crash-abandoned) log to ErrCrashed.
func crashErr(err error) error {
	if errors.Is(err, wal.ErrClosed) {
		return ErrCrashed
	}
	return err
}

func (j journal) attached() bool { return j.log != nil }

// append journals one record and returns its LSN (0 when volatile).
func (j journal) append(rec wal.Record) (uint64, error) {
	if j.log == nil {
		return 0, nil
	}
	lsn, err := j.log.Append(rec)
	return lsn, crashErr(err)
}

// appendBatch journals records contiguously (commit and checkpoint
// batches) and returns the LSN of the first.
func (j journal) appendBatch(recs []wal.Record) (uint64, error) {
	if j.log == nil {
		return 0, nil
	}
	first, err := j.log.AppendBatch(recs)
	return first, crashErr(err)
}

// force makes recs durable before returning — the durability points of
// 2PC. On a log with a group window the wait goes through the coalesced
// Force API, so concurrent transactions forcing on this log share one
// fsync; otherwise the caller pays its own append+sync.
func (j journal) force(recs []wal.Record) error {
	if j.log == nil || len(recs) == 0 {
		return nil
	}
	var err error
	if j.group {
		err = <-j.log.Force(recs)
	} else if _, err = j.log.AppendBatch(recs); err == nil {
		err = j.log.Sync()
	}
	return crashErr(err)
}

func (j journal) sync() error {
	if j.log == nil {
		return nil
	}
	return crashErr(j.log.Sync())
}

// close flushes and closes the log (a clean shutdown; the log stays
// recoverable and replayable).
func (j journal) close() error {
	if j.log == nil {
		return nil
	}
	return j.log.Close()
}

// abandon leaves the log exactly as the OS would after a process crash
// (see wal.Log.Abandon).
func (j journal) abandon(torn *wal.Record) error {
	if j.log == nil {
		return nil
	}
	return j.log.Abandon(torn)
}

// records returns the number of records journaled so far.
func (j journal) records() uint64 {
	if j.log == nil {
		return 0
	}
	return j.log.Records()
}

// attachFresh starts a new log in dir: the metadata record followed by
// one seed record per preloaded store item, fsynced before the first
// transaction can touch it. An existing non-empty log is rejected with
// ErrWALExists: a node only ever appends to a log it started, and
// recovery owns reopening.
func attachFresh(dir string, opts wal.Options, meta []byte, seeds []wal.Record) (journal, error) {
	l, existing, err := wal.Open(dir, opts)
	if err != nil {
		return journal{}, err
	}
	if existing > 0 {
		l.Close()
		return journal{}, fmt.Errorf("%w: %q holds %d records", ErrWALExists, dir, existing)
	}
	j := journal{log: l, group: opts.GroupWindow > 0}
	if _, err = j.append(wal.Record{Type: wal.TypeMeta, Meta: meta}); err == nil {
		if _, err = j.appendBatch(seeds); err == nil {
			err = j.sync()
		}
	}
	if err != nil {
		l.Close()
		return journal{}, err
	}
	return j, nil
}

// reopen positions a crashed node's log for appending after the records
// its recovery scanned — no second read — so recovery's own compensations
// and markers are journaled write-ahead like everything else (this also
// physically truncates the torn tail).
func reopen(s *wal.Scan, opts wal.Options) (journal, error) {
	l, err := s.Open(opts)
	return journal{log: l, group: opts.GroupWindow > 0}, err
}

// --- Record codecs ---

// applyRecord is the write-ahead record of one store mutation, with the
// before-value recovery needs to invert it.
func applyRecord(txn, node, comp string, op data.Op, prev int64) wal.Record {
	return wal.Record{
		Type: wal.TypeApply, Txn: txn, Node: node, Comp: comp,
		Item: op.Item, Mode: string(op.Mode), Impl: string(op.Impl),
		Arg: op.Arg, Prev: prev,
	}
}

// compRecord is the write-ahead record of a compensation: the inverse
// operation about to execute, and the LSN of the apply it undoes.
func compRecord(txn, comp string, inverse data.Op, ref uint64) wal.Record {
	return wal.Record{
		Type: wal.TypeComp, Txn: txn, Comp: comp,
		Item: inverse.Item, Mode: string(inverse.Mode), Impl: string(inverse.Impl),
		Arg: inverse.Arg, Ref: ref,
	}
}

// opOf reconstructs the store operation an apply or compensation record
// journaled.
func opOf(rec *wal.Record) data.Op {
	return data.Op{Mode: data.Mode(rec.Mode), Item: rec.Item, Arg: rec.Arg, Impl: data.Mode(rec.Impl)}
}

// itemRecords appends one record of type typ per item of a store
// snapshot, in item order, so identical states produce identical logs.
func itemRecords(dst []wal.Record, typ wal.Type, comp string, snap map[string]int64) []wal.Record {
	keys := make([]string, 0, len(snap))
	for it := range snap {
		keys = append(keys, it)
	}
	slices.Sort(keys)
	for _, it := range keys {
		dst = append(dst, wal.Record{Type: typ, Comp: comp, Item: it, Prev: snap[it]})
	}
	return dst
}

// stageRecords encodes a committing attempt's staged record — every node
// declaration and event, closed by the terminator (the commit marker, or
// a coordinator's commit decision) — as one contiguous batch. A
// transaction is recovered as committed iff the terminator survives; the
// batch being contiguous and the log being flushed in order means a
// durable terminator implies the durable presence of everything it
// covers.
func stageRecords(txn string, stage *stagedRecord, terminator wal.Record) []wal.Record {
	recs := make([]wal.Record, 0, len(stage.nodes)+len(stage.events)+1)
	for _, n := range stage.nodes {
		recs = append(recs, wal.Record{
			Type: wal.TypeNode, Txn: txn,
			Node: string(n.ID), Parent: string(n.Parent), Sched: string(n.Sched),
		})
	}
	for _, e := range stage.events {
		recs = append(recs, wal.Record{
			Type: wal.TypeEvent, Txn: txn,
			Node: string(e.op), Parent: string(e.parentTx),
			Comp: e.comp, Item: e.item, Mode: string(e.mode), Seq: e.seq,
		})
	}
	return append(recs, terminator)
}

// absorb is stageRecords' inverse: a TypeNode or TypeEvent record is
// decoded back into the staged record; other types are ignored.
func (s *stagedRecord) absorb(rec *wal.Record) {
	switch rec.Type {
	case wal.TypeNode:
		s.declareNode(front.DeltaNode{
			ID: model.NodeID(rec.Node), Parent: model.NodeID(rec.Parent), Sched: model.ScheduleID(rec.Sched),
		})
	case wal.TypeEvent:
		s.addEvent(event{
			seq: rec.Seq, comp: rec.Comp,
			op: model.NodeID(rec.Node), parentTx: model.NodeID(rec.Parent),
			item: rec.Item, mode: data.Mode(rec.Mode),
		})
	}
}

func attemptStr(a uint32) string { return fmt.Sprintf("attempt-%d", a) }

// decodeOutcome decodes what a prepare or decision record holds beyond its
// type: the attempt (attemptStr's inverse) and, for a coordinator's commit
// decision, the updaters it names. Log bytes are input from outside the
// program: a record that does not decode is an error naming its LSN, never
// attempt 0 or a decision nobody is told.
func decodeOutcome(rec *wal.Record, lsn uint64, coord bool) (attempt uint32, updaters []string, err error) {
	digits, ok := strings.CutPrefix(rec.Node, "attempt-")
	n, err := strconv.ParseUint(digits, 10, 32)
	if !ok || err != nil {
		err = fmt.Errorf("malformed attempt %q", rec.Node)
	} else if coord && rec.Type == wal.TypeDecision && rec.Mode == "commit" {
		err = json.Unmarshal(rec.Meta, &updaters)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%s of %s at LSN %d: %w", rec.Type, rec.Txn, lsn, err)
	}
	return uint32(n), updaters, nil
}

// readLogMeta decodes the configuration a runtime or coordinator log was
// written under: from the last checkpoint marker when there is one (the
// segment holding the TypeMeta record may have been truncated away) —
// with the cumulative state the cut recorded — from the leading metadata
// record otherwise.
func readLogMeta(dir string, recs []wal.Record, info wal.ScanInfo) (ck ckMeta, protocol Protocol, topo *Topology, err error) {
	if info.CheckpointLSN > 0 {
		if err = json.Unmarshal(recs[info.CheckpointLSN-info.FirstLSN].Meta, &ck); err != nil {
			return ck, 0, nil, fmt.Errorf("sched: bad checkpoint metadata: %w", err)
		}
	} else if len(recs) == 0 || recs[0].Type != wal.TypeMeta {
		return ck, 0, nil, fmt.Errorf("sched: %q does not start with a WAL metadata record", dir)
	} else if err = json.Unmarshal(recs[0].Meta, &ck.walMeta); err != nil {
		return ck, 0, nil, fmt.Errorf("sched: bad WAL metadata: %w", err)
	}
	if protocol, err = ParseProtocol(ck.Protocol); err != nil {
		return ck, 0, nil, fmt.Errorf("sched: bad WAL metadata: %w", err)
	}
	if topo, err = topologyFromDoc(ck.Topology, false); err != nil {
		return ck, 0, nil, fmt.Errorf("sched: bad WAL topology: %w", err)
	}
	return ck, protocol, topo, nil
}

// --- Recovery: analysis, redo, undo ---

// Classification of one journaled apply, per record index.
const (
	markCancelled   uint8 = 1 << iota // TypeApplyFail: the apply never executed
	markCompensated                   // TypeComp: an inverse is on record
	markQuarantined                   // TypeQuarantine, or refused at redo: the inverse never took effect
)

// txnFate is what a log's outcome records say about a transaction.
type txnFate uint8

const (
	fateLoser   txnFate = iota // no durable outcome and none possible: undo
	fateWinner                 // durably committed: keep
	fateInDoubt                // prepared, outcome owed by someone else: keep, hand back
)

// txnOutcome is one transaction's entry in a log's analysis.
type txnOutcome struct {
	fate    txnFate
	closed  bool   // an abort is on record (marker or decision)
	ended   bool   // TypeEnd: every updater holds its commit record
	attempt uint32 // of the last prepare or decision
	aborted uint32 // highest attempt an abort decision names
	ts      uint64 // the last prepare's wait-die timestamp
}

// storeLog is the analysis of one log — the runtime's, a participant's or
// a coordinator's. It indexes into the records as read — nothing is
// copied.
type storeLog struct {
	recs    []wal.Record
	first   uint64  // LSN of recs[0]
	ckLSN   uint64  // last complete checkpoint marker (0 = none)
	applies []int32 // indices of the TypeApply records, in log order
	marks   []uint8 // per record index: mark* bits of the apply journaled there

	txns     map[string]txnOutcome
	decided  []int32             // index of each winner's deciding record, in log order
	updaters map[string][]string // a coordinator log's commit decisions: txn -> updaters
	maxSeq   uint64              // highest event sequence number journaled
	maxTS    uint64              // highest decision timestamp journaled

	refused []int32 // compensations a store refused at redo
	redone  int     // applies and compensations redo replayed
	undone  int     // inverses undo journaled
	inDoubt []int32 // applies of in-doubt transactions, last first
}

func (sl *storeLog) lsn(i int) uint64 { return sl.first + uint64(i) }

// applyAt returns the index of the surviving apply record at LSN ref; a
// reference into a truncated segment (or to anything else) has no apply
// left to classify.
func (sl *storeLog) applyAt(ref uint64) (int, bool) {
	if ref < sl.first || ref-sl.first >= uint64(len(sl.recs)) || sl.recs[ref-sl.first].Type != wal.TypeApply {
		return 0, false
	}
	return int(ref - sl.first), true
}

func (sl *storeLog) mark(ref uint64, m uint8) {
	if i, ok := sl.applyAt(ref); ok {
		sl.marks[i] |= m
	}
}

// fate is what the log says about txn; a transaction it names no outcome
// for is a loser.
func (sl *storeLog) fate(txn string) txnFate { return sl.txns[txn].fate }

// scanStoreLog is the analysis pass, the one walk over a log that decides
// anything. It classifies every journaled apply (cancelled by
// TypeApplyFail, compensated by TypeComp, leaked by TypeQuarantine) and
// every transaction, from whichever outcome records the log holds: a
// runtime's commit and abort markers, a participant's prepares and
// decisions (the last one wins), a coordinator's commit decisions and
// ends. The last *complete* checkpoint — TypeCkItem batches terminated by
// a TypeCheckpoint marker — comes with the scan; trailing items without a
// marker are a crash mid-checkpoint and are ignored. coord says the log is
// a coordinator's, whose commit decisions name their updaters.
func scanStoreLog(recs []wal.Record, info wal.ScanInfo, coord bool) (*storeLog, error) {
	sl := &storeLog{recs: recs, first: info.FirstLSN, ckLSN: info.CheckpointLSN, marks: make([]uint8, len(recs)),
		txns: map[string]txnOutcome{}, updaters: map[string][]string{}}
	for i := range recs {
		switch rec := &recs[i]; rec.Type {
		case wal.TypeApply:
			sl.applies = append(sl.applies, int32(i))
		case wal.TypeApplyFail:
			sl.mark(rec.Ref, markCancelled)
		case wal.TypeComp:
			sl.mark(rec.Ref, markCompensated)
		case wal.TypeQuarantine:
			sl.mark(rec.Ref, markQuarantined)
		case wal.TypeEvent:
			sl.maxSeq = max(sl.maxSeq, rec.Seq)
		case wal.TypeCommit, wal.TypeAbort, wal.TypePrepare, wal.TypeDecision, wal.TypeEnd:
			if err := sl.outcome(i, coord); err != nil {
				return nil, err
			}
		}
	}
	return sl, nil
}

// outcome folds the outcome record at index i into its transaction's
// entry.
func (sl *storeLog) outcome(i int, coord bool) error {
	rec := &sl.recs[i]
	o := sl.txns[rec.Txn]
	switch rec.Type {
	case wal.TypeAbort:
		o.closed = true
	case wal.TypeEnd:
		o.ended = true
	case wal.TypePrepare, wal.TypeDecision:
		at, updaters, err := decodeOutcome(rec, sl.lsn(i), coord)
		if err != nil {
			return err
		}
		o.attempt = at
		if rec.Type == wal.TypePrepare {
			o.fate, o.ts = fateInDoubt, rec.Seq
		} else if rec.Mode != "commit" {
			o.fate, o.closed, o.aborted = fateLoser, true, max(o.aborted, at)
		} else if coord {
			sl.updaters[rec.Txn] = updaters
		}
	}
	if rec.Type == wal.TypeCommit || rec.Type == wal.TypeDecision && rec.Mode == "commit" {
		o.fate = fateWinner
		sl.decided = append(sl.decided, int32(i))
		sl.maxTS = max(sl.maxTS, rec.Seq)
	}
	sl.txns[rec.Txn] = o
	return nil
}

// fileCommitted files into ix the committed projection above the
// checkpoint: for every winner decided there, in log order, the nodes and
// events of the batch its deciding record closes (stageRecords).
func (sl *storeLog) fileCommitted(ix *execIndex) {
	var tail stagedRecord
	for _, d := range sl.decided {
		if sl.lsn(int(d)) <= sl.ckLSN {
			continue
		}
		txn, from := sl.recs[d].Txn, int(d)
		for from > 0 && (sl.recs[from-1].Type == wal.TypeNode || sl.recs[from-1].Type == wal.TypeEvent) && sl.recs[from-1].Txn == txn {
			from--
		}
		for i := from; i < int(d); i++ {
			tail.absorb(&sl.recs[i])
		}
	}
	ix.file(&tail)
}

// redo replays, against freshly built stores, the baseline and then the
// tail, in a single pass in log order. Without a checkpoint the baseline
// is the TypeSeed records and the tail is everything; with one, the
// baseline is the seeds overlaid in log order (later batches win) by
// every ck-item below the last marker — the last base batch and the delta
// batches since (see checkpoint.go), which together hold every item's
// value at the last cut — and redo skips every record at or below the
// marker: the cut guarantees each journaled mutation's effect is either
// fully inside the batches or fully after the marker, never half of each.
// The tail is every surviving apply and compensation: ModeWrite
// compensations write back Prev and are non-commutative with later
// applies of other transactions, so the replay must preserve the logged
// interleaving exactly — compensated applies then net out, whatever the
// crash interleaved. A compensation the store refuses at its log position
// is the quarantine the run would have written next, had it not crashed
// first: its apply is marked quarantined, the compensation skipped, and
// recoverLog journals and reports the leak.
func (sl *storeLog) redo(compOf func(name string) (*component, error)) error {
	for i := range sl.recs {
		rec, lsn := &sl.recs[i], sl.lsn(i)
		baseline := false
		switch rec.Type {
		case wal.TypeSeed:
			baseline = true
		case wal.TypeCkItem:
			if lsn > sl.ckLSN {
				continue // a checkpoint that never completed
			}
			baseline = true
		case wal.TypeApply:
			if lsn <= sl.ckLSN || sl.marks[i]&markCancelled != 0 {
				continue
			}
		case wal.TypeComp:
			if lsn <= sl.ckLSN {
				continue
			}
			if a, ok := sl.applyAt(rec.Ref); ok && sl.marks[a]&markQuarantined != 0 {
				continue // the compensation never took effect; keep the leak
			}
		default:
			continue
		}
		c, err := compOf(rec.Comp)
		if err != nil {
			return err
		}
		if baseline {
			c.store.Set(rec.Item, rec.Prev)
			continue
		}
		if _, err := c.store.Apply(opOf(rec)); err != nil {
			a, ok := sl.applyAt(rec.Ref)
			if rec.Type != wal.TypeComp || !ok {
				return fmt.Errorf("sched: redo of %s record %d: %w", rec.Type, lsn, err)
			}
			sl.marks[a] |= markQuarantined
			sl.refused = append(sl.refused, int32(i))
			continue
		}
		sl.redone++
	}
	return nil
}

// recoverLog is recovery's core over a scanned log, for every node kind:
// the analysis, the logged quarantines re-reported to lk, redo into the
// stores of comps, the log reopened for appending after the scan, the
// quarantines redo found journaled and reported, and undo of the losers
// journaled on it — all unsynced, so a caller's own records share one
// sync. A log that does not decode is refused unopened; the reopened log
// is closed on error.
func recoverLog(scan *wal.Scan, coord bool, opts wal.Options, comps map[string]*component, lk *leaks) (sl *storeLog, j journal, err error) {
	if sl, err = scanStoreLog(scan.Records, scan.Info, coord); err != nil {
		return nil, j, err
	}
	compOf := func(name string) (*component, error) {
		if c := comps[name]; c != nil && c.store != nil {
			return c, nil
		}
		return nil, fmt.Errorf("sched: log references unknown store component %q", name)
	}
	sl.leaked(lk)
	if err = sl.redo(compOf); err != nil {
		return nil, j, err
	}
	if j, err = reopen(scan, opts); err != nil {
		return nil, j, err
	}
	for _, i := range sl.refused {
		rec := &sl.recs[i]
		if _, err = j.append(wal.Record{Type: wal.TypeQuarantine, Txn: rec.Txn, Ref: rec.Ref}); err != nil {
			j.close()
			return nil, j, err
		}
		sl.report(rec.Ref, lk, "sched: compensation refused at redo, quarantined at recovery")
	}
	return sl, j, sl.undo(j, compOf, lk)
}

// leaked re-reports into lk, in log order, every compensation the log
// quarantined above its checkpoint (a leak below it is the marker's to
// carry).
func (sl *storeLog) leaked(lk *leaks) {
	for i := range sl.recs {
		if sl.recs[i].Type != wal.TypeQuarantine || sl.lsn(i) <= sl.ckLSN {
			continue
		}
		sl.report(sl.recs[i].Ref, lk, "sched: compensation quarantined before crash (from WAL)")
	}
}

// report reports to lk the leak of the apply at LSN ref.
func (sl *storeLog) report(ref uint64, lk *leaks, why string) {
	if a, ok := sl.applyAt(ref); ok {
		apl := &sl.recs[a]
		lk.report(Quarantine{Component: apl.Comp, Txn: apl.Txn, Op: opOf(apl), Err: errors.New(why)})
	}
}

// undo inverts — in reverse log order — each surviving apply of a loser
// transaction that has neither a cancellation, a compensation nor a
// quarantine on record, journaling each inverse through j before the
// component's undo step applies it; one the store keeps refusing is
// quarantined there and reported to lk, as at run time. Applies of
// transactions in flight at the checkpoint are included: they survive
// truncation by construction (the truncation barrier never passes an
// in-flight attempt's first apply), and their effects are inside the
// snapshot with no durable outcome, so the inversion is exactly right.
// The journaled inverses make recovery idempotent in the ARIES
// compensation-log-record sense: recovering the recovered log again finds
// every loser apply already compensated and has nothing to undo.
// Quarantined compensations are deliberately NOT repaired: the leak
// happened, and the recovered node re-reports it. An in-doubt
// transaction keeps its effects; its applies are listed in sl.inDoubt,
// last first, so the caller can rebuild its undo list. The log is closed
// on every error path.
func (sl *storeLog) undo(j journal, compOf func(name string) (*component, error), lk *leaks) (err error) {
	defer func() {
		if err != nil {
			j.close()
		}
	}()
	for k := len(sl.applies) - 1; k >= 0; k-- {
		i := int(sl.applies[k])
		if sl.marks[i] != 0 {
			continue
		}
		rec := &sl.recs[i]
		switch sl.fate(rec.Txn) {
		case fateWinner:
			continue
		case fateInDoubt:
			sl.inDoubt = append(sl.inDoubt, int32(i))
			continue
		}
		c, err := compOf(rec.Comp)
		if err != nil {
			return err
		}
		u := sl.undoEntry(i, c)
		crec, ok := u.compRecord(rec.Txn)
		if !ok {
			continue
		}
		if _, err := j.append(crec); err != nil {
			return err
		}
		u.revert(rec.Txn, "", j, nil, lk)
		sl.undone++
	}
	return nil
}

// undoEntry is the undo step of the apply journaled at index i, at c.
func (sl *storeLog) undoEntry(i int, c *component) undoEntry {
	rec := &sl.recs[i]
	return undoEntry{comp: c, op: opOf(rec), res: data.Result{Prev: rec.Prev}, lsn: sl.lsn(i)}
}
