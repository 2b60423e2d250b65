package sched

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/model"
	"compositetx/internal/wal"
)

// Step is one operation of a transaction program: either a leaf operation
// on the current component's store, or the invocation of a subtransaction
// on a child component. Exactly one field must be set.
type Step struct {
	Op     *data.Op
	Invoke *Invocation

	// Sync, if set, runs before the step executes. It is a test and demo
	// seam for forcing specific interleavings (e.g. to reproduce the
	// Figure 3 interference deterministically); it is never recorded.
	Sync func()

	// Fail, if set, aborts the whole transaction at this step with an
	// application error: every operation applied so far is compensated in
	// reverse order, all locks are released, the transaction is NOT
	// retried, and nothing of it appears in the recorded execution.
	Fail error
}

// Invocation is a tree-shaped (sub)transaction program. At the caller it
// appears as one semantic operation (Item, Mode) — the unit the caller's
// scheduler locks and declares conflicts over; its Steps execute at the
// named component.
type Invocation struct {
	Component string    // component executing this (sub)transaction
	Item      string    // semantic lock item at the caller
	Mode      data.Mode // semantic lock mode at the caller
	Steps     []Step

	// Deadline, when nonzero, bounds this (sub)transaction and its
	// subtree: a step executing (or a lock acquisition waiting) past it
	// aborts with ErrTimeout. It tightens any deadline inherited from
	// the caller or from Runtime.OpTimeout.
	Deadline time.Time

	// SnapshotRead, set on a root invocation, runs this transaction
	// optimistically (MVCC snapshot reads, validate-at-commit) even when
	// the runtime's Exec mode is pessimistic. See ExecOptimistic.
	SnapshotRead bool
}

// TxResult reports a committed transaction.
type TxResult struct {
	Root    model.NodeID // node ID of the committed root transaction
	Retries int          // rollback-retry rounds (wait-die sacrifices and recovered faults) before the commit
	Values  []int64      // results of the leaf reads, in program order
}

// ErrTooManyRetries is returned when a transaction exceeds MaxRetries.
var ErrTooManyRetries = errors.New("sched: transaction exceeded retry budget")

// ErrClientAbort wraps an application-initiated abort (Step.Fail): the
// transaction is rolled back (compensated) and not retried.
var ErrClientAbort = errors.New("sched: transaction aborted by client")

// Submit runs the program as a root transaction, retrying on wait-die
// sacrifices, recovered injected faults, and deadline expiries until it
// commits. It is safe to call from many goroutines. After a simulated
// crash (FaultCrash) every Submit — in flight or new — returns
// ErrCrashed; the abandoned state is Recover's job.
func (r *Runtime) Submit(name string, root Invocation) (*TxResult, error) {
	return r.submit(name, root, r.MaxRetries, r.OpTimeout)
}

// The Runtime is the driver's in-process scheduler: its own lock
// managers, stores and journal.

func (r *Runtime) release() {}

// begin registers the attempt as live, with the clock read under ck.mu
// (see ckState.low).
func (r *Runtime) begin(a *attempt, root Invocation) {
	a.optimistic = r.Exec == ExecOptimistic || root.SnapshotRead
	r.ck.mu.Lock()
	r.ck.inflight[a] = liveAttempt{lo: r.seq.Load()}
	r.ck.mu.Unlock()
}

// enter refuses a (sub)transaction at a component the injector has taken
// down, and picks the owner of the locks it takes: the root attempt when
// they must survive to root commit, the instance itself when early
// release is allowed.
func (r *Runtime) enter(a *attempt, comp *component, node model.NodeID, instance string) (string, error) {
	if r.inj.down(comp.name, string(a.root), string(node)) {
		return "", fmt.Errorf("sched: %q rejected %s: %w", comp.name, node, ErrComponentDown)
	}
	switch r.protocol {
	case ClosedNested, Global2PL:
		return string(a.root), nil
	case Hybrid:
		if comp.holdToRoot {
			return string(a.root), nil
		}
	}
	return instance, nil
}

// leave is subtransaction commit at comp: under open nesting (and under
// Hybrid away from join points) its locks are released now; the caller
// keeps only its own semantic lock on this invocation.
func (r *Runtime) leave(a *attempt, comp *component, owner string) {
	if (r.protocol == OpenNested || r.protocol == Hybrid) && owner != string(a.root) {
		kept := a.locks[:0]
		for _, l := range a.locks {
			if l.lm == comp.lm && l.owner == owner {
				l.lm.release(l.owner, l.item)
			} else {
				kept = append(kept, l)
			}
		}
		a.locks = kept
	}
}

// apply locks and applies a leaf operation.
func (r *Runtime) apply(a *attempt, comp *component, id model.NodeID, owner string, op data.Op, deadline time.Time) (uint64, int64, error) {
	// Trigger-based apply faults fire here, where the (txn, step)
	// context exists; probabilistic ones fire inside the store itself
	// via the Apply hook SetFaults installs.
	if r.inj != nil && r.inj.fire(FaultApply, comp.name, string(a.root), string(id)) {
		return 0, 0, fmt.Errorf("sched: apply fault at %s: %w", id, ErrInjected)
	}
	// Optimistic leaf reads are served from the store's committed snapshot:
	// no semantic lock, no blocking. Reads of items this attempt already
	// mutated fall through to the locked path — the snapshot cannot see the
	// attempt's own writes, and the write lock is already held, so the
	// locked read cannot block either.
	if a.optimistic && op.Physical() == data.ModeRead && !a.wroteItem(comp.name, op.Item) {
		return r.snapshotRead(a, comp, op)
	}
	txn := string(a.root)
	if table, mode := comp.lockSpace(r.protocol, op); table != nil {
		lm, item := comp.lm, op.Item
		if r.protocol == Global2PL {
			// One global lock space over component-qualified items (enter
			// made the root their owner).
			lm, item = r.globalLM, comp.name+"/"+op.Item
		}
		if err := r.acquire(a, lm, table, item, mode, owner, comp.name, string(id), deadline); err != nil {
			return 0, 0, err
		}
	}
	var lsn uint64
	var res data.Result
	var err error
	if op.Physical() == data.ModeRead {
		res, err = comp.store.ApplyAs(op, txn)
	} else {
		// The leaf crash site sits exactly on the write-ahead boundary, so
		// FaultCrash can strand the log mid-append (CrashTear's torn
		// record) or between journal and apply. Journal and mutation
		// execute under the checkpoint cut's read side as one unit, so a
		// checkpoint's store snapshot reflects exactly the applies
		// journaled below its marker.
		rec := applyRecord(txn, string(id), comp.name, op, comp.store.Get(op.Item))
		r.fireCrash(comp.name, txn, string(id), &rec)
		r.ck.gate.RLock(a.ts)
		lsn, res, err = comp.writeAhead(r.wal, &rec, op, txn)
		if lsn != 0 {
			r.ck.noteApply(a, lsn)
		}
		r.ck.gate.RUnlock(a.ts)
		if err != nil && lsn == 0 {
			return 0, 0, err // journaling failed; nothing to cancel
		}
	}
	if err != nil {
		return 0, 0, fmt.Errorf("sched: apply %s at %s: %w", op, id, err)
	}
	r.leafOps.Add(1)
	a.undo = append(a.undo, undoEntry{comp: comp, op: op, res: res, lsn: lsn})
	if a.optimistic && res.TS != 0 {
		a.markWrite(comp.name, op.Item)
	}
	// A mutation's event is sequenced at the stamp of the version it
	// installed (stamps and event sequence numbers share one counter —
	// Store.UseClock), so the recorded conflict order of store events is
	// exactly version order; reads are sequenced here, after they executed.
	seq := res.TS
	if seq == 0 {
		seq = r.seq.Add(1)
	}
	return seq, res.Value, nil
}

func (r *Runtime) lock(a *attempt, caller *component, id model.NodeID, item string, mode data.Mode, owner string, deadline time.Time) error {
	return r.acquire(a, caller.lm, caller.modes, item, mode, owner, caller.name, string(id), deadline)
}

func (r *Runtime) nextSeq() uint64 { return r.seq.Add(1) }

// retrySub compensates and re-runs locally, under OpenNested and Hybrid,
// a subtransaction that failed with a recoverable injected fault (up to
// Runtime.SubRetries times) while the caller keeps its semantic lock — a
// partial failure does not have to abort the whole root. A wait-die
// sacrifice must release the whole transaction (progress guarantee) and a
// deadline expiry would expire again immediately.
func (r *Runtime) retrySub(a *attempt, snap snapshot, try int, err error) bool {
	if (r.protocol != OpenNested && r.protocol != Hybrid) || try >= r.SubRetries ||
		!errors.Is(err, ErrInjected) || errors.Is(err, ErrDie) || errors.Is(err, ErrTimeout) {
		return false
	}
	r.rollbackTo(a, snap)
	r.subRetries.Add(1)
	time.Sleep(time.Duration(try+1) * 200 * time.Microsecond)
	return true
}

// commit ends a walked attempt: the optimistic commit gate validates
// every snapshot read against the versions committed since its stamp;
// then the commit is certified and published, and the checkpoint cadence
// runs.
func (r *Runtime) commit(a *attempt) error {
	if err := r.validate(a); err != nil {
		return err
	}
	if err := r.publishCommit(a); err != nil {
		return err
	}
	r.maybeCheckpoint()
	return nil
}

// publishCommit makes a validated attempt's commit durable and visible:
// certification (EnableCertify) admits and files the staged record on
// this goroutine before anything of the commit becomes durable — a
// rejection rides the error — then the commit batch is journaled, the
// root's versions retired, its locks released, and (uncertified) the
// staged record filed. The whole publication holds the checkpoint cut's
// read side, so a checkpoint never observes a commit whose batch is
// journaled but whose effects are unpublished (or vice versa), a cut
// drops exactly the commits journaled below its marker, and both crash
// sites fire inside the gated window.
func (r *Runtime) publishCommit(a *attempt) error {
	r.ck.gate.RLock(a.ts)
	defer r.ck.gate.RUnlock(a.ts)
	certified := r.Certifying()
	if certified {
		if err := r.certify(a); err != nil {
			return err
		}
	}
	txn := string(a.root)
	// Crash site "commit": fires before the commit batch is
	// journaled, so recovery must undo this transaction.
	r.fireCrash("", txn, "commit", nil)
	if r.wal.attached() {
		if _, jerr := r.wal.appendBatch(stageRecords(txn, &a.stage, wal.Record{Type: wal.TypeCommit, Txn: txn})); jerr != nil {
			return jerr
		}
	}
	// Crash site "post-commit": the commit record is durable but
	// locks are abandoned and the index dies with the process —
	// recovery must redo this transaction from the log alone.
	r.fireCrash("", txn, "post-commit", nil)
	// Root commit: finalize this root's versions (it will apply
	// nothing further, so snapshot validation may stop treating
	// them as dirty), release every lock, publish the record.
	r.finish(a, a.touchedStores())
	if !certified {
		r.ix.file(&a.stage)
	}
	r.commits.Add(1)
	return nil
}

// touchedStores returns the distinct stores the attempt mutated (small:
// deduped by pointer), in the attempt's scratch slice.
func (a *attempt) touchedStores() []*data.Store {
	a.stores = a.stores[:0]
	for _, u := range a.undo {
		if !slices.Contains(a.stores, u.comp.store) {
			a.stores = append(a.stores, u.comp.store)
		}
	}
	return a.stores
}

// abort compensates the attempt's applied operations in reverse order,
// retires the attempt's version tags (its installs and their
// compensations net out and none of its events will be recorded — see
// Store.Retire), and releases its locks; a final abort is journaled.
func (r *Runtime) abort(a *attempt, final bool) {
	stores := a.touchedStores()
	r.compensate(a, 0)
	// Every journaled apply now has a journaled compensation, so the
	// attempt may stop pinning the WAL truncation barrier.
	r.finish(a, stores)
	if final {
		r.wal.append(wal.Record{Type: wal.TypeAbort, Txn: string(a.root)})
	}
}

// finish ends a committed or undone attempt's hold on the runtime: its
// version tags retire in stores, its seal clears, its locks are released,
// and it stops pinning the WAL truncation barrier and, with its snapshot,
// the compaction frontier.
func (r *Runtime) finish(a *attempt, stores []*data.Store) {
	for _, s := range stores {
		s.Retire(string(a.root))
	}
	r.clearSeal(string(a.root))
	for i := len(a.locks) - 1; i >= 0; i-- {
		a.locks[i].lm.release(a.locks[i].owner, a.locks[i].item)
	}
	a.locks = a.locks[:0]
	r.wfg.clear(a.ts)
	r.ck.drop(a)
}

// rollbackTo undoes only the suffix of the attempt after snap: the
// subtransaction-scoped rollback behind local retry. Locks acquired
// during the suffix are released, except root-owned ones (Hybrid join
// points hold to root commit; keeping them is always safe and they are
// released at root commit/abort).
func (r *Runtime) rollbackTo(a *attempt, snap snapshot) {
	r.compensate(a, snap.undo)
	kept := a.locks[:snap.locks]
	for _, l := range a.locks[snap.locks:] {
		if l.owner == string(a.root) {
			kept = append(kept, l)
		} else {
			l.lm.release(l.owner, l.item)
		}
	}
	a.locks = kept
	a.stage.truncate(snap.nodes, snap.events)
	a.values = a.values[:snap.values]
	a.reads = a.reads[:snap.reads]
	r.wfg.clear(a.ts)
}

// compensate undoes a.undo[from:] in reverse order, journaling each
// compensation before the component's undo step (undoEntry.revert) runs
// it: a failing one is retried and then quarantined — the runtime keeps
// running, the counter and Quarantined() report the leak.
func (r *Runtime) compensate(a *attempt, from int) {
	txn := string(a.root)
	for i := len(a.undo) - 1; i >= from; i-- {
		u := &a.undo[i]
		rec, ok := u.compRecord(txn)
		if !ok {
			continue
		}
		// Write-ahead compensation: the inverse is journaled before it
		// executes, so after a crash the log never under-reports undone
		// work (an over-reported compensation that never ran re-runs at
		// recovery — compensations here are idempotent restores/negations
		// over a store rebuilt from the log, so replaying is safe).
		// The journaled compensation and its store effect stay on one side
		// of any checkpoint cut, like the forward apply they invert.
		r.ck.gate.RLock(a.ts)
		if u.lsn != 0 {
			if _, jerr := r.wal.append(rec); jerr != nil {
				r.ck.gate.RUnlock(a.ts)
				// The log is gone (crash) or unwritable: the process is
				// effectively dead, recovery owns the remaining undo.
				a.undo = a.undo[:from]
				return
			}
		}
		u.revert(txn, txn, r.wal, r.inj, &r.leaks)
		r.ck.gate.RUnlock(a.ts)
	}
	a.undo = a.undo[:from]
}

// acquire wraps lockManager.acquireUntil with fault injection, timeout
// accounting, and the attempt's record of the locks it holds. comp and
// step give the injector its (component, txn, step) context.
func (r *Runtime) acquire(a *attempt, lm *lockManager, table *data.ModeTable, item string, mode data.Mode, owner, comp, step string, deadline time.Time) error {
	if r.inj != nil {
		if r.inj.fire(FaultLockFail, comp, string(a.root), step) {
			return fmt.Errorf("sched: lock fault at %s (%s): %w", step, item, ErrInjected)
		}
		if r.inj.fire(FaultLockDelay, comp, string(a.root), step) {
			d := r.inj.delay()
			if !deadline.IsZero() {
				if until := time.Until(deadline); until < d {
					d = until
				}
			}
			if d > 0 {
				time.Sleep(d)
			}
		}
	}
	if err := lm.acquireUntil(table, item, mode, owner, a.ts, r.Deadlock, r.wfg, deadline); err != nil {
		if errors.Is(err, ErrTimeout) {
			r.timeouts.Add(1)
			return fmt.Errorf("sched: lock wait for %s at %s: %w", item, step, err)
		}
		return err
	}
	a.locks = append(a.locks, lockRef{lm, owner, item})
	return nil
}
