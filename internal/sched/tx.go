package sched

import (
	"errors"
	"fmt"
	"math/rand"
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

// compensationRetries bounds the re-attempts of one failing compensation
// before the operation is quarantined.
const compensationRetries = 3

// attempt carries the per-attempt execution state: the undo log, the lock
// owners created so far (for release on abort or commit), and the staged
// execution record.
type attempt struct {
	root   model.NodeID
	ts     uint64
	owners []ownerRef
	undo   []undoEntry
	stage  *stagedRecord
	values []int64

	// Backoff jitter source, built lazily on the first retry: seeding a
	// rand.Source is hundreds of words of setup the no-retry fast path
	// never needs.
	rng     *rand.Rand
	rngSeed int64

	// Optimistic execution state (ExecOptimistic / Invocation.SnapshotRead):
	// per-store snapshot stamps, the snapshot reads to validate at commit,
	// and the items this attempt mutated (whose reads must bypass the
	// snapshot to see their own writes).
	optimistic bool
	snaps      map[string]uint64
	reads      []readRec
	wset       map[string]struct{}

	// Checkpoint-frontier registration (ckState.noteSnap): the oldest
	// snapshot stamp this attempt may still validate at. Written only by
	// the attempt's goroutine under ck.gate.RLock and read by the
	// checkpoint under ck.gate.Lock, so the gate orders every access.
	snapReg bool
	snapLow uint64
}

type ownerRef struct {
	lm    *lockManager
	owner string
}

type undoEntry struct {
	store *data.Store
	comp  string
	op    data.Op
	res   data.Result
	lsn   uint64 // WAL position of the TypeApply record (0 = not journaled)
}

// snapshot marks a point in the attempt's logs, so a faulted
// subtransaction can be rolled back and re-run without discarding the
// work of the rest of the transaction.
type snapshot struct {
	undo, owners, nodes, events, values, reads int
}

func (a *attempt) snapshot() snapshot {
	return snapshot{
		undo:   len(a.undo),
		owners: len(a.owners),
		nodes:  len(a.stage.nodes),
		events: len(a.stage.events),
		values: len(a.values),
		reads:  len(a.reads),
	}
}

// Submit runs the program as a root transaction, retrying on wait-die
// sacrifices, recovered injected faults, and deadline expiries until it
// commits. It is safe to call from many goroutines. After a simulated
// crash (FaultCrash) every Submit — in flight or new — returns
// ErrCrashed; the abandoned state is Recover's job.
func (r *Runtime) Submit(name string, root Invocation) (res *TxResult, err error) {
	if _, ok := r.comps[root.Component]; !ok {
		return nil, fmt.Errorf("sched: unknown component %q", root.Component)
	}
	// A crash unwinds the crashing attempt's stack with crashPanic:
	// convert it to ErrCrashed here, deliberately skipping every rollback
	// and lock release on the way out — a crashed process does not get to
	// compensate anything.
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(crashPanic); ok {
				res, err = nil, ErrCrashed
				return
			}
			panic(p)
		}
	}()
	if r.crashed.Load() {
		return nil, ErrCrashed
	}
	// Overload backpressure: above the high watermark, new roots are
	// refused until a checkpoint drains the backlog (EnableCheckpoints).
	if aerr := r.admitRoot(); aerr != nil {
		return nil, aerr
	}
	ts := r.tsc.Add(1)
	rootID := model.NodeID(name)
	retries := 0
	for {
		deadline := root.Deadline
		if r.OpTimeout > 0 {
			if d := time.Now().Add(r.OpTimeout); deadline.IsZero() || d.Before(deadline) {
				deadline = d
			}
		}
		a := &attempt{
			root:       rootID,
			ts:         ts,
			stage:      newStagedRecord(),
			rngSeed:    int64(ts)*7919 + int64(retries),
			optimistic: r.Exec == ExecOptimistic || root.SnapshotRead,
		}
		a.stage.declareNode(nodeDecl{id: rootID, sched: root.Component})
		err := r.exec(a, rootID, string(rootID), root, deadline)
		if err == nil {
			// Optimistic commit gate: validate every snapshot read against
			// the versions committed since its snapshot stamp. Runs before
			// certification and durability — an invalidated attempt rolls
			// back and retries with a fresh snapshot.
			err = r.validate(a)
		}
		if err == nil {
			// Commit-time certification (EnableCertify): the staged record
			// is admitted against the Comp-C criterion before anything of
			// the commit becomes durable. The delta is built on this
			// goroutine, then probed against the conflict index and
			// admitted under the certifier's mutex, still on this
			// goroutine — the order in which committers take that mutex
			// is the certified commit order, and Runtime.mu is never
			// taken. A rejected commit rolls back like a client abort —
			// the violation witness rides the error.
			if cerr := r.certify(a); cerr != nil {
				r.rollback(a)
				r.wal.append(wal.Record{Type: wal.TypeAbort, Txn: string(rootID)})
				return nil, cerr
			}
			if jerr := r.publishCommit(a, rootID); jerr != nil {
				if errors.Is(jerr, ErrCrashed) {
					return nil, ErrCrashed
				}
				r.rollback(a)
				return nil, jerr
			}
			// Automatic checkpoint cadence (EnableCheckpoints): runs after
			// the publication releases the cut gate.
			r.maybeCheckpoint()
			return &TxResult{Root: rootID, Retries: retries, Values: a.values}, nil
		}
		if errors.Is(err, ErrCrashed) {
			// A crash observed mid-attempt (drained lock wait, closed
			// log, step-loop check): abandon without rollback, exactly
			// like the crashing attempt itself.
			return nil, ErrCrashed
		}
		r.rollback(a)
		switch {
		case errors.Is(err, ErrDie):
			r.aborts.Add(1)
		case errors.Is(err, ErrValidation):
			// Invalidated snapshot reads: retry with a fresh snapshot.
			r.valAborts.Add(1)
		case errors.Is(err, ErrInjected):
			// Recovered fault: retry as a fresh attempt.
		case errors.Is(err, ErrTimeout):
			// A client-supplied deadline is final; an OpTimeout window
			// renews per attempt.
			if !root.Deadline.IsZero() && !time.Now().Before(root.Deadline) {
				r.wal.append(wal.Record{Type: wal.TypeAbort, Txn: string(rootID)})
				return nil, err
			}
		default:
			if errors.Is(err, ErrClientAbort) {
				r.clientAborts.Add(1)
			}
			r.wal.append(wal.Record{Type: wal.TypeAbort, Txn: string(rootID)})
			return nil, err
		}
		retries++
		// The budget check precedes the backoff: the final failed attempt
		// returns immediately instead of sleeping first.
		if retries > r.MaxRetries {
			r.wal.append(wal.Record{Type: wal.TypeAbort, Txn: string(rootID)})
			return nil, fmt.Errorf("%w (last abort: %w)", ErrTooManyRetries, err)
		}
		// Jittered exponential backoff before retrying with the same
		// timestamp (the transaction ages and eventually wins under
		// wait-die). Flat backoff thrashes badly when the conflicting
		// older transaction holds its locks for milliseconds.
		shift := retries
		if shift > 6 {
			shift = 6
		}
		base := (50 << shift) // 50µs .. 3.2ms
		if a.rng == nil {
			a.rng = rand.New(rand.NewSource(a.rngSeed))
		}
		time.Sleep(time.Duration(base/2+a.rng.Intn(base)) * time.Microsecond)
	}
}

// publishCommit makes a validated, certified attempt's commit durable
// and visible: the commit batch is journaled, the root's versions
// retired, its locks released, and the staged record merged into the
// committed projection. The whole publication holds the checkpoint cut's
// read side, so a checkpoint never observes a commit whose batch is
// journaled but whose effects are unpublished (or vice versa), and both
// crash sites fire inside the gated window.
func (r *Runtime) publishCommit(a *attempt, rootID model.NodeID) error {
	r.ck.gate.RLock(a.ts)
	defer r.ck.gate.RUnlock(a.ts)
	// Crash site "commit": fires before the commit batch is
	// journaled, so recovery must undo this transaction.
	r.fireCrash("", string(rootID), "commit", nil)
	if r.wal.attached() {
		txn := string(rootID)
		if _, jerr := r.wal.appendBatch(stageRecords(txn, a.stage, wal.Record{Type: wal.TypeCommit, Txn: txn})); jerr != nil {
			return jerr
		}
	}
	// Crash site "post-commit": the commit record is durable but
	// locks are abandoned and the record never merged — recovery
	// must redo this transaction from the log alone.
	r.fireCrash("", string(rootID), "post-commit", nil)
	// Root commit: finalize this root's versions (it will apply
	// nothing further, so snapshot validation may stop treating
	// them as dirty), release every lock, publish the record.
	for _, s := range a.touchedStores() {
		s.Retire(string(rootID))
	}
	r.clearSeal(string(rootID))
	for i := len(a.owners) - 1; i >= 0; i-- {
		a.owners[i].lm.release(a.owners[i].owner)
	}
	r.wfg.clear(a.ts)
	r.mu.Lock()
	r.rec.merge(a.stage)
	r.mu.Unlock()
	r.commits.Add(1)
	r.ck.drop(a)
	return nil
}

// touchedStores returns the distinct stores the attempt mutated (small:
// deduped by pointer).
func (a *attempt) touchedStores() []*data.Store {
	var out []*data.Store
	for _, u := range a.undo {
		dup := false
		for _, s := range out {
			if s == u.store {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, u.store)
		}
	}
	return out
}

// rollback compensates the attempt's applied operations in reverse order,
// retires the attempt's version tags (its installs and their
// compensations net out and none of its events will be recorded — see
// Store.Retire), and releases its locks.
func (r *Runtime) rollback(a *attempt) {
	stores := a.touchedStores()
	r.compensate(a, 0)
	for _, s := range stores {
		s.Retire(string(a.root))
	}
	r.clearSeal(string(a.root))
	for i := len(a.owners) - 1; i >= 0; i-- {
		a.owners[i].lm.release(a.owners[i].owner)
	}
	a.owners = a.owners[:0]
	r.wfg.clear(a.ts)
	// Every journaled apply now has a journaled compensation, so the
	// attempt no longer pins the WAL truncation barrier (and its snapshot
	// no longer pins the compaction frontier).
	r.ck.drop(a)
}

// rollbackTo undoes only the suffix of the attempt after snap: the
// subtransaction-scoped rollback behind local retry. Locks acquired
// during the suffix are released, except root-owned ones (Hybrid join
// points hold to root commit; keeping them is always safe and they are
// released at root commit/abort).
func (r *Runtime) rollbackTo(a *attempt, snap snapshot) {
	r.compensate(a, snap.undo)
	kept := a.owners[:snap.owners]
	for _, o := range a.owners[snap.owners:] {
		if o.owner == string(a.root) {
			kept = append(kept, o)
		} else {
			o.lm.release(o.owner)
		}
	}
	a.owners = kept
	a.stage.truncate(snap.nodes, snap.events)
	a.values = a.values[:snap.values]
	a.reads = a.reads[:snap.reads]
	r.wfg.clear(a.ts)
}

// compensate undoes a.undo[from:] in reverse order. A failing
// compensation (store error or injected FaultCompensation) is retried
// with backoff up to compensationRetries times and then quarantined: the
// runtime keeps running, the counter and Quarantined() report the leak.
// Compensations never panic — a faulted rollback must not take the
// process down with it.
func (r *Runtime) compensate(a *attempt, from int) {
	for i := len(a.undo) - 1; i >= from; i-- {
		u := a.undo[i]
		inv, ok := data.Inverse(u.op, u.res)
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
			if _, jerr := r.wal.append(compRecord(string(a.root), u.comp, inv, u.lsn)); jerr != nil {
				r.ck.gate.RUnlock(a.ts)
				// The log is gone (crash) or unwritable: the process is
				// effectively dead, recovery owns the remaining undo.
				a.undo = a.undo[:from]
				return
			}
		}
		var err error
		for try := 0; try <= compensationRetries; try++ {
			if try > 0 {
				time.Sleep(time.Duration(try) * 50 * time.Microsecond)
			}
			if r.inj.fire(FaultCompensation, u.comp, string(a.root), "") {
				err = fmt.Errorf("sched: compensation fault at %q: %w", u.comp, ErrInjected)
				continue
			}
			if _, err = u.store.ApplyUndo(inv, string(a.root), u.res.TS); err == nil {
				break
			}
		}
		if err != nil {
			if u.lsn != 0 {
				// Supersede the journaled compensation: it never took
				// effect, recovery must keep the forward effect leaked
				// and re-report the quarantine.
				r.wal.append(wal.Record{Type: wal.TypeQuarantine, Txn: string(a.root), Ref: u.lsn})
			}
			r.quarantine(Quarantine{Component: u.comp, Txn: string(a.root), Op: u.op, Err: err})
		}
		r.ck.gate.RUnlock(a.ts)
	}
	a.undo = a.undo[:from]
}

// exec runs one (sub)transaction at its component. node is the node ID of
// this (sub)transaction; owner is the lock-owner key for locks it takes
// (its own node ID under open nesting, the root attempt under closed
// nesting and global 2PL). deadline bounds the subtree (zero = none).
func (r *Runtime) exec(a *attempt, node model.NodeID, owner string, inv Invocation, deadline time.Time) error {
	comp := r.comps[inv.Component]
	if comp == nil {
		return fmt.Errorf("sched: unknown component %q", inv.Component)
	}
	if !inv.Deadline.IsZero() && (deadline.IsZero() || inv.Deadline.Before(deadline)) {
		deadline = inv.Deadline
	}
	if r.inj.down(comp.name, string(a.root), string(node)) {
		return fmt.Errorf("sched: %q rejected %s: %w", comp.name, node, ErrComponentDown)
	}
	stepOwner := r.lockOwner(a, comp, owner)

	for i, step := range inv.Steps {
		if r.crashed.Load() {
			return ErrCrashed
		}
		childID := model.NodeID(fmt.Sprintf("%s/%d", node, i+1))
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			r.timeouts.Add(1)
			return fmt.Errorf("sched: %s at step %s: %w", node, childID, ErrTimeout)
		}
		if step.Sync != nil {
			step.Sync()
		}
		if step.Fail != nil {
			return fmt.Errorf("%w: step %s: %w", ErrClientAbort, childID, step.Fail)
		}
		switch {
		case step.Op != nil && step.Invoke != nil:
			return fmt.Errorf("sched: step %s has both Op and Invoke", childID)
		case step.Op != nil:
			if comp.store == nil {
				return fmt.Errorf("sched: component %q has no store for %s", comp.name, step.Op)
			}
			if err := r.leafOp(a, comp, node, childID, stepOwner, *step.Op, deadline); err != nil {
				return err
			}
		case step.Invoke != nil:
			if err := r.invoke(a, comp, node, childID, stepOwner, *step.Invoke, deadline); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sched: empty step %s", childID)
		}
	}
	// Subtransaction commit at this component: under open nesting (and
	// under Hybrid away from join points) its locks are released now; the
	// caller keeps only its own semantic lock on this invocation.
	if (r.protocol == OpenNested || r.protocol == Hybrid) && stepOwner != string(a.root) {
		comp.lm.release(stepOwner)
		a.dropOwner(comp.lm, stepOwner)
	}
	return nil
}

// lockOwner decides the owner key for locks taken while executing an
// instance at comp: the root attempt when locks must survive to root
// commit, the instance itself when early release is allowed.
func (r *Runtime) lockOwner(a *attempt, comp *component, instance string) string {
	switch r.protocol {
	case ClosedNested, Global2PL:
		return string(a.root)
	case Hybrid:
		if comp.holdToRoot {
			return string(a.root)
		}
		return instance
	default:
		return instance
	}
}

// leafOp locks and applies a leaf operation.
func (r *Runtime) leafOp(a *attempt, comp *component, parent model.NodeID, id model.NodeID, owner string, op data.Op, deadline time.Time) error {
	// Trigger-based apply faults fire here, where the (txn, step)
	// context exists; probabilistic ones fire inside the store itself
	// via the Apply hook SetFaults installs.
	if r.inj != nil && r.inj.fire(FaultApply, comp.name, string(a.root), string(id)) {
		return fmt.Errorf("sched: apply fault at %s: %w", id, ErrInjected)
	}
	// Optimistic leaf reads are served from the store's committed snapshot:
	// no semantic lock, no blocking. Reads of items this attempt already
	// mutated fall through to the locked path — the snapshot cannot see the
	// attempt's own writes, and the write lock is already held, so the
	// locked read cannot block either.
	if a.optimistic && op.Physical() == data.ModeRead && !a.wroteItem(comp.name, op.Item) {
		return r.snapshotRead(a, comp, parent, id, op)
	}
	switch r.protocol {
	case Global2PL:
		// One global lock space over component-qualified items, classical
		// read/write modes only (increments — and any custom mode not
		// physically a read — are read-modify-writes).
		mode := op.Physical()
		if mode != data.ModeRead {
			mode = data.ModeWrite
		}
		if err := r.acquire(a, r.globalLM, r.rwTable, comp.name+"/"+op.Item, mode, string(a.root), comp.name, string(id), deadline); err != nil {
			return err
		}
	case NoCC:
		// No isolation.
	default:
		if err := r.acquire(a, comp.lm, comp.modes, op.Item, op.Mode, owner, comp.name, string(id), deadline); err != nil {
			return err
		}
	}
	// Write-ahead journal (mutations only): the apply record — with the
	// before-value recovery needs to invert it — precedes the store
	// mutation. The leaf crash site sits exactly on this boundary, so
	// FaultCrash can strand the log mid-append (CrashTear's torn record)
	// or between journal and apply. Journal and mutation execute under
	// the checkpoint cut's read side as one unit, so a checkpoint's store
	// snapshot reflects exactly the applies journaled below its marker.
	var lsn uint64
	var res data.Result
	var err error
	if op.Physical() != data.ModeRead {
		rec := applyRecord(string(a.root), string(id), comp.name, op, comp.store.Get(op.Item))
		r.fireCrash(comp.name, string(a.root), string(id), &rec)
		err = func() error {
			r.ck.gate.RLock(a.ts)
			defer r.ck.gate.RUnlock(a.ts)
			var jerr error
			if lsn, jerr = r.wal.append(rec); jerr != nil {
				return jerr
			}
			if lsn != 0 {
				r.ck.noteApply(string(a.root), lsn)
			}
			res, jerr = comp.store.ApplyAs(op, string(a.root))
			return jerr
		}()
		if err != nil && lsn == 0 {
			return err // journaling failed; nothing to cancel
		}
	} else {
		res, err = comp.store.ApplyAs(op, string(a.root))
	}
	if err != nil {
		if lsn != 0 {
			// The journaled apply never executed: append a cancellation
			// so recovery does not replay it.
			r.wal.append(wal.Record{Type: wal.TypeApplyFail, Txn: string(a.root), Ref: lsn})
		}
		return fmt.Errorf("sched: apply %s at %s: %w", op, id, err)
	}
	r.leafOps.Add(1)
	a.undo = append(a.undo, undoEntry{store: comp.store, comp: comp.name, op: op, res: res, lsn: lsn})
	if op.Physical() == data.ModeRead {
		a.values = append(a.values, res.Value)
	}
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
	a.stage.declareNode(nodeDecl{id: id, parent: parent})
	a.stage.addEvent(event{seq: seq, comp: comp.name, op: id, parentTx: parent, item: op.Item, mode: op.Mode})
	return nil
}

// invoke locks the semantic operation at the caller and delegates the
// subtransaction to the child component. Under OpenNested and Hybrid a
// subtransaction that fails with a recoverable injected fault is
// compensated and re-run locally (up to Runtime.SubRetries times) while
// the caller keeps its semantic lock — a partial failure does not have
// to abort the whole root.
func (r *Runtime) invoke(a *attempt, caller *component, parent model.NodeID, id model.NodeID, owner string, inv Invocation, deadline time.Time) error {
	child := r.comps[inv.Component]
	if child == nil {
		return fmt.Errorf("sched: unknown component %q", inv.Component)
	}
	if child == caller {
		return fmt.Errorf("sched: component %q invoking itself (recursion is not allowed)", caller.name)
	}
	r.invokes.Add(1)

	// The semantic identity of an invocation at the caller is the pair
	// (component, item): operations on the same item name routed to
	// different components touch disjoint data and must not be declared
	// conflicting (nor serialized) at the caller.
	semItem := inv.Component + "/" + inv.Item

	var seq uint64
	switch r.protocol {
	case Global2PL, NoCC:
		// No component-level locks; the event sequence is assigned at
		// completion, where lock strictness (Global2PL) makes the order
		// consistent with the leaf serialization.
	default:
		if err := r.acquire(a, caller.lm, caller.modes, semItem, inv.Mode, owner, caller.name, string(id), deadline); err != nil {
			return err
		}
		seq = r.seq.Add(1)
	}

	childOwner := string(id)
	localRetry := r.protocol == OpenNested || r.protocol == Hybrid
	for attempt := 0; ; attempt++ {
		snap := a.snapshot()
		err := r.exec(a, id, childOwner, inv, deadline)
		if err == nil {
			break
		}
		// Only injected faults are re-run locally: a wait-die sacrifice
		// must release the whole transaction (progress guarantee) and a
		// deadline expiry would expire again immediately.
		if !localRetry || attempt >= r.SubRetries ||
			!errors.Is(err, ErrInjected) || errors.Is(err, ErrDie) || errors.Is(err, ErrTimeout) {
			return err
		}
		r.rollbackTo(a, snap)
		r.subRetries.Add(1)
		time.Sleep(time.Duration(attempt+1) * 200 * time.Microsecond)
	}
	if seq == 0 {
		seq = r.seq.Add(1)
	}
	a.stage.declareNode(nodeDecl{id: id, parent: parent, sched: inv.Component})
	a.stage.addEvent(event{seq: seq, comp: caller.name, op: id, parentTx: parent, item: semItem, mode: inv.Mode})
	return nil
}

// acquire wraps lockManager.acquireUntil with fault injection, timeout
// accounting, and owner bookkeeping. comp and step give the injector its
// (component, txn, step) context.
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
	a.addOwner(lm, owner)
	return nil
}

func (a *attempt) addOwner(lm *lockManager, owner string) {
	for _, o := range a.owners {
		if o.lm == lm && o.owner == owner {
			return
		}
	}
	a.owners = append(a.owners, ownerRef{lm: lm, owner: owner})
}

func (a *attempt) dropOwner(lm *lockManager, owner string) {
	for i, o := range a.owners {
		if o.lm == lm && o.owner == owner {
			a.owners = append(a.owners[:i], a.owners[i+1:]...)
			return
		}
	}
}
