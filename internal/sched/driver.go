package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
)

// The driver runs every root transaction, in one process or in a cluster:
// one retry loop (submit) and one program walker (exec, invoke) over a
// scheduler — the node half that takes the locks, applies the leaf
// operations, draws the event sequence numbers and ends the attempt. The
// Runtime binds it to its own lock managers, stores and journal; the
// Coordinator binds it to RPCs to the participants and two-phase commit.
// Child IDs, semantic lock keys, the sequencing rule, deadlines, staging
// and wait-die retry are the driver's alone, so both record the same
// execution for the same programs (TestDistDriverParity).

// scheduler is the node half of the driver.
type scheduler interface {
	// admit lets a new root in (or refuses it with ErrOverload); release
	// is called once the root has returned.
	admit() error
	release()
	// begin readies a fresh attempt of root.
	begin(a *attempt, root Invocation)
	// enter starts a (sub)transaction at comp and returns the owner its
	// locks are taken under; leave ends it there, successfully.
	enter(a *attempt, comp *component, node model.NodeID, owner string) (string, error)
	leave(a *attempt, comp *component, owner string)
	// apply locks and applies leaf op at comp and returns the event's
	// sequence number and, for a read, the value read.
	apply(a *attempt, comp *component, id model.NodeID, owner string, op data.Op, deadline time.Time) (seq uint64, val int64, err error)
	// lock takes the semantic lock on an invocation at its caller.
	lock(a *attempt, caller *component, id model.NodeID, item string, mode data.Mode, owner string, deadline time.Time) error
	// nextSeq draws an event sequence number.
	nextSeq() uint64
	// retrySub decides whether a failed subtransaction re-runs locally
	// (after undoing it back to snap) instead of failing its root.
	retrySub(a *attempt, snap snapshot, try int, err error) bool
	// commit ends a fully walked attempt; abort undoes a failed one, final
	// when the root will not retry.
	commit(a *attempt) error
	abort(a *attempt, final bool)
}

// driver is the component-independent state every root shares: the
// components, the protocol, the node's lifecycle (its crash flag drains
// every Submit with ErrCrashed), wait-die timestamps and the retry
// counters.
type driver struct {
	lifecycle
	sch      scheduler
	protocol Protocol
	comps    map[string]*component

	tsc atomic.Uint64 // root timestamps for wait-die

	retries      atomic.Int64 // abort-retry rounds
	aborts       atomic.Int64 // wait-die sacrifices
	valAborts    atomic.Int64 // optimistic attempts whose reads were invalidated
	clientAborts atomic.Int64
	timeouts     atomic.Int64
	invokes      atomic.Int64

	// attempts recycles *attempt across roots: a root takes one, resets it
	// in place for every retry and gives it back when it returns.
	attempts sync.Pool
}

// attempt carries the per-attempt execution state. The first block is
// the driver's; the in-process scheduler adds the locks held, the undo
// log and the optimistic reads, the cluster the participants touched.
// Every slice and map is emptied in place by reset, so a recycled attempt
// keeps its capacity; only values leaves with the result, and ids starts
// a fresh buffer per root, the last one staying with the names it holds.
type attempt struct {
	root   model.NodeID
	ts     uint64
	number uint32 // 1 for a root's first attempt; participants tell attempts apart by it
	stage  stagedRecord
	values []int64

	// ids holds the node IDs and semantic items the driver spells for the
	// root (childID, joinID); each is a substring of it. A root starts a
	// fresh buffer, sized for one pass of its program, and its retries
	// append to it, so no byte a filed or parked node still points at is
	// ever written again.
	ids strings.Builder

	locks  []lockRef // one per grant, released by item
	undo   []undoEntry
	stores []*data.Store // touchedStores' scratch

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

	// touched lists the participants sent a lock or an apply: the ones
	// that vote, or hear the abort.
	touched map[string]bool
}

// reset readies a (recycled) attempt for attempt number of root.
func (a *attempt) reset(root model.NodeID, ts uint64, number uint32) {
	a.root, a.ts, a.number = root, ts, number
	a.stage.truncate(0, 0)
	a.values = a.values[:0]
	a.locks = a.locks[:0]
	a.undo = a.undo[:0]
	a.optimistic = false
	clear(a.snaps)
	a.reads = a.reads[:0]
	clear(a.wset)
	a.snapReg, a.snapLow = false, 0
	clear(a.touched)
}

// snapshot marks a point in the attempt's logs, so a faulted
// subtransaction can be rolled back and re-run without discarding the
// work of the rest of the transaction.
type snapshot struct {
	undo, locks, nodes, events, values, reads int
}

func (a *attempt) snapshot() snapshot {
	return snapshot{
		undo:   len(a.undo),
		locks:  len(a.locks),
		nodes:  len(a.stage.nodes),
		events: len(a.stage.events),
		values: len(a.values),
		reads:  len(a.reads),
	}
}

// submit runs the program as a root transaction until it commits,
// retrying wait-die sacrifices, invalidated optimistic reads, recovered
// injected faults and deadline expiries with the root's first timestamp.
// An expired client-supplied deadline is final; an opTimeout window
// (zero = none) renews per attempt.
func (d *driver) submit(name string, root Invocation, maxRetries int, opTimeout time.Duration) (res *TxResult, err error) {
	if d.comps[root.Component] == nil {
		return nil, fmt.Errorf("sched: unknown component %q", root.Component)
	}
	// A Runtime crash unwinds the crashing attempt's stack with
	// crashPanic: convert it to ErrCrashed here, deliberately skipping
	// every rollback and lock release on the way out — a crashed process
	// does not get to compensate anything.
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(crashPanic); ok {
				res, err = nil, ErrCrashed
				return
			}
			panic(p)
		}
	}()
	if d.crashed.Load() {
		return nil, ErrCrashed
	}
	if err := d.sch.admit(); err != nil {
		return nil, err
	}
	defer d.sch.release()

	ts := d.tsc.Add(1)
	rootID := model.NodeID(name)
	// One attempt serves every retry of the root. A crash abandons it with
	// the rest of the process state: it goes back to the pool only from a
	// return after a commit or a completed abort.
	a, _ := d.attempts.Get().(*attempt)
	if a == nil {
		a = &attempt{}
	}
	a.ids.Reset()
	a.ids.Grow(idBytes(len(rootID), &root))
	var rng *rand.Rand // backoff jitter, built on the first retry
	for retries := 0; ; {
		deadline := root.Deadline
		if opTimeout > 0 {
			if w := time.Now().Add(opTimeout); deadline.IsZero() || w.Before(deadline) {
				deadline = w
			}
		}
		a.reset(rootID, ts, uint32(retries+1))
		a.stage.declareNode(front.DeltaNode{ID: rootID, Sched: model.ScheduleID(root.Component)})
		d.sch.begin(a, root)
		err := d.exec(a, rootID, name, &root, deadline)
		if err == nil {
			if err = d.sch.commit(a); err == nil {
				res := &TxResult{Root: rootID, Retries: retries}
				if len(a.values) > 0 {
					res.Values, a.values = a.values, nil // the caller owns it now
				}
				d.attempts.Put(a)
				return res, nil
			}
		}
		if errors.Is(err, ErrCrashed) {
			// Abandon without undo, exactly like the crashing attempt.
			return nil, ErrCrashed
		}
		retry := true
		switch {
		case errors.Is(err, ErrDie):
			d.aborts.Add(1)
		case errors.Is(err, ErrValidation):
			d.valAborts.Add(1)
		case errors.Is(err, ErrInjected):
		case errors.Is(err, ErrTimeout):
			retry = root.Deadline.IsZero() || time.Now().Before(root.Deadline)
		default:
			if errors.Is(err, ErrClientAbort) {
				d.clientAborts.Add(1)
			}
			retry = false
		}
		if retry {
			d.retries.Add(1)
			// The budget check precedes the backoff: the final failed
			// attempt returns immediately instead of sleeping first.
			if retries >= maxRetries {
				err, retry = fmt.Errorf("%w (last abort: %w)", ErrTooManyRetries, err), false
			}
		}
		d.sch.abort(a, !retry)
		if !retry {
			d.attempts.Put(a)
			return nil, err
		}
		retries++
		// Jittered exponential backoff, 50µs .. 3.2ms: the root keeps its
		// timestamp, ages, and eventually wins under wait-die. Flat backoff
		// thrashes when the older conflicting root holds its locks for
		// milliseconds.
		base := 50 << min(retries, 6)
		if rng == nil {
			rng = rand.New(rand.NewSource(int64(ts) * 7919))
		}
		time.Sleep(time.Duration(base/2+rng.Intn(base)) * time.Microsecond)
		if d.crashed.Load() {
			return nil, ErrCrashed
		}
	}
}

// exec runs one (sub)transaction at its component. node is its ID, owner
// the lock owner its caller hands down, and deadline bounds the subtree
// (zero = none; inv.Deadline tightens it).
func (d *driver) exec(a *attempt, node model.NodeID, owner string, inv *Invocation, deadline time.Time) error {
	comp := d.comps[inv.Component]
	if comp == nil {
		return fmt.Errorf("sched: unknown component %q", inv.Component)
	}
	if !inv.Deadline.IsZero() && (deadline.IsZero() || inv.Deadline.Before(deadline)) {
		deadline = inv.Deadline
	}
	owner, err := d.sch.enter(a, comp, node, owner)
	if err != nil {
		return err
	}
	for i := range inv.Steps {
		step := &inv.Steps[i]
		if d.crashed.Load() {
			return ErrCrashed
		}
		id := a.childID(node, i+1)
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			d.timeouts.Add(1)
			return fmt.Errorf("sched: %s at step %s: %w", node, id, ErrTimeout)
		}
		if step.Sync != nil {
			step.Sync()
		}
		if step.Fail != nil {
			return fmt.Errorf("%w: step %s: %w", ErrClientAbort, id, step.Fail)
		}
		switch {
		case step.Op != nil && step.Invoke != nil:
			return fmt.Errorf("sched: step %s has both Op and Invoke", id)
		case step.Op != nil:
			op := *step.Op
			if !comp.hasStore {
				return fmt.Errorf("sched: component %q has no store for %s", comp.name, op)
			}
			seq, val, err := d.sch.apply(a, comp, id, owner, op, deadline)
			if err != nil {
				return err
			}
			if op.Physical() == data.ModeRead {
				a.values = append(a.values, val)
			}
			a.stage.declareNode(front.DeltaNode{ID: id, Parent: node})
			a.stage.addEvent(event{seq: seq, comp: comp.name, op: id, parentTx: node, item: op.Item, mode: op.Mode})
		case step.Invoke != nil:
			if err := d.invoke(a, comp, node, id, owner, step.Invoke, deadline); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sched: empty step %s", id)
		}
	}
	d.sch.leave(a, comp, owner)
	return nil
}

// invoke locks the semantic operation at the caller and delegates the
// subtransaction to the child component.
func (d *driver) invoke(a *attempt, caller *component, parent, id model.NodeID, owner string, inv *Invocation, deadline time.Time) error {
	child := d.comps[inv.Component]
	if child == nil {
		return fmt.Errorf("sched: unknown component %q", inv.Component)
	}
	if child == caller {
		return fmt.Errorf("sched: component %q invoking itself (recursion is not allowed)", caller.name)
	}
	d.invokes.Add(1)

	// The semantic identity of an invocation at the caller is the pair
	// (component, item): operations on the same item name routed to
	// different components touch disjoint data and must not be declared
	// conflicting (nor serialized) at the caller.
	semItem := a.joinID(inv.Component, inv.Item)

	// The invocation's event is staged when its seq is drawn, so every
	// stage is in seq order: the seqs an attempt draws ascend.
	ev := event{comp: caller.name, op: id, parentTx: parent, item: semItem, mode: inv.Mode}
	locked := d.protocol != Global2PL && d.protocol != NoCC
	if locked {
		if err := d.sch.lock(a, caller, id, semItem, inv.Mode, owner, deadline); err != nil {
			return err
		}
		ev.seq = d.sch.nextSeq()
		a.stage.addEvent(ev)
	}
	// Declared before its subtree, and before the snapshot a local re-run
	// truncates back to: every stage is written parents-first.
	a.stage.declareNode(front.DeltaNode{ID: id, Parent: parent, Sched: model.ScheduleID(inv.Component)})
	for try := 0; ; try++ {
		snap := a.snapshot()
		err := d.exec(a, id, string(id), inv, deadline)
		if err == nil {
			break
		}
		if !d.sch.retrySub(a, snap, try, err) {
			return err
		}
	}
	if !locked {
		// No component-level locks: the event is sequenced at completion,
		// where lock strictness (Global2PL) makes the order consistent with
		// the leaf serialization.
		ev.seq = d.sch.nextSeq()
		a.stage.addEvent(ev)
	}
	return nil
}

// childID spells the ID of step i of node, node + "/" + i, into the
// root's ID buffer.
func (a *attempt) childID(node model.NodeID, i int) model.NodeID {
	start := a.ids.Len()
	a.ids.WriteString(string(node))
	a.ids.WriteByte('/')
	var digits [20]byte
	a.ids.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	return model.NodeID(a.ids.String()[start:])
}

// joinID spells comp + "/" + item into the root's ID buffer.
func (a *attempt) joinID(comp, item string) string {
	start := a.ids.Len()
	a.ids.WriteString(comp)
	a.ids.WriteByte('/')
	a.ids.WriteString(item)
	return a.ids.String()[start:]
}

// idBytes is how many bytes childID and joinID spell for inv's subtree
// under a node ID of n bytes when every step runs once.
func idBytes(n int, inv *Invocation) int {
	total := 0
	for i := range inv.Steps {
		id := n + 1 + decimalLen(i+1)
		total += id
		if sub := inv.Steps[i].Invoke; sub != nil {
			total += len(sub.Component) + 1 + len(sub.Item) + idBytes(id, sub)
		}
	}
	return total
}

// decimalLen is len(strconv.Itoa(i)) for i > 0.
func decimalLen(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}
