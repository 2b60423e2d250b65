package sched

import (
	"errors"
	"fmt"
	"time"

	"compositetx/internal/data"
)

// ExecMode selects how a runtime executes leaf reads: pessimistically
// (semantic locks, the default) or optimistically (MVCC snapshot reads
// validated at commit).
type ExecMode int

const (
	// ExecPessimistic takes semantic locks for every leaf operation.
	ExecPessimistic ExecMode = iota
	// ExecOptimistic serves leaf reads from a per-store committed
	// snapshot without taking semantic locks and without ever blocking on
	// (or being blocked by) writers. At commit, before certification and
	// before anything becomes durable, the scheduler validates every
	// snapshot read against the versions committed since the snapshot,
	// using the component's ModeTable — an intervening commit that
	// commutes with the read (per the table) does not invalidate it. A
	// failed validation aborts with ErrValidation and flows into the
	// normal retry ladder. Mutations still lock pessimistically, so
	// write/write conflicts keep their wait-die behavior.
	ExecOptimistic
)

func (m ExecMode) String() string {
	switch m {
	case ExecPessimistic:
		return "pessimistic"
	case ExecOptimistic:
		return "optimistic"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(m))
	}
}

// ErrValidation aborts an optimistic attempt whose snapshot reads were
// invalidated by conflicting commits; the transaction is rolled back and
// retried with a fresh snapshot (Metrics.ValidationAborts counts these).
var ErrValidation = errors.New("sched: optimistic validation failed")

// readRec is one snapshot read an optimistic attempt must validate at
// commit: where it read, what it read, at which snapshot stamp, and under
// which conflict table. valIdx and eventIdx locate the read's result in
// the attempt's value list and its recorded event in the staged record,
// so a commit-time refresh (refreshReads) can move the read forward
// without re-executing the program.
type readRec struct {
	store    *data.Store
	table    *data.ModeTable
	comp     string
	item     string
	mode     data.Mode
	ts       uint64
	valIdx   int
	eventIdx int
}

// snapKey identifies one snapshot frontier the attempt holds: component
// plus item. Snapshots are per-item (data.Store.StableRead), taken lazily
// at each item's first read and reused by repeated reads of the same item
// — validation then enforces repeatable reads: if the item changed
// conflictingly in between, the earlier read's stamp fails and a refresh
// realigns every read of the item to one fresh frontier.
func snapKey(comp, item string) string { return comp + "\x00" + item }

// wroteItem reports whether the attempt already mutated item at comp — in
// which case a snapshot read would miss the attempt's own uncommitted
// write, and the read must go through the locked path instead (the lock
// is already held by this attempt, so it cannot block).
func (a *attempt) wroteItem(comp string, item string) bool {
	_, ok := a.wset[comp+"\x00"+item]
	return ok
}

func (a *attempt) markWrite(comp string, item string) {
	if a.wset == nil {
		a.wset = make(map[string]struct{}, 4)
	}
	a.wset[comp+"\x00"+item] = struct{}{}
}

// snapshotRead serves one optimistic leaf read from the component store's
// committed prefix at the attempt's snapshot stamp: no semantic lock, no
// store write lock, no blocking on concurrent writers. The read is
// recorded as a normal leaf event (sequenced after the snapshot stamp, so
// recorded conflict order agrees with the values seen once validation
// passes) and remembered for validate-at-commit; the driver stages the
// value and the event next, at the indices remembered here.
func (r *Runtime) snapshotRead(a *attempt, comp *component, op data.Op) (uint64, int64, error) {
	var val int64
	ts, ok := a.snaps[snapKey(comp.name, op.Item)]
	if ok {
		val = comp.store.ReadAt(op.Item, ts)
	} else {
		// Take the snapshot and register it with the checkpoint state as
		// one unit: a concurrent checkpoint cut computes its compaction
		// frontier from registered snapshots, so the stamp must be visible
		// before Compact can run, or the versions this read depends on
		// could be pruned out from under it.
		r.ck.gate.RLock(a.ts)
		val, ts = comp.store.StableRead(op.Item, string(a.root))
		r.ck.noteSnap(a, ts)
		r.ck.gate.RUnlock(a.ts)
		if a.snaps == nil {
			a.snaps = make(map[string]uint64, 4)
		}
		a.snaps[snapKey(comp.name, op.Item)] = ts
	}
	r.leafOps.Add(1)
	a.reads = append(a.reads, readRec{
		store: comp.store, table: comp.modes,
		comp: comp.name, item: op.Item, mode: op.Mode, ts: ts,
		valIdx: len(a.values), eventIdx: len(a.stage.events),
	})
	return r.seq.Add(1), val, nil
}

// setSeal publishes a validation pass's validation point for the root,
// monotonically (a later pass only raises it). Claims made by other
// validators compare their own validation point against this seal.
func (r *Runtime) setSeal(root string, vpoint uint64) {
	r.sealMu.Lock()
	if vpoint > r.sealM[root] {
		r.sealM[root] = vpoint
	}
	r.sealMu.Unlock()
}

func (r *Runtime) sealOf(root string) (uint64, bool) {
	r.sealMu.Lock()
	s, ok := r.sealM[root]
	r.sealMu.Unlock()
	return s, ok
}

func (r *Runtime) clearSeal(root string) {
	r.sealMu.Lock()
	delete(r.sealM, root)
	r.sealMu.Unlock()
}

// Dirty-wait budgets: how long a validating attempt waits for an
// in-flight conflicting writer to resolve before giving up. Waiting out a
// writer's remaining steps is far cheaper than re-executing the whole
// attempt (the wait is event-driven, so a parked validator burns no CPU).
// A *pure reader* — an attempt with no installs of its own — always waits
// generously: nobody can be waiting on it, so it can never be part of a
// wait cycle. A mixed read/write attempt waits generously only when its
// root ID orders strictly before the blocking writer's (wait-die: every
// long-wait edge points up the ID order, so a cycle of long waiters would
// need strictly increasing IDs around a loop — impossible); against a
// smaller-ID writer it keeps a budget sized to cover an ordinary
// writer's commit tail — only a genuine wait cycle (two
// validators parked on each other's installs, which only the ID order
// bounds) burns it fully and falls into a validation abort.
//
// Budgets are per blocking writer and span the whole validate call, not
// one pass: a refresh loop must not re-arm the clock for the same parked
// writer, and waiting a new writer out is progress, not a retry.
const (
	readerDirtyWait = 100 * time.Millisecond
	mixedDirtyWait  = 2 * time.Millisecond
)

// validate is the optimistic commit gate: every snapshot read must still
// be clean and current —
//
//   - no resolved version conflicting with the read's mode (under the
//     component's table) may have been installed after the snapshot stamp
//     (rolled-back operations net out against their linked compensations
//     and don't count unless the pair straddles the snapshot), and
//   - no conflicting version may still be tagged by another root's
//     unresolved attempt (versions are installed eagerly at apply time,
//     so without this rule a snapshot could expose an uncommitted
//     effect — and its owner could conflict with this reader again after
//     the reader commits, a root-level serializability cycle no
//     post-snapshot check can see).
//
// See data.Store.CheckRead for the full verdict rules. A dirty read is
// not aborted immediately: the offending writer resolves within its own
// commit latency, so validation briefly waits and re-checks — most dirty
// snapshots turn out valid (the writer finished without conflicting
// again) and commit without the cost of a re-execution.
//
// The attempt's own installs are excluded: a transaction that reads an
// item and then writes it does not invalidate itself, and its own
// in-flight tags do not make its snapshot dirty.
//
// Soundness note: version stamps, event sequence numbers and retirement
// stamps are all allocated from one global counter (Store.UseClock), and
// each validation pass pins a *validation point* — a stamp allocated
// after every read event of the attempt. A pass succeeds only if each
// read saw exactly the conflicting versions below the validation point
// and each of their writers retired before it (data.Store.CheckRead).
// Then every conflicting writer falls entirely on one side of this
// attempt: a seen writer retired before the point, so all its operations
// carry smaller stamps than the point — each is either inside the
// corresponding read's snapshot (recorded before the read, matching the
// value seen) or between snapshot and point, which the pass rejects as
// stale; an unseen writer's operations all carry stamps above the point,
// hence above every read event (recorded after, matching the read not
// seeing them) — a writer with any operation below the point either
// retired below it (seen case) or is caught by the retired-after-point
// rule. Because every verdict is a comparison of immutable stamps, a
// writer resolving mid-pass cannot invalidate an already-checked read:
// what a later scan could newly observe is, by construction, above the
// validation point.
//
// The exception to "unseen writers sit entirely above the point" is a
// *serialize-before claim*: a pass may pass over an unresolved
// conflicting version installed after the read's recorded event,
// asserting this attempt serializes before that writer. Claims are made
// sound by seal order. Define seal(T) as the validation point of T's
// passing pass (for a root with no snapshot reads: its retirement
// stamp). Every pass registers its validation point as the root's
// tentative seal *before* checking anything (setSeal; the final seal is
// the largest), and a claim against W is granted only if W's registered
// seal is absent or above the claimant's validation point — absent means
// W has not begun validating, so W's eventual seal is allocated later
// and is necessarily larger; a root with no reads never registers, and
// its retirement stamp is allocated after any check that still observed
// its versions unresolved (Store.Retire stamps inside the store lock the
// check read under). Then every edge of the committed conflict graph
// strictly increases seal: a seen effect's writer retired (hence sealed)
// below the seeing pass's point; a claimed-past writer seals above the
// claimant's point; and conflicting installs are serialized by semantic
// locks that release only after retirement, so an install-ordered
// successor seals above its predecessor's retirement. A cycle would need
// seal(T) < seal(T) — impossible. The claim race two concurrent
// validators could otherwise exploit (each claiming past the other's
// install) resolves by seal order: only the pass with the smaller
// validation point may claim past the other.
func (r *Runtime) validate(a *attempt) error {
	if len(a.reads) == 0 || r.skipValidation {
		return nil
	}
	var mine map[*data.Store]map[uint64]bool
	for _, u := range a.undo {
		if u.res.TS == 0 {
			continue
		}
		if mine == nil {
			mine = make(map[*data.Store]map[uint64]bool, 2)
		}
		m := mine[u.comp.store]
		if m == nil {
			m = make(map[uint64]bool, 4)
			mine[u.comp.store] = m
		}
		m[u.res.TS] = true
	}
	self := string(a.root)
	var deadline time.Time
	lastBlocker := ""
	for pass := 0; ; pass++ {
		vpoint := r.seq.Add(1)
		r.setSeal(self, vpoint)
		bad := r.checkReads(a, mine, self, vpoint, &deadline, &lastBlocker)
		if bad == nil {
			return nil
		}
		if pass >= r.RefreshRetries {
			return fmt.Errorf("sched: snapshot read of %s/%s (mode %s) at stamp %d invalidated by a conflicting or in-flight writer: %w",
				bad.comp, bad.item, bad.mode, bad.ts, ErrValidation)
		}
		r.refreshReads(a)
		r.valRefreshes.Add(1)
	}
}

// checkReads verifies every snapshot read at its current stamp against
// the pass's validation point, waiting out dirty (in-flight) writers up
// to dirtyWait across the whole pass. Returns the first read that stays
// invalid, or nil.
func (r *Runtime) checkReads(a *attempt, mine map[*data.Store]map[uint64]bool, self string, vpoint uint64, deadline *time.Time, lastBlocker *string) *readRec {
	pure := len(a.undo) == 0
	claim := func(owner string) bool {
		s, ok := r.sealOf(owner)
		return !ok || s > vpoint
	}
	for i := range a.reads {
		rd := &a.reads[i]
		readSeq := a.stage.events[rd.eventIdx].seq
		for {
			v, blocker := rd.store.CheckRead(rd.item, rd.ts, vpoint, readSeq, rd.mode, rd.table, mine[rd.store], self, claim)
			if v == data.ReadValid {
				break
			}
			if v == data.ReadDirty {
				if deadline.IsZero() || blocker != *lastBlocker {
					// Each distinct blocking writer gets its own wait
					// window, oriented wait-die (see budget comment).
					budget := mixedDirtyWait
					if pure || self < blocker {
						budget = readerDirtyWait
					}
					*deadline = time.Now().Add(budget)
					*lastBlocker = blocker
				}
				if remain := time.Until(*deadline); remain > 0 {
					// Park until some attempt resolves (or the budget
					// runs out). Re-check after obtaining the channel so
					// a resolution between the check above and the wait
					// is not lost.
					ch := rd.store.ResolveWait()
					if v2, _ := rd.store.CheckRead(rd.item, rd.ts, vpoint, readSeq, rd.mode, rd.table, mine[rd.store], self, claim); v2 != data.ReadDirty {
						continue
					}
					t := time.NewTimer(remain)
					select {
					case <-ch:
					case <-t.C:
					}
					t.Stop()
					continue
				}
			}
			return rd
		}
	}
	return nil
}

// refreshReads moves every snapshot read forward to its item's current
// stable frontier: the values are re-read at the new stamps and the
// reads' recorded events are re-sequenced, in program order, from the
// shared clock — so the recorded conflict order still matches what the
// refreshed reads saw. The re-sequenced events now carry the attempt's
// newest seqs, so they move behind the stage's other events, keeping the
// stage in seq order and each readRec pointing at its event. Reads have
// no side effects and no later program step depends on a read value
// mid-flight (programs are static operation lists), so this re-serializes
// the attempt's reads at commit time for the cost of a few chain lookups
// instead of a full re-execution. The TicToc-style timestamp
// extension: only when refreshing keeps failing
// (RefreshRetries passes, e.g. a writer parked on a hot item) does the
// attempt pay the full validation abort.
func (r *Runtime) refreshReads(a *attempt) {
	self := string(a.root)
	fresh := make(map[string]uint64, len(a.snaps))
	for i := range a.reads {
		rd := &a.reads[i]
		key := snapKey(rd.comp, rd.item)
		ts, ok := fresh[key]
		if ok {
			a.values[rd.valIdx] = rd.store.ReadAt(rd.item, ts)
		} else {
			var val int64
			val, ts = rd.store.StableRead(rd.item, self)
			fresh[key] = ts
			a.values[rd.valIdx] = val
		}
		rd.ts = ts
		a.stage.events[rd.eventIdx].seq = r.seq.Add(1)
	}
	for k, ts := range fresh {
		a.snaps[k] = ts
	}
	evs := a.stage.events
	moved := make([]event, len(a.reads))
	n, k := 0, 0
	for i := range evs {
		if k < len(a.reads) && a.reads[k].eventIdx == i {
			moved[k] = evs[i]
			k++
			continue
		}
		evs[n] = evs[i]
		n++
	}
	for i := range a.reads {
		a.reads[i].eventIdx = n + i
		evs[n+i] = moved[i]
	}
}
