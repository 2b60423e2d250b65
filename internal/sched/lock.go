package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"compositetx/internal/data"
)

// ErrDie is returned by acquire when the wait-die policy sacrifices the
// requesting transaction: it must roll back and retry with its original
// timestamp.
var ErrDie = errors.New("sched: transaction sacrificed by wait-die")

// lockShardCount is the number of hash stripes per manager. Sixteen keeps
// the fixed footprint tiny (a manager exists per component) while giving
// parallel acquisitions on distinct items independent mutexes.
const lockShardCount = 16

// lockManager is a semantic lock manager: lock modes are operation modes
// and compatibility is the component's commutativity table. Deadlocks are
// prevented with the wait-die policy keyed on root-transaction timestamps;
// a transaction that keeps its timestamp across retries eventually becomes
// the oldest and succeeds.
//
// The item table is hash-striped: every item maps to one of
// lockShardCount shards, each with its own mutex and condition variable,
// so concurrent acquisitions on distinct items contend only on their
// stripe instead of one manager-wide mutex. Every operation is item-wise
// and touches one shard: the caller keeps what it acquired (lockRef) and
// releases exactly those items, so a release costs the locks the owner
// took, not the size of the table.
type lockManager struct {
	shards [lockShardCount]lockShard

	// crashed, when set by the runtime, is its crash flag: a simulated
	// process crash (FaultCrash) abandons locks without releasing them,
	// so waiters must drain with ErrCrashed instead of blocking on locks
	// nobody will ever release. Nil for standalone managers (tests).
	crashed *atomic.Bool
}

// lockShard is one stripe of the item table. An item is in items while
// someone holds it; the list of an item released by its last holder goes
// to free and serves the next item the stripe grants, so an uncontended
// acquire allocates nothing and the stripe keeps at most as many lists as
// it ever held items at once.
type lockShard struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items map[string][]lockEntry
	free  [][]lockEntry
	waits int64 // number of times a request had to wait (metrics)
}

type lockEntry struct {
	mode  data.Mode
	owner string // release key: subtransaction or root-attempt node ID
	ts    uint64 // root transaction timestamp (wait-die)
}

// lockRef is one granted acquisition as its holder keeps it: what
// release needs to find the entry again.
type lockRef struct {
	lm    *lockManager
	owner string
	item  string
}

func newLockManager() *lockManager {
	lm := &lockManager{}
	for i := range lm.shards {
		s := &lm.shards[i]
		s.items = make(map[string][]lockEntry)
		s.cond = sync.NewCond(&s.mu)
	}
	return lm
}

// shardOf maps an item to its stripe (inline FNV-1a; allocation-free).
func (lm *lockManager) shardOf(item string) *lockShard {
	h := uint32(2166136261)
	for i := 0; i < len(item); i++ {
		h ^= uint32(item[i])
		h *= 16777619
	}
	return &lm.shards[h%lockShardCount]
}

// acquire blocks until the lock (item, mode) is granted to owner, or
// returns ErrDie when the deadlock policy decides the requester (root
// timestamp ts) must abort. Entries held by the same root never conflict
// with the request (lock inheritance within a transaction is modelled by
// the shared timestamp).
//
// Under WaitDie the requester dies iff some conflicting holder belongs to
// an older root; wg may be nil. Under DetectWFG the requester registers
// its waits in the runtime-global graph and dies iff that closes a cycle.
func (lm *lockManager) acquire(table *data.ModeTable, item string, mode data.Mode, owner string, ts uint64, pol DeadlockPolicy, wg *waitGraph) error {
	return lm.acquireUntil(table, item, mode, owner, ts, pol, wg, time.Time{})
}

// acquireUntil is acquire with a deadline: a request still waiting when
// the deadline passes returns ErrTimeout instead of blocking forever. A
// zero deadline waits indefinitely. The deadline timer broadcasts on the
// item's shard so sleeping waiters re-check promptly.
func (lm *lockManager) acquireUntil(table *data.ModeTable, item string, mode data.Mode, owner string, ts uint64, pol DeadlockPolicy, wg *waitGraph, deadline time.Time) error {
	sh := lm.shardOf(item)
	var timer *time.Timer
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if d <= 0 {
			return ErrTimeout
		}
		timer = time.AfterFunc(d, func() {
			sh.mu.Lock()
			sh.cond.Broadcast()
			sh.mu.Unlock()
		})
		defer timer.Stop()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	waited := false
	for {
		if lm.crashed != nil && lm.crashed.Load() {
			return ErrCrashed
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return ErrTimeout
		}
		entries := sh.items[item]
		var holders []uint64
		die := false
		for _, e := range entries {
			if e.owner == owner || e.ts == ts {
				continue // same transaction (possibly a different level)
			}
			if table.ModeConflicts(e.mode, mode) {
				if pol == WaitDie && e.ts < ts {
					die = true // a conflicting holder is older
					break
				}
				holders = append(holders, e.ts)
			}
		}
		if die {
			return ErrDie
		}
		if len(holders) == 0 {
			if pol == DetectWFG && wg != nil {
				wg.clear(ts)
			}
			if len(entries) == 0 && len(sh.free) > 0 {
				entries = sh.free[len(sh.free)-1]
				sh.free = sh.free[:len(sh.free)-1]
			}
			sh.items[item] = append(entries, lockEntry{mode: mode, owner: owner, ts: ts})
			return nil
		}
		if pol == DetectWFG && wg != nil && wg.setWaits(ts, holders) {
			return ErrDie // this wait would close a deadlock cycle
		}
		if !waited {
			sh.waits++
			waited = true
		}
		sh.cond.Wait()
	}
}

// release drops owner's entries on item and wakes the item's waiters.
// An owner that locked the item more than once loses every entry at the
// first call; a later one finds none and changes nothing.
func (lm *lockManager) release(owner, item string) {
	sh := lm.shardOf(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	entries := sh.items[item]
	kept := entries[:0]
	for _, e := range entries {
		if e.owner != owner {
			kept = append(kept, e)
		}
	}
	if len(kept) == len(entries) {
		return
	}
	clear(entries[len(kept):]) // the recycled tail pins no owner string
	if len(kept) == 0 {
		delete(sh.items, item)
		sh.free = append(sh.free, kept)
	} else {
		sh.items[item] = kept
	}
	sh.cond.Broadcast()
}

// wake broadcasts on every shard without changing lock state, so sleeping
// waiters re-check the crash flag.
func (lm *lockManager) wake() {
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// waitCount returns how many requests had to wait.
func (lm *lockManager) waitCount() int64 {
	var n int64
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		n += sh.waits
		sh.mu.Unlock()
	}
	return n
}
