package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compositetx/internal/data"
)

func TestLockSharedGrants(t *testing.T) {
	lm := newLockManager()
	sem := data.SemanticTable()
	if err := lm.acquire(sem, "x", data.ModeIncr, "a", 1, WaitDie, nil); err != nil {
		t.Fatal(err)
	}
	// Another increment by a different owner is compatible.
	if err := lm.acquire(sem, "x", data.ModeIncr, "b", 2, WaitDie, nil); err != nil {
		t.Fatal(err)
	}
	// Reads on another item are independent.
	if err := lm.acquire(sem, "y", data.ModeRead, "c", 3, WaitDie, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockWaitDieYoungerDies(t *testing.T) {
	lm := newLockManager()
	sem := data.SemanticTable()
	if err := lm.acquire(sem, "x", data.ModeWrite, "old", 1, WaitDie, nil); err != nil {
		t.Fatal(err)
	}
	// A younger conflicting request must die, not block.
	err := lm.acquire(sem, "x", data.ModeWrite, "young", 2, WaitDie, nil)
	if !errors.Is(err, ErrDie) {
		t.Fatalf("err = %v, want ErrDie", err)
	}
}

func TestLockWaitDieOlderWaits(t *testing.T) {
	lm := newLockManager()
	sem := data.SemanticTable()
	if err := lm.acquire(sem, "x", data.ModeWrite, "young", 5, WaitDie, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Older conflicting request: waits until release, then succeeds.
		done <- lm.acquire(sem, "x", data.ModeWrite, "old", 1, WaitDie, nil)
	}()
	select {
	case err := <-done:
		t.Fatalf("older request returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	lm.release("young", "x")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("older request failed after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("older request not woken by release")
	}
	if got := lm.waitCount(); got != 1 {
		t.Fatalf("waitCount = %d, want 1", got)
	}
}

func TestLockReentrantSameOwner(t *testing.T) {
	lm := newLockManager()
	sem := data.SemanticTable()
	if err := lm.acquire(sem, "x", data.ModeWrite, "a", 1, WaitDie, nil); err != nil {
		t.Fatal(err)
	}
	// Same owner re-acquiring a conflicting mode must not self-deadlock.
	if err := lm.acquire(sem, "x", data.ModeRead, "a", 1, WaitDie, nil); err != nil {
		t.Fatal(err)
	}
	// Same root (equal timestamp), different level owner: also compatible.
	if err := lm.acquire(sem, "x", data.ModeWrite, "a/1", 1, WaitDie, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLockReleaseByOwner(t *testing.T) {
	lm := newLockManager()
	sem := data.SemanticTable()
	_ = lm.acquire(sem, "x", data.ModeWrite, "a", 1, WaitDie, nil)
	_ = lm.acquire(sem, "y", data.ModeWrite, "a", 1, WaitDie, nil)
	_ = lm.acquire(sem, "z", data.ModeWrite, "b", 2, WaitDie, nil)
	if !heldBy(lm, "a") || !heldBy(lm, "b") {
		t.Fatal("locks missing")
	}
	lm.release("a", "x")
	lm.release("a", "y")
	if heldBy(lm, "a") {
		t.Fatal("releasing a's items left locks behind")
	}
	if !heldBy(lm, "b") {
		t.Fatal("releasing a's items dropped b's lock")
	}
}

// BenchmarkLockManagerDisjoint hammers the manager from parallel
// goroutines on goroutine-private items: no semantic conflicts, so the
// measured cost is pure table contention — the case hash-striped shards
// exist for.
func BenchmarkLockManagerDisjoint(b *testing.B) {
	lm := newLockManager()
	sem := data.SemanticTable()
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		id := ctr.Add(1)
		item := fmt.Sprintf("item-%d", id)
		owner := fmt.Sprintf("tx-%d", id)
		for pb.Next() {
			if err := lm.acquire(sem, item, data.ModeIncr, owner, id, WaitDie, nil); err != nil {
				b.Fatal(err)
			}
			lm.release(owner, item)
		}
	})
}

// BenchmarkLockManagerSharedPool spreads parallel compatible acquisitions
// over a small shared item pool (increments commute, so nothing ever
// waits): table contention with realistic item reuse.
func BenchmarkLockManagerSharedPool(b *testing.B) {
	lm := newLockManager()
	sem := data.SemanticTable()
	items := make([]string, 32)
	for i := range items {
		items[i] = fmt.Sprintf("acct-%d", i)
	}
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		id := ctr.Add(1)
		owner := fmt.Sprintf("tx-%d", id)
		i := int(id)
		for pb.Next() {
			item := items[i%len(items)]
			i++
			if err := lm.acquire(sem, item, data.ModeIncr, owner, id, WaitDie, nil); err != nil {
				b.Fatal(err)
			}
			lm.release(owner, item)
		}
	})
}

func TestLockManyConcurrentOwners(t *testing.T) {
	lm := newLockManager()
	rw := data.RWTable()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(ts uint64) {
			defer wg.Done()
			owner := string(rune('A' + ts))
			for {
				err := lm.acquire(rw, "hot", data.ModeWrite, owner, ts, WaitDie, nil)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrDie) {
					errCh <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(100 * time.Microsecond)
			lm.release(owner, "hot")
		}(uint64(i + 1))
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// heldBy reports whether owner holds any lock in lm.
func heldBy(lm *lockManager, owner string) bool {
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.mu.Lock()
		for _, entries := range sh.items {
			for _, e := range entries {
				if e.owner == owner {
					sh.mu.Unlock()
					return true
				}
			}
		}
		sh.mu.Unlock()
	}
	return false
}

// refLock is one entry of TestLockModel's reference: a flat list of every
// granted lock.
type refLock struct {
	item, owner string
	mode        data.Mode
	ts          uint64
}

// TestLockModel drives a lockManager and a flat reference list with the
// same seeded requests under wait-die: grants, ErrDie, an owner re-locking
// an item it holds, two owners of one root (same timestamp, never in
// conflict), several owners on one item, and releases by the items each
// owner recorded — one item at a time, or everything an owner holds.
// A request the reference says would wait is skipped. After every step
// each item's entries equal the reference's, and no stripe keeps more
// lists, held and recycled, than it ever held items at once; after the
// final release the table is empty.
func TestLockModel(t *testing.T) {
	sem := data.SemanticTable()
	modes := []data.Mode{data.ModeRead, data.ModeWrite, data.ModeIncr}
	items := []string{"a", "b", "c", "d", "e", "f", "g"}
	type owner struct {
		name string
		ts   uint64
	}
	// o1 and o1/2 are two levels of one root: they share its timestamp.
	owners := []owner{{"o1", 1}, {"o1/2", 1}, {"o2", 2}, {"o3", 3}, {"o4", 4}, {"o5", 5}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lm := newLockManager()
		var ref []refLock
		held := map[string][]string{} // owner -> items, one per grant
		peak := make([]int, lockShardCount)
		var grants, dies, relocks, shared, skipped int

		drop := func(o, item string) {
			lm.release(o, item)
			ref = slices.DeleteFunc(ref, func(l refLock) bool { return l.owner == o && l.item == item })
		}
		check := func(step int) {
			t.Helper()
			for i := range lm.shards {
				sh := &lm.shards[i]
				keys := map[string]bool{}
				for _, l := range ref {
					if lm.shardOf(l.item) == sh {
						keys[l.item] = true
					}
				}
				peak[i] = max(peak[i], len(keys))
				sh.mu.Lock()
				if len(sh.items) != len(keys) {
					t.Fatalf("seed %d step %d: stripe %d holds %d items, reference %d", seed, step, i, len(sh.items), len(keys))
				}
				for item, entries := range sh.items {
					var want []refLock
					for _, l := range ref {
						if l.item == item {
							want = append(want, l)
						}
					}
					var got []refLock
					for _, e := range entries {
						got = append(got, refLock{item, e.owner, e.mode, e.ts})
					}
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d: %s holds %v, reference %v", seed, step, item, got, want)
					}
				}
				if n := len(sh.items) + len(sh.free); n > peak[i] {
					t.Fatalf("seed %d step %d: stripe %d keeps %d lists, but never held more than %d items at once", seed, step, i, n, peak[i])
				}
				sh.mu.Unlock()
			}
		}
		for step := 0; step < 400; step++ {
			o := owners[rng.Intn(len(owners))]
			switch k := rng.Intn(10); {
			case k < 6: // acquire
				item, mode := items[rng.Intn(len(items))], modes[rng.Intn(len(modes))]
				die, wait, again, others := false, false, false, false
				for _, l := range ref {
					if l.item != item {
						continue
					}
					if l.owner == o.name {
						again = true
						continue
					}
					others = true
					if l.ts == o.ts || !sem.ModeConflicts(l.mode, mode) {
						continue
					}
					if l.ts < o.ts {
						die = true
					} else {
						wait = true
					}
				}
				if !die && wait {
					skipped++
					continue
				}
				err := lm.acquire(sem, item, mode, o.name, o.ts, WaitDie, nil)
				if die {
					if !errors.Is(err, ErrDie) {
						t.Fatalf("seed %d step %d: %s %s on %s: err = %v, reference says ErrDie", seed, step, o.name, mode, item, err)
					}
					dies++
					break
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %s %s on %s: %v, reference grants", seed, step, o.name, mode, item, err)
				}
				ref = append(ref, refLock{item, o.name, mode, o.ts})
				held[o.name] = append(held[o.name], item)
				grants++
				if again {
					relocks++
				}
				if others {
					shared++
				}
			case k < 8: // release one recorded item
				if hs := held[o.name]; len(hs) > 0 {
					i := rng.Intn(len(hs))
					drop(o.name, hs[i])
					held[o.name] = slices.Delete(hs, i, i+1)
				}
			default: // release everything the owner recorded
				for _, item := range held[o.name] {
					drop(o.name, item)
				}
				delete(held, o.name)
			}
			check(step)
		}
		for _, o := range owners {
			for _, item := range held[o.name] {
				drop(o.name, item)
			}
		}
		check(-1)
		if len(ref) != 0 {
			t.Fatalf("seed %d: reference keeps %v after the full release", seed, ref)
		}
		if grants == 0 || dies == 0 || relocks == 0 || shared == 0 || skipped == 0 {
			t.Fatalf("seed %d covers too little: %d grants, %d dies, %d re-locks, %d shared grants, %d waits skipped",
				seed, grants, dies, relocks, shared, skipped)
		}
	}
}
