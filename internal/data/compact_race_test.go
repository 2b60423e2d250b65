package data

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCompactConcurrentStableReads is the compaction safety property test
// (run with -race): while writers append and retire versions and a
// compactor repeatedly prunes chains at the registered-snapshot frontier,
// every value a reader pinned with StableRead must keep reading back
// identically at its stamp — compaction may only drop history nobody can
// still address.
//
// The test mirrors the runtime's discipline (sched's checkpoint cut): a
// reader takes its snapshot and registers its stamp under the read side
// of a gate; the compactor computes the frontier and compacts under the
// write side, so it never misses an in-flight registration.
func TestCompactConcurrentStableReads(t *testing.T) {
	const (
		writers = 4
		readers = 4
		rounds  = 200
		rereads = 25
	)
	s := NewStore()
	s.Set("a", 1000)

	var (
		gate     sync.RWMutex
		regMu    sync.Mutex
		regs     = map[int]uint64{}
		regSeq   int
		dropped  atomic.Int64
		done     atomic.Bool
		wg       sync.WaitGroup
		failures atomic.Int64
	)
	register := func(ts uint64) int {
		regMu.Lock()
		defer regMu.Unlock()
		regSeq++
		regs[regSeq] = ts
		return regSeq
	}
	deregister := func(id int) {
		regMu.Lock()
		delete(regs, id)
		regMu.Unlock()
	}
	frontier := func() uint64 {
		f := s.Clock() + 1
		regMu.Lock()
		for _, ts := range regs {
			if ts < f {
				f = ts
			}
		}
		regMu.Unlock()
		return f
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				owner := fmt.Sprintf("W%d-%d", w, i)
				if _, err := s.ApplyAs(Op{Mode: ModeIncr, Item: "a", Arg: 1}, owner); err != nil {
					t.Error(err)
					return
				}
				s.Retire(owner)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				gate.RLock()
				val, ts := s.StableRead("a", fmt.Sprintf("R%d", r))
				id := register(ts)
				gate.RUnlock()
				for k := 0; k < rereads; k++ {
					if got := s.ReadAt("a", ts); got != val {
						failures.Add(1)
						t.Errorf("pinned read at stamp %d moved: %d -> %d", ts, val, got)
						deregister(id)
						return
					}
				}
				deregister(id)
			}
		}(r)
	}
	// The compactor races the workers for their whole lifetime, then makes
	// one final pass after they are done — by then every writer round has
	// retired a version, so a zero total means compaction is broken, not
	// that the loop lost the scheduling race.
	//
	// Each pass is also checked against the full walk over every chain
	// (fullWalkDrops, dirty_test.go): what is droppable below a frontier
	// already taken cannot change under the racing writers, so the
	// dirty-set walk must drop exactly that many versions.
	compDone := make(chan struct{})
	compact := func() {
		gate.Lock()
		defer gate.Unlock()
		f := frontier()
		want := fullWalkDrops(s, f)["a"]
		got := s.Compact(f)
		if got != want {
			t.Errorf("Compact(%d) dropped %d versions, the full walk %d", f, got, want)
		}
		dropped.Add(int64(got))
	}
	go func() {
		defer close(compDone)
		for !done.Load() {
			compact()
		}
		compact()
	}()

	wg.Wait()
	done.Store(true)
	<-compDone

	if failures.Load() > 0 {
		t.Fatalf("%d pinned reads changed under compaction", failures.Load())
	}
	if got, want := s.Get("a"), int64(1000+writers*rounds); got != want {
		t.Fatalf("final value = %d, want %d", got, want)
	}
	if dropped.Load() == 0 {
		t.Fatal("the compactor never dropped a version — the race was not exercised")
	}
	// One final compaction with nothing registered collapses the chain.
	if s.Compact(s.Clock() + 1); s.VersionCount("a") > 2 {
		t.Fatalf("quiescent compaction left %d versions", s.VersionCount("a"))
	}
}
