package data

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// compactCopying is Compact as it was before chains were compacted in
// place: each compacted chain's survivors are copied into an exact-size
// slice. It is the reference TestCompactInPlaceMatchesCopying holds the
// in-place shift to.
func compactCopying(s *Store, keepFrom uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for item := range s.dirty {
		chain := s.chains[item]
		cut := 0
		for cut < len(chain) {
			v := chain[cut]
			if v.ts >= keepFrom || v.retired == 0 || v.retired >= keepFrom {
				break
			}
			cut++
		}
		cut--
		if cut > 0 {
			chain = append([]version(nil), chain[cut:]...)
			s.chains[item] = chain
			dropped += cut
		}
		if len(chain) == 1 && chain[0].retired != 0 {
			delete(s.dirty, item)
		}
	}
	return dropped
}

// sameChains reports the first item whose chain (every version field) or
// version count differs between the two stores, or "".
func sameChains(a, b *Store) string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(a.chains) != len(b.chains) {
		return fmt.Sprintf("%d items against %d", len(a.chains), len(b.chains))
	}
	for item, ca := range a.chains {
		if cb := b.chains[item]; !reflect.DeepEqual(ca, cb) {
			return fmt.Sprintf("%s: %+v against %+v", item, ca, cb)
		}
	}
	if !reflect.DeepEqual(a.dirty, b.dirty) {
		return fmt.Sprintf("marks %v against %v", a.dirty, b.dirty)
	}
	return ""
}

// TestCompactInPlaceMatchesCopying is the model-based test of in-place
// compaction: two stores take the same seeded traffic — owned applies,
// compensations, retirements, ownerless applies and setup writes — and
// compactions at random horizons, one store through Compact and the other
// through the copying reference. After every step both hold the same
// chains (ts, val, mode, owner, retired, pair, undone), the same marks
// and the same VersionCount, and each compaction drops the same number.
// Appends after an in-place compaction land in the shifted chain's own
// backing array, so a shift that left a stale tail or aliased a neighbour
// would show up as a diverging chain here.
func TestCompactInPlaceMatchesCopying(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inPlace, copying := NewStore(), NewStore()
		both := func(fn func(s *Store)) { fn(inPlace); fn(copying) }
		items := make([]string, 12)
		for i := range items {
			items[i] = fmt.Sprintf("k%02d", i)
			both(func(s *Store) { s.Set(items[i], 100) })
		}
		type applied struct {
			op  Op
			res Result
		}
		live := map[string][]applied{} // owner -> its unretired applies
		var owners []string
		for step := 0; step < 800; step++ {
			switch k := rng.Intn(12); {
			case k < 5: // an owned mutation
				owner := fmt.Sprintf("T%d", rng.Intn(6))
				if _, ok := live[owner]; !ok {
					owners = append(owners, owner)
				}
				op := Op{Mode: ModeIncr, Item: items[rng.Intn(len(items))], Arg: int64(rng.Intn(9) - 4)}
				if rng.Intn(4) == 0 {
					op = Op{Mode: ModeWrite, Item: op.Item, Arg: int64(rng.Intn(1000))}
				}
				var res Result
				both(func(s *Store) {
					r, err := s.ApplyAs(op, owner)
					if err != nil {
						t.Fatal(err)
					}
					res = r
				})
				live[owner] = append(live[owner], applied{op, res})
			case k < 7 && len(owners) > 0: // an attempt resolves, sometimes rolled back first
				i := rng.Intn(len(owners))
				owner := owners[i]
				if rng.Intn(3) == 0 {
					for j := len(live[owner]) - 1; j >= 0; j-- {
						a := live[owner][j]
						inv, _ := Inverse(a.op, a.res)
						both(func(s *Store) {
							if _, err := s.ApplyUndo(inv, owner, a.res.TS); err != nil {
								t.Fatal(err)
							}
						})
					}
				}
				both(func(s *Store) { s.Retire(owner) })
				delete(live, owner)
				owners = append(owners[:i], owners[i+1:]...)
			case k < 8:
				op := Op{Mode: ModeIncr, Item: items[rng.Intn(len(items))], Arg: 1}
				both(func(s *Store) {
					if _, err := s.Apply(op); err != nil {
						t.Fatal(err)
					}
				})
			case k < 9:
				item, v := items[rng.Intn(len(items))], int64(rng.Intn(1000))
				both(func(s *Store) { s.Set(item, v) })
			default:
				keepFrom := uint64(rng.Int63n(int64(quiescent(inPlace)) + 1))
				if got, want := inPlace.Compact(keepFrom), compactCopying(copying, keepFrom); got != want {
					t.Fatalf("seed %d step %d: Compact(%d) dropped %d versions, the copying compaction %d", seed, step, keepFrom, got, want)
				}
			}
			if diff := sameChains(inPlace, copying); diff != "" {
				t.Fatalf("seed %d step %d: in-place and copying stores diverged: %s", seed, step, diff)
			}
			for _, item := range items {
				if a, b := inPlace.VersionCount(item), copying.VersionCount(item); a != b {
					t.Fatalf("seed %d step %d: VersionCount(%s) = %d in place, %d copying", seed, step, item, a, b)
				}
			}
		}
	}
}

// TestCompactKeepsCapacity: a compacted chain keeps its backing array, so
// the appends that refill it up to its old length allocate nothing.
func TestCompactKeepsCapacity(t *testing.T) {
	s := NewStore()
	for i := 0; i < 8; i++ {
		s.Set("a", int64(i))
	}
	if dropped := s.Compact(quiescent(s)); dropped != 7 {
		t.Fatalf("Compact dropped %d versions, want 7", dropped)
	}
	// Seven appends, back up to the eight versions the array already held.
	incr := Op{Mode: ModeIncr, Item: "a", Arg: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 7; i++ {
		if _, err := s.Apply(incr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("7 appends into a compacted chain made %d allocations, want 0", n)
	}
	if got := s.Get("a"); got != 7+7 {
		t.Fatalf("a = %d, want 14", got)
	}
}

// TestResolveWaitOnlyWhenWaited pins the resolve channel's life: a waiter
// that took the channel before a Retire is woken by it, a waiter that
// takes it after is woken by the next one, and Retires nobody waits on
// make no channel at all.
func TestResolveWaitOnlyWhenWaited(t *testing.T) {
	s := NewStore()
	install := func(owner string) {
		if _, err := s.ApplyAs(Op{Mode: ModeIncr, Item: "a", Arg: 1}, owner); err != nil {
			t.Fatal(err)
		}
	}
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}

	install("T1")
	ch := s.ResolveWait()
	if closed(ch) {
		t.Fatal("resolve channel closed before any Retire")
	}
	s.Retire("T1")
	if !closed(ch) {
		t.Fatal("a waiter obtained before Retire was not woken by it")
	}

	install("T2")
	ch = s.ResolveWait()
	if closed(ch) {
		t.Fatal("a channel taken after the last Retire is already closed")
	}
	s.Retire("T2")
	if !closed(ch) {
		t.Fatal("a waiter obtained after a Retire was not woken by the next one")
	}

	const owners = 8
	for i := 0; i < owners; i++ {
		install(fmt.Sprintf("U%d", i))
	}
	names := make([]string, owners)
	for i := range names {
		names[i] = fmt.Sprintf("U%d", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, owner := range names {
		s.Retire(owner)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("%d Retires with no waiter made %d allocations, want 0", owners, n)
	}
}

// TestRetireRecyclesTagLists: once warm, ApplyAs and Retire over owner
// names the store has never seen, two owners in flight at a time, make
// no allocation: a list Retire empties serves the next owner's first
// install. Four owners in flight at the start leave more spares than a
// round takes, so an owner's later installs must keep its own list. A
// recycled list carries nothing of its last owner, and an owner in flight
// throughout keeps its version tagged through every other owner's Retire.
func TestRetireRecyclesTagLists(t *testing.T) {
	s := NewStore()
	items := []string{"a", "b", "c", "d"}
	if _, err := s.ApplyAs(Op{Mode: ModeWrite, Item: "held", Arg: 7}, "H"); err != nil {
		t.Fatal(err)
	}
	for _, owner := range []string{"F1", "F2", "F3", "F4"} {
		if _, err := s.ApplyAs(Op{Mode: ModeIncr, Item: "a", Arg: 0}, owner); err != nil {
			t.Fatal(err)
		}
	}
	for _, owner := range []string{"F1", "F2", "F3", "F4"} {
		s.Retire(owner)
	}
	const warm, rounds = 8, 64
	names := make([]string, 2*rounds)
	for i := range names {
		names[i] = fmt.Sprintf("R%d", i)
	}
	round := func(r int) {
		a, b := names[2*r], names[2*r+1]
		for _, item := range items {
			for _, owner := range [2]string{a, b} {
				if _, err := s.ApplyAs(Op{Mode: ModeIncr, Item: item, Arg: 1}, owner); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Retire(a)
		s.Retire(b)
		s.Compact(s.Clock() + 1)
	}
	for r := 0; r < warm; r++ {
		round(r)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := warm; r < rounds; r++ {
		round(r)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d warm rounds of ApplyAs and Retire made %d allocations, want 0", rounds-warm, n)
	}

	for _, item := range items {
		if got := s.Get(item); got != 2*rounds {
			t.Errorf("%s = %d, want %d", item, got, 2*rounds)
		}
		if _, frontier := s.StableRead(item, ""); frontier != s.Clock() {
			t.Errorf("%s: stable frontier %d below the clock %d after every owner retired", item, frontier, s.Clock())
		}
	}
	if v, _ := s.StableRead("held", ""); v != 0 {
		t.Fatalf("H's in-flight write reads as stable (%d) after the other owners retired", v)
	}
	s.Retire("H")
	if v, frontier := s.StableRead("held", ""); v != 7 || frontier != s.Clock() {
		t.Fatalf("after H retired: held = %d at frontier %d, want 7 at %d", v, frontier, s.Clock())
	}
}
