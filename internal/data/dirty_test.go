package data

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// fullWalkDrops is the compaction loop as it was before the dirty set:
// every chain of the store is walked and the droppable prefix counted
// (all but its newest version). It mutates nothing. A stamp below a
// keepFrom already taken is never handed out again, so what it counts
// for that keepFrom does not change while writers keep appending and
// retiring.
func fullWalkDrops(s *Store, keepFrom uint64) map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	plan := map[string]int{}
	for item, chain := range s.chains {
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
			plan[item] = cut
		}
	}
	return plan
}

func versionCounts(s *Store) map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int, len(s.chains))
	for item, chain := range s.chains {
		out[item] = len(chain)
	}
	return out
}

// quiescent is a horizon above every stamp handed out so far, retirement
// stamps included (Clock only tracks version stamps).
func quiescent(s *Store) uint64 { return s.stamps.Load() + 1 }

func isDirty(s *Store, item string) bool {
	_, ok := s.DirtySnapshot()[item]
	return ok
}

// TestCompactDirtyMatchesFullWalk is the differential test: on seeded
// traffic of owned applies, retirements, compensations and setup writes,
// with compactions at random horizons in between, Compact over the dirty
// set drops from every chain exactly what the full walk would have.
func TestCompactDirtyMatchesFullWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		items := make([]string, 24)
		for i := range items {
			items[i] = fmt.Sprintf("k%02d", i)
			s.Set(items[i], 100)
		}
		type applied struct {
			op  Op
			res Result
		}
		live := map[string][]applied{} // owner -> its unretired applies
		var owners []string
		for step := 0; step < 600; step++ {
			switch k := rng.Intn(10); {
			case k < 5: // an owned mutation
				owner := fmt.Sprintf("T%d", rng.Intn(6))
				if _, ok := live[owner]; !ok {
					owners = append(owners, owner)
				}
				op := Op{Mode: ModeIncr, Item: items[rng.Intn(len(items)/2)], Arg: int64(rng.Intn(9) - 4)}
				res, err := s.ApplyAs(op, owner)
				if err != nil {
					t.Fatal(err)
				}
				live[owner] = append(live[owner], applied{op, res})
			case k < 7 && len(owners) > 0: // an attempt resolves, sometimes rolled back first
				i := rng.Intn(len(owners))
				owner := owners[i]
				if rng.Intn(3) == 0 {
					for j := len(live[owner]) - 1; j >= 0; j-- {
						a := live[owner][j]
						inv, _ := Inverse(a.op, a.res)
						if _, err := s.ApplyUndo(inv, owner, a.res.TS); err != nil {
							t.Fatal(err)
						}
					}
				}
				s.Retire(owner)
				delete(live, owner)
				owners = append(owners[:i], owners[i+1:]...)
			case k < 8:
				s.Set(items[rng.Intn(len(items))], int64(rng.Intn(1000)))
			default:
				keepFrom := uint64(rng.Int63n(int64(quiescent(s)) + 1))
				plan, before := fullWalkDrops(s, keepFrom), versionCounts(s)
				want := 0
				for _, cut := range plan {
					want += cut
				}
				if got := s.Compact(keepFrom); got != want {
					t.Fatalf("seed %d step %d: Compact(%d) dropped %d versions, the full walk %d", seed, step, keepFrom, got, want)
				}
				for item, n := range versionCounts(s) {
					if n != before[item]-plan[item] {
						t.Fatalf("seed %d step %d: %s kept %d of %d versions, the full walk keeps %d",
							seed, step, item, n, before[item], before[item]-plan[item])
					}
				}
			}
		}
		// Quiescent: every attempt resolved, nothing pinned — one pass
		// collapses every chain and clears every mark.
		for _, owner := range owners {
			s.Retire(owner)
		}
		s.Compact(quiescent(s))
		if plan := fullWalkDrops(s, quiescent(s)); len(plan) != 0 {
			t.Fatalf("seed %d: quiescent compaction left droppable versions: %v", seed, plan)
		}
		if d := s.DirtySnapshot(); len(d) != 0 {
			t.Fatalf("seed %d: quiescent compaction left marks: %v", seed, d)
		}
	}
}

// TestDirtyMarks pins the life of a mark: installs set it, reads and
// refused operations do not, and only a Compact that leaves the chain one
// resolved version long clears it.
func TestDirtyMarks(t *testing.T) {
	s := NewStore()
	s.Set("a", 10)
	s.Set("b", 20)
	s.Set("c", 30)
	if got, want := s.DirtySnapshot(), map[string]int64{"a": 10, "b": 20, "c": 30}; !reflect.DeepEqual(got, want) {
		t.Fatalf("marks after setup = %v, want %v", got, want)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	s.Compact(s.Clock() + 1)
	if d := s.DirtySnapshot(); len(d) != 0 {
		t.Fatalf("marks after compacting single-version chains = %v", d)
	}

	if _, err := s.Apply(Op{Mode: ModeRead, Item: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Op{Mode: ModeReserve, Item: "b", Arg: 21}); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-reserve returned %v", err)
	}
	if d := s.DirtySnapshot(); len(d) != 0 {
		t.Fatalf("a read and a refused reserve marked %v", d)
	}

	// An unresolved install pins its chain, so the mark survives the
	// compaction; once the owner retires, the next compaction clears it.
	if _, err := s.ApplyAs(Op{Mode: ModeIncr, Item: "a", Arg: 5}, "T1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Op{Mode: ModeWrite, Item: "c", Arg: 31}); err != nil {
		t.Fatal(err)
	}
	if got, want := s.DirtySnapshot(), map[string]int64{"a": 15, "c": 31}; !reflect.DeepEqual(got, want) {
		t.Fatalf("marks after two installs = %v, want %v", got, want)
	}
	if dropped := s.Compact(s.Clock() + 1); dropped != 1 {
		t.Fatalf("Compact dropped %d versions, want 1 (c's old value)", dropped)
	}
	if !isDirty(s, "a") || isDirty(s, "c") {
		t.Fatalf("marks after compaction = %v, want only the pinned a", s.DirtySnapshot())
	}
	s.Retire("T1")
	s.Compact(quiescent(s))
	if isDirty(s, "a") || s.VersionCount("a") != 1 {
		t.Fatalf("a after its owner retired: marked=%v versions=%d", isDirty(s, "a"), s.VersionCount("a"))
	}

	// A horizon an old snapshot holds back leaves the chain long and the
	// mark set.
	res, _ := s.Apply(Op{Mode: ModeWrite, Item: "b", Arg: 22})
	s.Apply(Op{Mode: ModeWrite, Item: "b", Arg: 23})
	s.Compact(res.TS)
	if !isDirty(s, "b") {
		t.Fatal("b lost its mark while a horizon still pinned two of its versions")
	}
}
