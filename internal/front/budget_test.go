package front_test

import (
	"math/rand"
	"runtime"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/workload"
)

// generalCorpus generates n executions of the check-general shape of
// bench/ (depth 3, 2 schedules per level, 32 roots, fan-out 3, ≈ 540
// nodes, about half of them Comp-C).
func generalCorpus(seed int64, n int) []*workload.Execution {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*workload.Execution, n)
	for i := range out {
		out[i] = workload.General(workload.GeneralParams{
			Depth: 3, SchedsPerLevel: 2, Roots: 32, Fanout: 3,
			LeafRate: 0.3, ConflictRate: 0.00125, Seed: rng.Int63(),
		})
	}
	return out
}

// allocated returns the bytes fn allocates, read from the allocator's own
// cumulative count on this goroutine: no wall clock, no sampling.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckByteBudget pins what a Comp-C check allocates on one fixed
// execution of the check-general shape (seed 7: 605 nodes, Comp-C). At
// the parent of the slot-table change (ae2da8b: a []Bitset row table per
// relation, a map per node in ValidateStructure, three sort.Slice passes)
// the same call allocated 2 067 672 B; the budget is 40 % of that, and
// the change measured 514 624 B (25 %). The second budget is the
// checkpoint fold's engine path: reset + load of the same system on an
// already-loaded engine keeps every table and slab, so it must stay under
// 5 % of a cold Check (measured 8 160 B, 1.6 %) — an engine that re-made
// its per-node tables in load would pay for them on every fold.
func TestCheckByteBudget(t *testing.T) {
	const parentBytes = 2067672
	sys := generalCorpus(7, 1)[0].Sys

	var v *front.Verdict
	var err error
	cold := allocated(func() { v, err = front.Check(sys, front.Options{}) })
	if err != nil || !v.Correct {
		t.Fatalf("Check = %v, %v; the fixed execution is Comp-C", v, err)
	}
	t.Logf("cold Check: %d B (%.1f %% of the parent's %d B)", cold, 100*float64(cold)/parentBytes, parentBytes)
	if cold > parentBytes*40/100 {
		t.Errorf("cold Check allocates %d B, budget %d B", cold, parentBytes*40/100)
	}

	reload, err := front.LoadedEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	reload() // measure the steady state, as a second fold would see it
	var failed bool
	warm := allocated(func() { failed = reload() })
	if failed {
		t.Fatal("reloaded engine failed on a Comp-C execution")
	}
	t.Logf("reset + load: %d B (%.1f %% of a cold Check)", warm, 100*float64(warm)/float64(cold))
	if warm*20 >= cold {
		t.Errorf("reset + load allocates %d B, budget 5 %% of %d B", warm, cold)
	}
}

// BenchmarkCheckGeneral is front.Check over a corpus of the check-general
// shape, for CPU and allocation profiles of the checker alone.
func BenchmarkCheckGeneral(b *testing.B) {
	corpus := generalCorpus(1, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := front.Check(corpus[i%len(corpus)].Sys, front.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
