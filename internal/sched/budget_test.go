package sched

import (
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"compositetx/internal/data"
)

// commuteRuntime builds the runtime bench/'s commit-commute workload
// measures: the bank topology under Hybrid, 64 seeded items per branch,
// live certification, and a checkpoint every `every` commits.
func commuteRuntime(t testing.TB, every int) *Runtime {
	t.Helper()
	rt := BankTopology().NewRuntime(Hybrid)
	for _, comp := range []string{"east", "west"} {
		for k := 0; k < 64; k++ {
			rt.Store(comp).Set("p"+strconv.Itoa(k), 1<<20)
		}
	}
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	rt.EnableCheckpoints(CheckpointConfig{Every: every})
	return rt
}

// commutePrograms builds n roots of 12 commuting increments over
// commuteRuntime's items: six transfers east → west, each leg one
// subtransaction of the bank.
func commutePrograms(seed int64, n int) []Invocation {
	rng := rand.New(rand.NewSource(seed))
	leg := func(comp string, arg int64) Step {
		item := "p" + strconv.Itoa(rng.Intn(64))
		return leafAt(comp, item, data.Op{Mode: data.ModeIncr, Item: item, Arg: arg})
	}
	progs := make([]Invocation, n)
	for i := range progs {
		steps := make([]Step, 0, 12)
		for len(steps) < 12 {
			amt := int64(1 + rng.Intn(7))
			steps = append(steps, leg("east", -amt), leg("west", amt))
		}
		progs[i] = Invocation{Component: "bank", Steps: steps}
	}
	return progs
}

// TestCommitAllocBudget pins what one commit of the commit-commute shape
// allocates once the runtime is warm: a 12-leg root of commuting
// increments, certified on the fast path, with a checkpoint every 64
// commits. Both figures average over whole checkpoint cadences, so each
// includes its share of the fold and the compaction. The budget is what a
// commit keeps — the one buffer its node IDs are spelled into, its
// admitted delta — plus the result; the attempt, its logs, the
// certifier's scratch and the stores' tag lists are recycled. At 42f778b,
// which made a new attempt, staged record and ticket scratch per attempt
// and copied every compacted chain, the same roots allocated 21.2 KB and
// 149 objects each; at ea2a7d7, which copied the stage's nodes into a
// delta of their own, 3 945 B and 71.1. With the delta taking the filed
// nodes: 2 663 B and 70.1. With locks released by the items they hold,
// into entry lists the lock manager recycles, and stages staged in seq
// order, so the certifier neither sorts nor copies them: 1 500 B and 46.1.
// With every ID of a root spelled into one buffer and the stores' emptied
// tag lists reused: 767 B and 3.1 after 4 warm cadences, and 579 to 592 B
// and 3.1 after 16, by when the index's and the engine's arrays have
// stopped growing; the test warms 16 since.
func TestCommitAllocBudget(t *testing.T) {
	const (
		every       = 64
		budgetBytes = 800
		budgetAlloc = 8
		warm, bytes = 16, 8 // cadences
		allocRuns   = 4     // cadences, after AllocsPerRun's own warm-up one
	)
	rt := commuteRuntime(t, every)
	progs := commutePrograms(1, 1024)
	names := make([]string, (warm+bytes+1+allocRuns)*every)
	for i := range names {
		names[i] = "T" + strconv.Itoa(i+1)
	}
	next := 0
	cadence := func() {
		for i := 0; i < every; i++ {
			if _, err := rt.Submit(names[next], progs[next%len(progs)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	for i := 0; i < warm; i++ {
		cadence()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < bytes; i++ {
		cadence()
	}
	runtime.ReadMemStats(&after)
	perRoot := float64(after.TotalAlloc-before.TotalAlloc) / (bytes * every)
	allocs := testing.AllocsPerRun(allocRuns, cadence) / every

	m := rt.Metrics()
	// The first root declares the schedules, so it alone takes the engine.
	if int(m.Commits) != next || int(m.CertifyFastPath) != next-1 || int(m.CheckpointsTaken) != next/every {
		t.Fatalf("commits=%d fast-path=%d checkpoints=%d after %d roots: want every later root on the fast path and a checkpoint per %d",
			m.Commits, m.CertifyFastPath, m.CheckpointsTaken, next, every)
	}
	t.Logf("per root: %.0f B (budget %d), %.1f allocations (budget %d)", perRoot, budgetBytes, allocs, budgetAlloc)
	if raceEnabled {
		return
	}
	if perRoot > budgetBytes {
		t.Errorf("a commit allocates %.0f B, budget %d B", perRoot, budgetBytes)
	}
	if allocs > budgetAlloc {
		t.Errorf("a commit makes %.1f allocations, budget %d", allocs, budgetAlloc)
	}
}

// BenchmarkCommitCommute commits warm roots of TestCommitAllocBudget's
// shape one after another on one goroutine: time, bytes and allocations
// per root. The root names are built before the timer starts.
func BenchmarkCommitCommute(b *testing.B) {
	const every, warm = 64, 4 * 64
	rt := commuteRuntime(b, every)
	progs := commutePrograms(1, 1024)
	names := make([]string, warm+b.N)
	for i := range names {
		names[i] = "T" + strconv.Itoa(i+1)
	}
	submit := func(i int) {
		if _, err := rt.Submit(names[i], progs[i%len(progs)]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		submit(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit(warm + i)
	}
}

// TestRecoverAllocBudget pins what one recovery allocates: Recover of a
// certified bank log of 252 roots (transfers, audits, hot-set writes and
// client aborts) cut every 64 commits and crashed at a commit, then the
// close — the shape bench/'s recover-replay measures. The figure covers
// the scan, redo and undo, the rebuilt index, Validate, the one Comp-C
// check of the recovered tail and the certifier seeded from it. At
// 54feadf, which after the check admitted the tail into a fresh engine
// and retired every root it had admitted, the same recovery cost 2.20 MB
// and 9 405 allocations; without that second reduction, 1.84 MB and
// 7 581 (7 573 at 78226f6). With the forest stored by ref and the check
// loading the engine from refs: 1.72 MB and 6 770. With RecordedSystem
// applying the index's nodes without a copy: 1.68 MB and 6 538 (1.69 MB
// and 6 538 at ea2a7d7).
func TestRecoverAllocBudget(t *testing.T) {
	const (
		every       = 64
		budgetBytes = 1800 << 10
		budgetAlloc = 7000
	)
	dir := t.TempDir() + "/wal"
	rt := newDeltaRuntime(t, WALConfig{Dir: dir, SyncEvery: every})
	rt.EnableCheckpoints(CheckpointConfig{Every: every})
	rng := rand.New(rand.NewSource(1))
	for i, p := range deltaTraffic(rng, 3*every+60) {
		submitDelta(t, rt, "T"+strconv.Itoa(i+1), p)
	}
	rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultCrash, Txn: "crash", Step: "commit"}}})
	if _, err := rt.Submit("crash", transferPrograms(1)[0]); err == nil {
		t.Fatal("the crash root committed")
	}
	recoverOnce := func() *Recovered {
		rec, err := Recover(WALConfig{Dir: dir, SyncEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Runtime.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	// The first recovery journals the in-flight root's abort; from then
	// on a recovery appends nothing, so every measured one reads the same
	// log.
	first := recoverOnce()
	shape := recoverOnce().Stats
	if shape.CheckpointLSN == 0 || shape.Redone == 0 || first.Stats.InFlight != 1 || !first.Verdict.Correct {
		t.Fatalf("log shape: %+v, first recovery %+v", shape, first.Stats)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recoverOnce()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	allocs := testing.AllocsPerRun(4, func() { recoverOnce() })
	if again := recoverOnce().Stats; again != shape {
		t.Fatalf("recoveries read different logs: %+v, then %+v", shape, again)
	}
	t.Logf("per recovery of %d records (%d skipped, %d redone): %d B (budget %d), %.0f allocations (budget %d)",
		shape.Records, shape.Skipped, shape.Redone, bytes, budgetBytes, allocs, budgetAlloc)
	if raceEnabled {
		return
	}
	if bytes > budgetBytes {
		t.Errorf("a recovery allocates %d B, budget %d B", bytes, budgetBytes)
	}
	if allocs > budgetAlloc {
		t.Errorf("a recovery makes %.0f allocations, budget %d", allocs, budgetAlloc)
	}
}
