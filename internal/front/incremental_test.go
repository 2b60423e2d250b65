package front_test

import (
	"fmt"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/workload"
)

// replayPrefixExact streams deltas through an Incremental while applying
// the same deltas to a parallel prefix system, asserting after EVERY
// delta that Append's verdict — success or violation witness — is
// identical to CheckReference over the prefix. This is the prefix-exact
// oracle of the incremental engine: every prefix of the stream is itself
// a well-formed execution, and the engine may never disagree with the
// reference reduction on any of them. Returns the per-outcome prefix
// counts for coverage accounting and the engine (for rebuild checks).
func replayPrefixExact(t *testing.T, tag string, deltas []*front.Delta) (correct, failed int, inc *front.Incremental) {
	t.Helper()
	inc = front.NewIncremental(front.IncrementalOptions{})
	prefix := model.NewSystem()
	for i, d := range deltas {
		d.Apply(prefix)
		gotV, gotErr := inc.Append(d)
		wantV, wantErr := front.CheckReference(prefix, front.Options{})
		assertVerdictsEqual(t, fmt.Sprintf("%s/prefix%d", tag, i), gotV, gotErr, wantV, wantErr)
		if gotErr == nil && gotV.Correct {
			correct++
		} else {
			failed++
		}
	}
	return correct, failed, inc
}

// replayBoth runs the prefix-exact oracle over both decompositions of an
// execution: op-by-op (DecomposeSteps, the finest stream) and
// commit-by-commit (DecomposeByRoot, what a live certifier sees).
func replayBoth(t *testing.T, tag string, sys *model.System) (correct, failed int) {
	t.Helper()
	c1, f1, _ := replayPrefixExact(t, tag+"/steps", front.DecomposeSteps(sys))
	c2, f2, _ := replayPrefixExact(t, tag+"/roots", front.DecomposeByRoot(sys))
	return c1 + c2, f1 + f2
}

// TestIncrementalPrefixExactStack sweeps random stack executions across
// depth, width, conflict density and strong-order density, asserting
// prefix-exact agreement with CheckReference on every stream prefix.
func TestIncrementalPrefixExactStack(t *testing.T) {
	correct, failed := 0, 0
	for _, levels := range []int{1, 2, 3} {
		for _, roots := range []int{1, 3} {
			for _, cr := range []float64{0, 0.3, 0.9} {
				for _, sr := range []float64{0, 0.4} {
					for seed := int64(1); seed <= 3; seed++ {
						exec := workload.Stack(workload.StackParams{
							Levels: levels, Roots: roots, Fanout: 2,
							ConflictRate: cr, StrongRate: sr, Seed: seed,
						})
						tag := fmt.Sprintf("stack/l%d/r%d/c%.1f/s%.1f/seed%d", levels, roots, cr, sr, seed)
						c, f := replayBoth(t, tag, exec.Sys)
						correct += c
						failed += f
					}
				}
			}
		}
	}
	if correct == 0 || failed == 0 {
		t.Fatalf("sweep must cover both outcomes: %d correct, %d failed prefixes", correct, failed)
	}
}

// TestIncrementalPrefixExactFork sweeps random fork executions.
func TestIncrementalPrefixExactFork(t *testing.T) {
	for _, branches := range []int{1, 3} {
		for _, cr := range []float64{0.3, 0.8} {
			for seed := int64(1); seed <= 3; seed++ {
				exec := workload.Fork(workload.ForkParams{
					Branches: branches, Roots: 2, Fanout: 2, LeavesPerSub: 2,
					ConflictRate: cr, Seed: seed,
				})
				replayBoth(t, fmt.Sprintf("fork/b%d/c%.1f/seed%d", branches, cr, seed), exec.Sys)
			}
		}
	}
}

// TestIncrementalPrefixExactJoin sweeps random join executions.
func TestIncrementalPrefixExactJoin(t *testing.T) {
	for _, tcr := range []float64{0.2, 0.6} {
		for seed := int64(1); seed <= 3; seed++ {
			exec := workload.Join(workload.JoinParams{
				Tops: 2, RootsPerTop: 2, Fanout: 2, LeavesPerSub: 2,
				ConflictRate: 0.3, TopConflictRate: tcr, Seed: seed,
			})
			replayBoth(t, fmt.Sprintf("join/t%.1f/seed%d", tcr, seed), exec.Sys)
		}
	}
}

// TestIncrementalPrefixExactGeneral sweeps general configurations: mixed
// leaf and transaction operations exercise rule-1 lifting, multi-level
// fronts and — because schedules are invoked gradually — engine rebuilds
// on level-assignment changes. Each also runs relabelled, as a system and
// as a stream that keeps its arrival order while the NodeID order reverses:
// the generators name nodes in generation order, so only there does a
// diagnosis read off arrival-order indices differ from the reference's.
func TestIncrementalPrefixExactGeneral(t *testing.T) {
	for _, depth := range []int{2, 3} {
		for _, cr := range []float64{0.3, 0.7} {
			for seed := int64(1); seed <= 5; seed++ {
				exec := workload.General(workload.GeneralParams{
					Depth: depth, SchedsPerLevel: 2, Roots: 2, Fanout: 2,
					LeafRate: 0.4, ConflictRate: cr, Seed: seed,
				})
				tag := fmt.Sprintf("general/d%d/c%.1f/seed%d", depth, cr, seed)
				replayBoth(t, tag, exec.Sys)
				replayBoth(t, tag+"/relabelled", relabel(exec.Sys))
				replayPrefixExact(t, tag+"/relabelled-stream", relabelStream(front.DecomposeSteps(exec.Sys)))
			}
		}
	}
}

// TestIncrementalPrefixExactFigures pins the paper's two worked examples.
func TestIncrementalPrefixExactFigures(t *testing.T) {
	replayBoth(t, "figure3", front.Figure3System())
	replayBoth(t, "figure4", front.Figure4System())
}

// TestIncrementalSingleDelta feeds whole systems as one SystemDelta: the
// degenerate stream where the incremental engine must still match the
// batch checker exactly.
func TestIncrementalSingleDelta(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sys := workload.Stack(workload.StackParams{
			Levels: 3, Roots: 2, Fanout: 2, ConflictRate: 0.4, Seed: seed,
		}).Sys
		replayPrefixExact(t, fmt.Sprintf("whole/seed%d", seed), []*front.Delta{front.SystemDelta(sys)})
	}
}

// TestIncrementalStaysDegraded asserts the monotonicity contract: once a
// prefix is incorrect every later prefix is incorrect too, the engine
// reports Degraded, and its delegated verdicts keep matching the
// reference (covered pair by pair inside replayPrefixExact).
func TestIncrementalStaysDegraded(t *testing.T) {
	sawDegraded := false
	for seed := int64(1); seed <= 6; seed++ {
		sys := workload.Stack(workload.StackParams{
			Levels: 2, Roots: 3, Fanout: 2, ConflictRate: 0.9, Seed: seed,
		}).Sys
		_, failed, inc := replayPrefixExact(t, fmt.Sprintf("degraded/seed%d", seed), front.DecomposeSteps(sys))
		if failed > 0 {
			sawDegraded = true
			if !inc.Degraded() {
				t.Fatalf("seed %d: %d failed prefixes but engine not degraded", seed, failed)
			}
		}
	}
	if !sawDegraded {
		t.Fatal("sweep produced no incorrect execution; raise the conflict rate")
	}
}

// TestIncrementalRebuildsOnLevelChange drives a stream whose invocation
// graph deepens mid-flight: schedule levels change, forcing full engine
// rebuilds, and the verdicts must stay prefix-exact across them.
func TestIncrementalRebuildsOnLevelChange(t *testing.T) {
	sys := workload.General(workload.GeneralParams{
		Depth: 3, SchedsPerLevel: 2, Roots: 2, Fanout: 2,
		LeafRate: 0.5, ConflictRate: 0.3, Seed: 2,
	}).Sys
	_, _, inc := replayPrefixExact(t, "rebuild", front.DecomposeSteps(sys))
	if inc.Rebuilds() < 2 {
		t.Fatalf("deepening stream caused %d rebuilds, want >= 2 (level changes must rebuild)", inc.Rebuilds())
	}
}

// TestIncrementalAdmit checks the certification fast path: Admit returns
// (nil, nil) exactly while the accumulated execution stays correct and
// the reference's full failure verdict from the first violation on.
func TestIncrementalAdmit(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		sys := workload.Stack(workload.StackParams{
			Levels: 2, Roots: 3, Fanout: 2, ConflictRate: 0.7, Seed: seed,
		}).Sys
		inc := front.NewIncremental(front.IncrementalOptions{})
		prefix := model.NewSystem()
		for i, d := range front.DecomposeByRoot(sys) {
			d.Apply(prefix)
			gotV, gotErr := inc.Admit(d)
			wantV, wantErr := front.CheckReference(prefix, front.Options{})
			tag := fmt.Sprintf("admit/seed%d/prefix%d", seed, i)
			if wantErr == nil && wantV.Correct {
				if gotV != nil || gotErr != nil {
					t.Fatalf("%s: correct prefix: Admit = (%v, %v), want (nil, nil)", tag, gotV, gotErr)
				}
				continue
			}
			assertVerdictsEqual(t, tag, gotV, gotErr, wantV, wantErr)
		}
	}
}

// TestIncrementalRejectsBadDeltas asserts all-or-nothing validation: a
// malformed delta is an error, leaves no trace, and the stream continues
// prefix-exact afterwards.
func TestIncrementalRejectsBadDeltas(t *testing.T) {
	sys := workload.Stack(workload.StackParams{
		Levels: 2, Roots: 2, Fanout: 2, ConflictRate: 0.3, Seed: 1,
	}).Sys
	deltas := front.DecomposeSteps(sys)
	inc := front.NewIncremental(front.IncrementalOptions{})
	prefix := model.NewSystem()
	bad := []*front.Delta{
		{Schedules: []model.ScheduleID{""}},
		{Nodes: []front.DeltaNode{{ID: "zz", Parent: "no-such-parent"}}},
		{Nodes: []front.DeltaNode{{ID: "zz2", Parent: "", Sched: "no-such-sched"}}},
		{Conflicts: []front.DeltaPair{{Sched: "no-such-sched", A: "x", B: "y"}}},
	}
	for i, d := range deltas {
		if v, err := inc.Append(bad[i%len(bad)]); err == nil {
			t.Fatalf("prefix %d: malformed delta accepted (verdict %v)", i, v)
		}
		d.Apply(prefix)
		gotV, gotErr := inc.Append(d)
		wantV, wantErr := front.CheckReference(prefix, front.Options{})
		assertVerdictsEqual(t, fmt.Sprintf("badmix/prefix%d", i), gotV, gotErr, wantV, wantErr)
	}
}

// BenchmarkIncrementalAppend measures the amortized per-commit cost of
// certifying a growing execution incrementally (one Admit per root).
func BenchmarkIncrementalAppend(b *testing.B) {
	sys := workload.Stack(workload.StackParams{
		Levels: 3, Roots: 16, Fanout: 2, ConflictRate: 0.05, Seed: 1,
	}).Sys
	deltas := front.DecomposeByRoot(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := front.NewIncremental(front.IncrementalOptions{})
		for _, d := range deltas {
			if _, err := inc.Admit(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestDiagnosticsInNodeIDOrder is a hand-built stream whose roots arrive as
// T10, T9, T2 — neither ascending nor descending NodeID order — and which
// fails three ways in turn, each time with two candidate witnesses: one
// the engine meets first in arrival order, one the reference meets first
// in NodeID order. Every prefix must carry the reference's.
func TestDiagnosticsInNodeIDOrder(t *testing.T) {
	root := func(id model.NodeID, leaves ...model.NodeID) []front.DeltaNode {
		nodes := []front.DeltaNode{{ID: id, Sched: "S"}}
		for _, l := range leaves {
			nodes = append(nodes, front.DeltaNode{ID: l, Parent: id})
		}
		return nodes
	}
	// ordered declares a ≺ b between conflicting operations of S.
	ordered := func(d *front.Delta, a, b model.NodeID) {
		d.Conflicts = append(d.Conflicts, front.DeltaPair{Sched: "S", A: a, B: b})
		d.WeakOut = append(d.WeakOut, front.DeltaPair{Sched: "S", A: a, B: b})
	}
	first := &front.Delta{Schedules: []model.ScheduleID{"S"}, Nodes: root("T10", "T10.a")}
	second := &front.Delta{Nodes: root("T9", "T9.a", "T9.b", "T9.c")}
	ordered(second, "T9.a", "T10.a") // T9 before T10: still serializable
	// T9 and T2 each precede the other: no isolated arrangement at level 1.
	isolation := &front.Delta{Nodes: root("T2", "T2.a", "T2.b", "T2.c")}
	ordered(isolation, "T9.a", "T2.a")
	ordered(isolation, "T2.b", "T9.b")
	// Both transactions get an intra order their schedule contradicts: no
	// calculation for either, and the missing calculation is reported first.
	calculation := &front.Delta{Intra: []front.DeltaIntra{
		{Tx: "T9", A: "T9.a", B: "T9.b"},
		{Tx: "T2", A: "T2.a", B: "T2.b"},
	}}
	ordered(calculation, "T9.b", "T9.a")
	ordered(calculation, "T2.b", "T2.a")
	// A cyclic output order between two leaves: the level 0 front is not CC.
	level0 := &front.Delta{WeakOut: []front.DeltaPair{
		{Sched: "S", A: "T9.c", B: "T2.c"},
		{Sched: "S", A: "T2.c", B: "T9.c"},
	}}
	deltas := []*front.Delta{first, second, isolation, calculation, level0}

	correct, failed, inc := replayPrefixExact(t, "three-roots", deltas)
	if correct != 2 || failed != 3 {
		t.Fatalf("%d correct and %d failed prefixes, want 2 and 3", correct, failed)
	}
	checkBothWays(t, "three-roots/whole", inc.System())

	// The reference's witnesses, spelled out so that engine and oracle
	// cannot drift to the arrival-order ones (T9 first) together.
	want := []string{
		"Comp-C: INCORRECT at level 1: transactions cannot be isolated: cycle [T2 T9]",
		"Comp-C: INCORRECT at level 1: no calculation for transaction T2: cycle [T2.a T2.b]",
		"Comp-C: INCORRECT at level 0: level 0 front not conflict consistent: cycle [T2.c]",
	}
	prefix := model.NewSystem()
	for i, d := range deltas {
		d.Apply(prefix)
		if i < 2 {
			continue
		}
		if v, err := front.Check(prefix, front.Options{}); err != nil || v.String() != want[i-2] {
			t.Fatalf("prefix %d: %v (err %v), want %s", i, v, err, want[i-2])
		}
	}
}
