package front_test

import (
	"bytes"
	"fmt"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/workload"
)

// tally counts the outcomes of a stream's deltas.
type tally struct{ admitted, violated, invalid int }

func (a tally) plus(b tally) tally {
	return tally{a.admitted + b.admitted, a.violated + b.violated, a.invalid + b.invalid}
}

// stream is the oracle of tentative admission. It keeps the system of the
// deltas an engine admitted and the nodes and schedules of those it
// refused, and holds every delta to three rules: a delta naming a refused
// node or schedule fails validation; any other delta's verdict is
// CheckReference(prefix ⊕ d); and a refused delta leaves inc.System()
// byte-identical to the prefix without it (undo ∘ admit ≡ id).
type stream struct {
	prefix  *model.System
	nodes   map[model.NodeID]bool     // of refused deltas
	scheds  map[model.ScheduleID]bool // of refused deltas
	outcome tally
}

func newStream() *stream {
	return &stream{prefix: model.NewSystem(), nodes: map[model.NodeID]bool{}, scheds: map[model.ScheduleID]bool{}}
}

// names reports whether d names a node or schedule of a refused delta it
// does not declare itself.
func (s *stream) names(d *front.Delta) bool {
	own := map[string]bool{}
	for _, sc := range d.Schedules {
		own[string(sc)] = true
	}
	for _, n := range d.Nodes {
		own[string(n.ID)] = true
	}
	node := func(id model.NodeID) bool { return s.nodes[id] && !own[string(id)] }
	sched := func(id model.ScheduleID) bool { return s.scheds[id] && !own[string(id)] }
	bad := false
	for _, n := range d.Nodes {
		bad = bad || node(n.Parent) || sched(n.Sched)
	}
	for _, pairs := range [][]front.DeltaPair{d.Conflicts, d.WeakOut, d.StrongOut, d.WeakIn, d.StrongIn} {
		for _, p := range pairs {
			bad = bad || sched(p.Sched) || node(p.A) || node(p.B)
		}
	}
	for _, ip := range d.Intra {
		bad = bad || node(ip.Tx) || node(ip.A) || node(ip.B)
	}
	return bad
}

// mark records d's nodes and schedules as refused (or, admitted, as not).
func (s *stream) mark(d *front.Delta, refused bool) {
	for _, sc := range d.Schedules {
		s.scheds[sc] = refused
	}
	for _, n := range d.Nodes {
		s.nodes[n.ID] = refused
	}
}

// step feeds d to inc — through Append when full, else through Admit,
// whose success is (nil, nil) — checks the three rules and returns what
// inc returned.
func (s *stream) step(t *testing.T, tag string, inc *front.Incremental, d *front.Delta, full bool) (*front.Verdict, error) {
	t.Helper()
	admit := inc.Admit
	if full {
		admit = inc.Append
	}
	if s.names(d) {
		v, err := admit(d)
		if err == nil {
			t.Fatalf("%s: a delta naming a refused node or schedule was accepted (verdict %v)", tag, v)
		}
		s.outcome.invalid++
		s.refused(t, tag, inc, d)
		return v, err
	}
	next := s.prefix.Clone()
	d.Apply(next)
	wantV, wantErr := front.CheckReference(next, front.Options{})
	gotV, gotErr := admit(d)
	ok := wantErr == nil && wantV.Correct
	if ok && !full {
		if gotV != nil || gotErr != nil {
			t.Fatalf("%s: correct prefix: Admit = (%v, %v), want (nil, nil)", tag, gotV, gotErr)
		}
	} else {
		assertVerdictsEqual(t, tag, gotV, gotErr, wantV, wantErr)
	}
	switch {
	case ok:
		s.outcome.admitted++
		s.prefix = next
		s.mark(d, false)
	case wantErr == nil:
		s.outcome.violated++
		s.refused(t, tag, inc, d)
	default:
		s.outcome.invalid++
		s.refused(t, tag, inc, d)
	}
	return gotV, gotErr
}

// refused records a refused delta and checks that it left no trace.
func (s *stream) refused(t *testing.T, tag string, inc *front.Incremental, d *front.Delta) {
	t.Helper()
	s.mark(d, true)
	if got, want := encodeSys(t, inc.System()), encodeSys(t, s.prefix); !bytes.Equal(got, want) {
		t.Fatalf("%s: a refused delta left a trace:\nengine: %s\nprefix: %s", tag, got, want)
	}
}

// replayPrefixExact streams deltas through an Incremental with Append and
// holds every delta to the stream oracle: verdicts — success or violation
// witness — identical to CheckReference over the admitted prefix plus the
// delta, every refusal without a trace. Every admitted prefix is itself a
// well-formed execution, and the engine may never disagree with the
// reference reduction on any of them. Returns the outcome counts for
// coverage accounting and the engine (for rebuild checks).
func replayPrefixExact(t *testing.T, tag string, deltas []*front.Delta) (tally, *front.Incremental) {
	t.Helper()
	inc := front.NewIncremental(front.IncrementalOptions{})
	s := newStream()
	for i, d := range deltas {
		s.step(t, fmt.Sprintf("%s/prefix%d", tag, i), inc, d, true)
	}
	return s.outcome, inc
}

// replayBoth runs the prefix-exact oracle over both decompositions of an
// execution: op-by-op (DecomposeSteps, the finest stream) and
// commit-by-commit (DecomposeByRoot, what a live certifier sees).
func replayBoth(t *testing.T, tag string, sys *model.System) tally {
	t.Helper()
	a, _ := replayPrefixExact(t, tag+"/steps", front.DecomposeSteps(sys))
	b, _ := replayPrefixExact(t, tag+"/roots", front.DecomposeByRoot(sys))
	return a.plus(b)
}

// TestIncrementalPrefixExactStack sweeps random stack executions across
// depth, width, conflict density and strong-order density, asserting
// prefix-exact agreement with CheckReference on every stream prefix. The
// sweep meets admitted deltas, violations, and deltas that name a node of
// a refused one.
func TestIncrementalPrefixExactStack(t *testing.T) {
	var sum tally
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
						sum = sum.plus(replayBoth(t, tag, exec.Sys))
					}
				}
			}
		}
	}
	if sum.admitted == 0 || sum.violated == 0 || sum.invalid == 0 {
		t.Fatalf("sweep must cover every outcome: %+v", sum)
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

// TestIncrementalRebuildsOnLevelChange drives a stream whose invocation
// graph deepens mid-flight: schedule levels change, forcing full engine
// rebuilds, and the verdicts must stay prefix-exact across them.
func TestIncrementalRebuildsOnLevelChange(t *testing.T) {
	sys := workload.General(workload.GeneralParams{
		Depth: 3, SchedsPerLevel: 2, Roots: 2, Fanout: 2,
		LeafRate: 0.5, ConflictRate: 0.3, Seed: 2,
	}).Sys
	_, inc := replayPrefixExact(t, "rebuild", front.DecomposeSteps(sys))
	if inc.Rebuilds() < 2 {
		t.Fatalf("deepening stream caused %d rebuilds, want >= 2 (level changes must rebuild)", inc.Rebuilds())
	}
}

// TestIncrementalAdmit checks the certification fast path: Admit returns
// (nil, nil) exactly while the admitted execution plus the delta stays
// correct, and the reference's full failure verdict otherwise.
func TestIncrementalAdmit(t *testing.T) {
	violated := 0
	for seed := int64(1); seed <= 6; seed++ {
		sys := workload.Stack(workload.StackParams{
			Levels: 2, Roots: 3, Fanout: 2, ConflictRate: 0.7, Seed: seed,
		}).Sys
		inc := front.NewIncremental(front.IncrementalOptions{})
		s := newStream()
		for i, d := range front.DecomposeByRoot(sys) {
			s.step(t, fmt.Sprintf("admit/seed%d/prefix%d", seed, i), inc, d, false)
		}
		violated += s.outcome.violated
	}
	if violated == 0 {
		t.Fatal("sweep produced no violation; raise the conflict rate")
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
	s := newStream()
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
		s.refused(t, fmt.Sprintf("badmix/bad%d", i), inc, &front.Delta{})
		s.step(t, fmt.Sprintf("badmix/prefix%d", i), inc, d, true)
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
// T10, T9, T2 — neither ascending nor descending NodeID order — and whose
// third root T2 is offered three ways, each failing differently and each
// with two candidate witnesses: one the engine meets first in arrival
// order, one the reference meets first in NodeID order. Each offer is
// refused, so the next one declares T2 afresh, and each verdict must carry
// the reference's witness.
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
	t2 := func() *front.Delta { return &front.Delta{Nodes: root("T2", "T2.a", "T2.b", "T2.c")} }
	first := &front.Delta{Schedules: []model.ScheduleID{"S"}, Nodes: root("T10", "T10.a")}
	second := &front.Delta{Nodes: root("T9", "T9.a", "T9.b", "T9.c")}
	ordered(second, "T9.a", "T10.a") // T9 before T10: still serializable
	// T9 and T2 each precede the other: no isolated arrangement at level 1.
	isolation := t2()
	ordered(isolation, "T9.a", "T2.a")
	ordered(isolation, "T2.b", "T9.b")
	// Both transactions get an intra order their schedule contradicts: no
	// calculation for either, and the missing calculation is reported first.
	calculation := t2()
	calculation.Intra = []front.DeltaIntra{
		{Tx: "T9", A: "T9.a", B: "T9.b"},
		{Tx: "T2", A: "T2.a", B: "T2.b"},
	}
	ordered(calculation, "T9.b", "T9.a")
	ordered(calculation, "T2.b", "T2.a")
	// A cyclic output order between two leaves: the level 0 front is not CC.
	level0 := t2()
	level0.WeakOut = []front.DeltaPair{
		{Sched: "S", A: "T9.c", B: "T2.c"},
		{Sched: "S", A: "T2.c", B: "T9.c"},
	}
	deltas := []*front.Delta{first, second, isolation, calculation, level0}

	sum, inc := replayPrefixExact(t, "three-roots", deltas)
	if sum != (tally{admitted: 2, violated: 3}) {
		t.Fatalf("outcomes %+v, want 2 admitted and 3 violations", sum)
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
	first.Apply(prefix)
	second.Apply(prefix)
	for i, d := range deltas[2:] {
		sys := prefix.Clone()
		d.Apply(sys)
		if v, err := front.Check(sys, front.Options{}); err != nil || v.String() != want[i] {
			t.Fatalf("offer %d: %v (err %v), want %s", i, v, err, want[i])
		}
	}
}
