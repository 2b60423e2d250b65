package front

import (
	"reflect"
	"testing"

	"compositetx/internal/model"
	"compositetx/internal/order"
)

func mustCheck(t *testing.T, sys *model.System) *Verdict {
	t.Helper()
	if err := sys.Validate(); err != nil {
		t.Fatalf("fixture should validate: %v", err)
	}
	v, err := Check(sys, Options{KeepFronts: true})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return v
}

// flatSystem builds a single-schedule (order 1) system with two
// transactions and the given leaf structure. ops maps leaf -> transaction.
func flatSystem(conflicts [][2]model.NodeID, weakOut [][2]model.NodeID) *model.System {
	s := model.NewSystem()
	sc := s.AddSchedule("S")
	s.AddRoot("T1", "S")
	s.AddRoot("T2", "S")
	s.AddLeaf("a1", "T1")
	s.AddLeaf("a2", "T1")
	s.AddLeaf("b1", "T2")
	s.AddLeaf("b2", "T2")
	for _, c := range conflicts {
		sc.AddConflict(c[0], c[1])
	}
	for _, p := range weakOut {
		sc.WeakOut.Add(p[0], p[1])
	}
	return s
}

func TestLevel0Front(t *testing.T) {
	sys := Figure2System()
	sys.Normalize()
	f := level0(sys)
	want := []model.NodeID{"o13", "o25", "p1", "p2"}
	if got := f.Nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("level 0 nodes = %v, want %v", got, want)
	}
	if !f.Obs.Has("o13", "o25") || !f.Obs.Has("p2", "p1") {
		t.Error("level 0 observed order missing schedule weak output pairs (Def 10 rule 1)")
	}
	if !f.Con.Has("o13", "o25") || !f.Con.Has("p1", "p2") {
		t.Error("level 0 conflicts missing schedule conflict pairs (Def 11 case 1)")
	}
	if f.WeakIn.Len() != 0 {
		t.Error("leaves are transactions of no schedule; level 0 input orders must be empty")
	}
	if f.ccCycle() != nil {
		t.Error("level 0 front should be conflict consistent")
	}
}

func TestFlatSerializable(t *testing.T) {
	// T1: a1, a2; T2: b1, b2. Conflicts a1-b1; order a1 before b1:
	// serializable as T1, T2.
	sys := flatSystem(
		[][2]model.NodeID{{"a1", "b1"}},
		[][2]model.NodeID{{"a1", "b1"}},
	)
	v := mustCheck(t, sys)
	if !v.Correct {
		t.Fatalf("expected correct, got: %s", v)
	}
	if want := []model.NodeID{"T1", "T2"}; !reflect.DeepEqual(v.SerialOrder, want) {
		t.Errorf("serial witness = %v, want %v", v.SerialOrder, want)
	}
}

func TestFlatNonSerializable(t *testing.T) {
	// Classic interleaving: a1 before b1 but b2 before a2, all conflicting:
	// T1 < T2 and T2 < T1.
	sys := flatSystem(
		[][2]model.NodeID{{"a1", "b1"}, {"a2", "b2"}},
		[][2]model.NodeID{{"a1", "b1"}, {"b2", "a2"}},
	)
	v := mustCheck(t, sys)
	if v.Correct {
		t.Fatalf("expected incorrect, got: %s", v)
	}
	if v.FailedLevel != 1 {
		t.Errorf("FailedLevel = %d, want 1", v.FailedLevel)
	}
}

func TestFlatInterleavedButCommuting(t *testing.T) {
	// Same interleaving, but no conflicts at all: every order is correct.
	sys := flatSystem(nil, nil)
	v := mustCheck(t, sys)
	if !v.Correct {
		t.Fatalf("expected correct, got: %s", v)
	}
}

func TestFigure2(t *testing.T) {
	v := mustCheck(t, Figure2System())
	if !v.Correct {
		t.Fatalf("Figure 2 execution should be Comp-C: %s", v)
	}
	if v.Order != 2 {
		t.Errorf("Order = %d, want 2", v.Order)
	}
	// The prose: the roots are incrementally related (T3 before T1 before
	// T2 in our concrete instance).
	if want := []model.NodeID{"T3", "T1", "T2"}; !reflect.DeepEqual(v.SerialOrder, want) {
		t.Errorf("serial witness = %v, want %v", v.SerialOrder, want)
	}
	// The level 1 front must relate the subtransactions cross-schedule.
	f1 := v.Fronts[1]
	if !f1.Obs.Has("t1", "t2") || !f1.Obs.Has("t3", "t1b") {
		t.Errorf("level 1 front observed order incomplete: %v", f1.Obs.Pairs())
	}
	// Cross-schedule observed pairs are generalized conflicts (Def 11.2).
	if !f1.Con.Has("t1", "t2") {
		t.Error("generalized conflict (t1,t2) missing")
	}
}

func TestFigure3Incorrect(t *testing.T) {
	v := mustCheck(t, Figure3System())
	if v.Correct {
		t.Fatalf("Figure 3 execution must not be Comp-C: %s", v)
	}
	if v.Order != 3 {
		t.Errorf("Order = %d, want 3", v.Order)
	}
	// The prose: the level 2 front exists; the failure is the final step.
	if v.FailedLevel != 3 {
		t.Errorf("FailedLevel = %d, want 3", v.FailedLevel)
	}
	last := v.Steps[len(v.Steps)-1]
	if last.Failure != FailIsolation {
		t.Errorf("failure kind = %v, want FailIsolation (no isolated execution for T1)", last.Failure)
	}
	// The level 1 front shows the two conflicts pulled up between
	// transaction pairs originating on different schedules.
	f1 := v.Fronts[1]
	if !f1.Obs.Has("up1", "uq2") || !f1.Obs.Has("up2", "uq1") {
		t.Errorf("level 1 front should contain the two pulled-up orders: %v", f1.Obs.Pairs())
	}
	if !f1.Con.Has("up1", "uq2") || !f1.Con.Has("up2", "uq1") {
		t.Errorf("level 1 front should mark both pairs conflicting: %v", f1.Con.Pairs())
	}
	// The level 2 front orders the mid-level transactions against each
	// other in both directions across the two roots.
	f2 := v.Fronts[2]
	if !f2.Obs.Has("p1", "q2") || !f2.Obs.Has("p2", "q1") {
		t.Errorf("level 2 front observed order incomplete: %v", f2.Obs.Pairs())
	}
	// The witness cycle involves both roots.
	cyc := map[model.NodeID]bool{}
	for _, n := range last.Cycle {
		cyc[n] = true
	}
	if !cyc["T1"] || !cyc["T2"] {
		t.Errorf("witness cycle %v should involve T1 and T2", last.Cycle)
	}
}

func TestFigure4Correct(t *testing.T) {
	v := mustCheck(t, Figure4System())
	if !v.Correct {
		t.Fatalf("Figure 4 execution should be Comp-C: %s", v)
	}
	if v.Order != 3 {
		t.Errorf("Order = %d, want 3", v.Order)
	}
	// Same interference pattern as Figure 3 at level 2...
	f2 := v.Fronts[2]
	if !f2.Obs.Has("p1", "q2") || !f2.Obs.Has("p2", "q1") {
		t.Errorf("level 2 front observed order incomplete: %v", f2.Obs.Pairs())
	}
	// ...but the pairs are between operations of the common schedule STop,
	// which declares no conflict, so they are not generalized conflicts...
	if f2.Con.Has("p1", "q2") || f2.Con.Has("p2", "q1") {
		t.Errorf("level 2 pairs should not be generalized conflicts: %v", f2.Con.Pairs())
	}
	// ...and the orders are forgotten at the final step: the level 3 front
	// has no observed order left.
	f3 := v.Fronts[3]
	if got := f3.Nodes(); !reflect.DeepEqual(got, []model.NodeID{"T1", "T2"}) {
		t.Fatalf("level 3 front = %v, want roots only", got)
	}
	if f3.Obs.Len() != 0 {
		t.Errorf("level 3 front observed order should be empty (forgotten), got %v", f3.Obs.Pairs())
	}
}

func TestFigure3Vs4OnlyDifferInConfiguration(t *testing.T) {
	// The two systems record the *same* leaf-level interference; only the
	// top-level configuration differs (two ignorant top schedules vs one
	// that vouches for commutativity). This is the paper's core point:
	// correctness depends on the configuration, not just the leaves.
	s3, s4 := Figure3System(), Figure4System()
	sd3, sd4 := s3.Schedule("SD"), s4.Schedule("SD")
	if !reflect.DeepEqual(sd3.Conflicts.Pairs(), sd4.Conflicts.Pairs()) {
		t.Error("leaf conflicts differ between Figure 3 and Figure 4 systems")
	}
	if !reflect.DeepEqual(sd3.WeakOut.Pairs(), sd4.WeakOut.Pairs()) {
		t.Error("leaf orders differ between Figure 3 and Figure 4 systems")
	}
}

func TestFigure1General(t *testing.T) {
	v := mustCheck(t, Figure1System())
	if !v.Correct {
		t.Fatalf("Figure 1 execution should be Comp-C: %s", v)
	}
	if v.Order != 3 {
		t.Errorf("Order = %d, want 3", v.Order)
	}
	// T4 must be serialized before T5 (they met at S4).
	pos := map[model.NodeID]int{}
	for i, n := range v.SerialOrder {
		pos[n] = i
	}
	if pos["T4"] > pos["T5"] {
		t.Errorf("serial witness %v should place T4 before T5", v.SerialOrder)
	}
	// T5/T6 interference at S5 is forgotten at S3 (their common schedule
	// declares no conflict), so the witness only needs T4 < T5.
	f3 := v.Fronts[3]
	if f3.Obs.Has("T5", "T6") || f3.Obs.Has("T6", "T5") {
		t.Errorf("T5/T6 order should have been forgotten at S3: %v", f3.Obs.Pairs())
	}
}

// TestUnevenHeightsOneSidedLift exercises interpretation D2: a pair whose
// endpoints are absorbed at different reduction steps must be lifted one
// side at a time.
func TestUnevenHeightsOneSidedLift(t *testing.T) {
	s := model.NewSystem()
	s.AddSchedule("STall")    // level 3
	s.AddSchedule("SMid")     // level 2
	s.AddSchedule("SFlat")    // level 2 (its root is short)
	sd := s.AddSchedule("SD") // level 1, shared

	// Tall root: TT -> tm (SMid) -> td (SD) -> leaf d1.
	s.AddRoot("TT", "STall")
	s.AddTx("tm", "TT", "SMid")
	s.AddTx("td", "tm", "SD")
	s.AddLeaf("d1", "td")

	// Short root: TS -> ts (SD) directly; TS is a transaction of SFlat.
	s.AddRoot("TS", "SFlat")
	s.AddTx("ts", "TS", "SD")
	s.AddLeaf("d2", "ts")

	sd.AddConflict("d1", "d2")
	sd.WeakOut.Add("d1", "d2")

	v := mustCheck(t, s)
	if !v.Correct {
		t.Fatalf("expected correct: %s", v)
	}
	// After step 1: td <o ts. After step 2 (SMid and SFlat): tm <o TS —
	// TS is final while tm still has one level to go.
	f2 := v.Fronts[2]
	if !f2.Obs.Has("tm", "TS") {
		t.Errorf("level 2 front should order tm before TS: %v", f2.Obs.Pairs())
	}
	if want := []model.NodeID{"TT", "TS"}; !reflect.DeepEqual(v.SerialOrder, want) {
		t.Errorf("serial witness = %v, want %v", v.SerialOrder, want)
	}
}

// TestCCFailureViaTransitiveInterference: a root requires data flow
// x1 before x2 (weak intra order), but a third party's conflicts serialize
// x2's effects before x1's through schedules the root never sees. The
// reduction must fail the conflict-consistency check (Definition 16 step 6).
func TestCCFailureViaTransitiveInterference(t *testing.T) {
	s := model.NewSystem()
	stop1 := s.AddSchedule("STop1") // level 3, schedules A
	s.AddSchedule("STop2")          // level 2, schedules C
	sm := s.AddSchedule("SM")       // level 2
	sd1 := s.AddSchedule("SD1")     // level 1
	sd2 := s.AddSchedule("SD2")     // level 1

	s.AddRoot("A", "STop1")
	s.AddTx("x1", "A", "SM")
	s.AddTx("x2", "A", "SM")
	s.Node("A").WeakIntra = order.FromPairs([2]model.NodeID{"x1", "x2"})
	stop1.WeakOut.Add("x1", "x2") // Def 3.2: output respects intra order
	sm.WeakIn.Add("x1", "x2")     // Def 4.7: passed down as input order

	s.AddTx("w1", "x1", "SD1")
	s.AddTx("w2", "x2", "SD2")
	s.AddLeaf("lw1", "w1")
	s.AddLeaf("lw2", "w2")

	s.AddRoot("C", "STop2")
	s.AddTx("c1", "C", "SD1")
	s.AddTx("c2", "C", "SD2")
	s.AddLeaf("lc1", "c1")
	s.AddLeaf("lc2", "c2")

	// C's SD1 work happened before x1's; x2's SD2 work happened before C's.
	sd1.AddConflict("lc1", "lw1")
	sd1.WeakOut.Add("lc1", "lw1")
	sd2.AddConflict("lw2", "lc2")
	sd2.WeakOut.Add("lw2", "lc2")

	v := mustCheck(t, s)
	if v.Correct {
		t.Fatalf("transitive interference against the data flow must be incorrect: %s", v)
	}
	if v.FailedLevel != 2 {
		t.Errorf("FailedLevel = %d, want 2", v.FailedLevel)
	}
	last := v.Steps[len(v.Steps)-1]
	if last.Failure != FailCC {
		t.Errorf("failure kind = %v, want FailCC", last.Failure)
	}
}

// TestWeakVsStrongInputOrder: the same interference is incorrect under a
// strong (temporal) order but correct under a weak one, because only
// strongly ordered pairs are pinned during the rearrangement
// (Definition 16 step 1) while weak orders constrain net effect only.
func TestWeakVsStrongInputOrder(t *testing.T) {
	build := func(strong bool) *model.System {
		s := model.NewSystem()
		s.AddSchedule("STop1")    // level 3: A
		s.AddSchedule("STop2")    // level 3: B
		sx := s.AddSchedule("SX") // level 1: x1, x2 (no conflicts there)
		s.AddSchedule("S2A")      // level 2: ya
		s.AddSchedule("S2B")      // level 2: yb
		sd := s.AddSchedule("SD") // level 1, shared by ya/yb subtrees

		s.AddRoot("A", "STop1")
		s.AddRoot("B", "STop2")
		s.AddTx("x1", "A", "SX")
		s.AddTx("x2", "B", "SX")
		s.AddLeaf("l1", "x1")
		s.AddLeaf("l2", "x2")

		s.AddTx("ya", "A", "S2A")
		s.AddTx("yb", "B", "S2B")
		s.AddTx("za", "ya", "SD")
		s.AddTx("zb", "yb", "SD")
		s.AddLeaf("la", "za")
		s.AddLeaf("lb", "zb")

		// Interference at SD puts B's work before A's.
		sd.AddConflict("la", "lb")
		sd.WeakOut.Add("lb", "la")

		// SX received x1 before x2.
		sx.WeakIn.Add("x1", "x2")
		if strong {
			sx.StrongIn.Add("x1", "x2")
			sx.StrongOut.Add("l1", "l2") // Def 3.3
			sx.WeakOut.Add("l1", "l2")
		}
		return s
	}

	weak := mustCheck(t, build(false))
	if !weak.Correct {
		t.Fatalf("weakly ordered variant should be correct: %s", weak)
	}
	strong := mustCheck(t, build(true))
	if strong.Correct {
		t.Fatalf("strongly ordered variant must be incorrect: %s", strong)
	}
	last := strong.Steps[len(strong.Steps)-1]
	if last.Failure != FailIsolation {
		t.Errorf("failure kind = %v, want FailIsolation", last.Failure)
	}
}

func TestEmptyTransaction(t *testing.T) {
	s := model.NewSystem()
	s.AddSchedule("S")
	s.AddRoot("T1", "S")
	s.AddRoot("T2", "S")
	s.AddLeaf("a", "T1")
	// T2 has no operations at all.
	v := mustCheck(t, s)
	if !v.Correct {
		t.Fatalf("empty transaction should be trivially correct: %s", v)
	}
	if len(v.SerialOrder) != 2 {
		t.Errorf("serial witness %v should include the empty transaction", v.SerialOrder)
	}
}

func TestSingleRootSingleLeaf(t *testing.T) {
	s := model.NewSystem()
	s.AddSchedule("S")
	s.AddRoot("T", "S")
	s.AddLeaf("a", "T")
	v := mustCheck(t, s)
	if !v.Correct || v.Order != 1 {
		t.Fatalf("trivial system: %s (order %d)", v, v.Order)
	}
}

func TestCheckRejectsRecursiveConfiguration(t *testing.T) {
	s := model.NewSystem()
	s.AddSchedule("SA")
	s.AddSchedule("SB")
	s.AddRoot("T", "SA")
	s.AddTx("t1", "T", "SB")
	s.AddTx("t2", "t1", "SA")
	if _, err := Check(s, Options{}); err == nil {
		t.Fatal("Check must reject recursive configurations")
	}
}

func TestVerdictStringAndTrace(t *testing.T) {
	v := mustCheck(t, Figure3System())
	if s := v.String(); s == "" {
		t.Error("empty String")
	}
	tr := v.Trace()
	if tr == "" {
		t.Error("empty Trace")
	}
	ok := mustCheck(t, Figure4System())
	if s := ok.String(); s == "" {
		t.Error("empty String for correct verdict")
	}
	if tr := ok.Trace(); tr == "" {
		t.Error("empty Trace for correct verdict")
	}
}

func TestIsCompC(t *testing.T) {
	ok, err := IsCompC(Figure4System())
	if err != nil || !ok {
		t.Fatalf("IsCompC(fig4) = %v, %v; want true, nil", ok, err)
	}
	ok, err = IsCompC(Figure3System())
	if err != nil || ok {
		t.Fatalf("IsCompC(fig3) = %v, %v; want false, nil", ok, err)
	}
}

func TestCheckDoesNotMutate(t *testing.T) {
	sys := Figure3System()
	before := sys.Schedule("SD").WeakOut.Pairs()
	if _, err := Check(sys, Options{}); err != nil {
		t.Fatal(err)
	}
	after := sys.Schedule("SD").WeakOut.Pairs()
	if !reflect.DeepEqual(before, after) {
		t.Fatal("Check mutated the input system")
	}
}
