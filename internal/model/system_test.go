package model

import (
	"reflect"
	"testing"
	"time"

	"compositetx/internal/order"
)

// buildStack constructs a well-formed 2-level stack execution:
//
//	S2 schedules roots T1, T2; their operations t11, t12, t21 are
//	transactions of S1; S1's operations are leaves.
//
//	T1 = {t11, t12},   T2 = {t21}
//	t11 = {a1}, t12 = {b1}, t21 = {a2}
//	CON_S1 = {(a1, a2)}, S1 executed a1 ≺ a2.
func buildStack(t testing.TB) *System {
	t.Helper()
	s := NewSystem()
	s.AddSchedule("S2")
	s1 := s.AddSchedule("S1")

	s.AddRoot("T1", "S2")
	s.AddRoot("T2", "S2")
	s.AddTx("t11", "T1", "S1")
	s.AddTx("t12", "T1", "S1")
	s.AddTx("t21", "T2", "S1")
	s.AddLeaf("a1", "t11")
	s.AddLeaf("b1", "t12")
	s.AddLeaf("a2", "t21")

	s1.AddConflict("a1", "a2")
	s1.WeakOut.Add("a1", "a2")

	s2 := s.Schedule("S2")
	s2.AddConflict("t11", "t21")
	s2.WeakOut.Add("t11", "t21")
	// Definition 4 item 7: S2's output order between ops sent to S1 becomes
	// S1's input order.
	s1.WeakIn.Add("t11", "t21")

	if err := s.Validate(); err != nil {
		t.Fatalf("fixture stack should validate: %v", err)
	}
	return s
}

// buildGeneral constructs a Figure-1-style general configuration:
// two roots in different top schedules, a shared bottom schedule, and
// subtrees of different heights.
//
//	SA (level 3) schedules TA;   TA invokes tm (SM, level 2) and leaf x.
//	SB (level 2) schedules TB;   TB invokes tb (SD, level 1).
//	tm invokes td (SD, level 1).
//	SD's operations are leaves: d1 (of td), d2 (of tb), conflicting.
func buildGeneral(t testing.TB) *System {
	t.Helper()
	s := NewSystem()
	s.AddSchedule("SA")
	s.AddSchedule("SB")
	s.AddSchedule("SM")
	sd := s.AddSchedule("SD")

	s.AddRoot("TA", "SA")
	s.AddRoot("TB", "SB")
	s.AddTx("tm", "TA", "SM")
	s.AddLeaf("x", "TA")
	s.AddTx("tb", "TB", "SD")
	s.AddTx("td", "tm", "SD")
	s.AddLeaf("d1", "td")
	s.AddLeaf("d2", "tb")

	sd.AddConflict("d1", "d2")
	sd.WeakOut.Add("d1", "d2")

	if err := s.Validate(); err != nil {
		t.Fatalf("fixture general should validate: %v", err)
	}
	return s
}

func TestRootsLeavesTransactions(t *testing.T) {
	s := buildStack(t)
	if got, want := s.Roots(), []NodeID{"T1", "T2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Roots = %v, want %v", got, want)
	}
	if got, want := s.Leaves(), []NodeID{"a1", "a2", "b1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Leaves = %v, want %v", got, want)
	}
	if got, want := s.Transactions("S1"), []NodeID{"t11", "t12", "t21"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Transactions(S1) = %v, want %v", got, want)
	}
	if got, want := s.Ops("S1"), []NodeID{"a1", "a2", "b1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Ops(S1) = %v, want %v", got, want)
	}
	if got, want := s.Ops("S2"), []NodeID{"t11", "t12", "t21"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Ops(S2) = %v, want %v", got, want)
	}
}

func TestParentDefinition5(t *testing.T) {
	s := buildStack(t)
	if got := s.Parent("a1"); got != "t11" {
		t.Errorf("Parent(a1) = %s, want t11", got)
	}
	if got := s.Parent("t11"); got != "T1" {
		t.Errorf("Parent(t11) = %s, want T1", got)
	}
	// Definition 5: the parent of a root is the root itself.
	if got := s.Parent("T1"); got != "T1" {
		t.Errorf("Parent(T1) = %s, want T1 (roots are their own parent)", got)
	}
	if got := s.Parent("nope"); got != "" {
		t.Errorf("Parent of unknown node = %q, want empty", got)
	}
}

func TestOpSchedule(t *testing.T) {
	s := buildStack(t)
	if got := s.OpSchedule("a1"); got != "S1" {
		t.Errorf("OpSchedule(a1) = %s, want S1", got)
	}
	if got := s.OpSchedule("t11"); got != "S2" {
		t.Errorf("OpSchedule(t11) = %s, want S2", got)
	}
	if got := s.OpSchedule("T1"); got != "" {
		t.Errorf("OpSchedule(T1) = %s, want empty (roots are ops of no schedule)", got)
	}
}

func TestDescendantsAndCompositeTransaction(t *testing.T) {
	s := buildGeneral(t)
	if got, want := s.Descendants("TA"), []NodeID{"d1", "td", "tm", "x"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Descendants(TA) = %v, want %v", got, want)
	}
	if got, want := s.CompositeTransaction("TB"), []NodeID{"TB", "d2", "tb"}; !reflect.DeepEqual(got, want) {
		t.Errorf("CompositeTransaction(TB) = %v, want %v", got, want)
	}
}

// TestDescendantsReturnOnParentCycle builds the two parent cycles the
// builder adopts: a transaction under itself, and two transactions each
// naming the other. The walks return, each node once, and Validate
// rejects both forests.
func TestDescendantsReturnOnParentCycle(t *testing.T) {
	self := NewSystem()
	self.AddSchedule("S")
	self.AddTx("t", "t", "S")
	two := NewSystem()
	two.AddSchedule("S")
	two.AddTx("a", "b", "S")
	two.AddTx("b", "a", "S")
	for _, c := range []struct {
		name      string
		sys       *System
		root      NodeID
		desc, ctx []NodeID
	}{
		{"self", self, "t", nil, []NodeID{"t"}},
		{"two", two, "a", []NodeID{"b"}, []NodeID{"a", "b"}},
	} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if got := c.sys.Descendants(c.root); !reflect.DeepEqual(got, c.desc) {
				t.Errorf("%s: Descendants(%s) = %v, want %v", c.name, c.root, got, c.desc)
			}
			if got := c.sys.CompositeTransaction(c.root); !reflect.DeepEqual(got, c.ctx) {
				t.Errorf("%s: CompositeTransaction(%s) = %v, want %v", c.name, c.root, got, c.ctx)
			}
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: the descendant walk did not return", c.name)
		}
		if err := c.sys.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a parent cycle", c.name)
		}
	}
}

func TestInvocationGraphAndLevels(t *testing.T) {
	s := buildGeneral(t)
	ig := s.InvocationGraph()
	for _, e := range [][2]ScheduleID{{"SA", "SM"}, {"SM", "SD"}, {"SB", "SD"}} {
		if !ig.Has(e[0], e[1]) {
			t.Errorf("IG missing edge %v", e)
		}
	}
	if ig.Has("SD", "SM") {
		t.Error("IG has a reversed edge")
	}
	levels, err := s.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := map[ScheduleID]int{"SD": 1, "SM": 2, "SB": 2, "SA": 3}
	if !reflect.DeepEqual(levels, want) {
		t.Errorf("Levels = %v, want %v", levels, want)
	}
	n, err := s.Order()
	if err != nil || n != 3 {
		t.Errorf("Order = %d, %v; want 3, nil", n, err)
	}
}

func TestLevelsRejectRecursion(t *testing.T) {
	s := NewSystem()
	s.AddSchedule("SA")
	s.AddSchedule("SB")
	s.AddRoot("T1", "SA")
	s.AddTx("t1", "T1", "SB") // SA invokes SB
	s.AddTx("t2", "t1", "SA") // SB invokes SA: recursion
	if _, err := s.Levels(); err == nil {
		t.Fatal("Levels should fail on a recursive configuration")
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject a recursive configuration")
	}
}

func TestValidateRejectsSelfInvocation(t *testing.T) {
	s := NewSystem()
	s.AddSchedule("S")
	s.AddRoot("T1", "S")
	s.AddTx("t1", "T1", "S") // operation of S that is a transaction of S
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject self-invocation")
	}
}

func TestValidateRejectsMissingParent(t *testing.T) {
	s := NewSystem()
	s.AddSchedule("S")
	s.AddLeaf("a", "ghost")
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject a dangling parent")
	}
}

func TestValidateRejectsLeafWithChildren(t *testing.T) {
	s := NewSystem()
	s.AddSchedule("S")
	s.AddRoot("T", "S")
	s.AddLeaf("a", "T")
	s.AddLeaf("b", "a") // child of a leaf
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject operations under a leaf")
	}
}

func TestValidateRejectsUnorderedConflicts(t *testing.T) {
	s := NewSystem()
	sc := s.AddSchedule("S")
	s.AddRoot("T1", "S")
	s.AddRoot("T2", "S")
	s.AddLeaf("a", "T1")
	s.AddLeaf("b", "T2")
	sc.AddConflict("a", "b")
	// No weak output order between a and b: violates Def 3.1c.
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should require conflicting operations to be ordered")
	}
	sc.WeakOut.Add("a", "b")
	if err := s.Validate(); err != nil {
		t.Fatalf("ordered conflict should validate: %v", err)
	}
}

func TestValidateWeakInputForcesOutputDirection(t *testing.T) {
	s := NewSystem()
	sc := s.AddSchedule("S")
	s.AddRoot("T1", "S")
	s.AddRoot("T2", "S")
	s.AddLeaf("a", "T1")
	s.AddLeaf("b", "T2")
	sc.AddConflict("a", "b")
	sc.WeakIn.Add("T1", "T2")
	sc.WeakOut.Add("b", "a") // wrong direction
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject output order contradicting weak input order (Def 3.1a)")
	}
	sc.WeakOut = order.FromPairs([2]NodeID{"a", "b"})
	if err := s.Validate(); err != nil {
		t.Fatalf("correct direction should validate: %v", err)
	}
}

func TestValidateStrongInputForcesStrongOutput(t *testing.T) {
	s := NewSystem()
	sc := s.AddSchedule("S")
	s.AddRoot("T1", "S")
	s.AddRoot("T2", "S")
	s.AddLeaf("a", "T1")
	s.AddLeaf("b", "T2")
	sc.StrongIn.Add("T1", "T2")
	sc.WeakIn.Add("T1", "T2")
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should require a≪b when T1⇒T2 (Def 3.3)")
	}
	sc.StrongOut.Add("a", "b")
	if err := s.Validate(); err != nil {
		t.Fatalf("system with strong output order should validate: %v", err)
	}
}

func TestValidateIntraOrderRespected(t *testing.T) {
	s := NewSystem()
	sc := s.AddSchedule("S")
	s.AddRoot("T1", "S")
	s.AddLeaf("a", "T1")
	s.AddLeaf("b", "T1")
	s.Node("T1").WeakIntra = order.FromPairs([2]NodeID{"a", "b"})
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should require the schedule to respect intra orders (Def 3.2)")
	}
	sc.WeakOut.Add("a", "b")
	if err := s.Validate(); err != nil {
		t.Fatalf("respected intra order should validate: %v", err)
	}
}

func TestValidateDef47Propagation(t *testing.T) {
	s := buildStack(t)
	// Break the propagation: remove S1's weak input order pair.
	s.Schedule("S1").WeakIn = order.New[NodeID]()
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should require output orders to be passed down (Def 4.7)")
	}
}

func TestValidateCyclicOutputOrder(t *testing.T) {
	s := NewSystem()
	sc := s.AddSchedule("S")
	s.AddRoot("T1", "S")
	s.AddRoot("T2", "S")
	s.AddLeaf("a", "T1")
	s.AddLeaf("b", "T2")
	sc.WeakOut.Add("a", "b")
	sc.WeakOut.Add("b", "a")
	if err := s.Validate(); err == nil {
		t.Fatal("Validate should reject a cyclic weak output order")
	}
}

func TestNormalizeClosesAndFolds(t *testing.T) {
	s := NewSystem()
	sc := s.AddSchedule("S")
	s.AddRoot("T1", "S")
	s.AddRoot("T2", "S")
	s.AddRoot("T3", "S")
	s.AddLeaf("a", "T1")
	s.AddLeaf("b", "T2")
	s.AddLeaf("c", "T3")
	sc.WeakOut.Add("a", "b")
	sc.WeakOut.Add("b", "c")
	sc.StrongOut.Add("c", "c2")
	s.AddLeaf("c2", "T3")
	s.Normalize()
	if !sc.WeakOut.Has("a", "c") {
		t.Error("Normalize should transitively close the weak output order")
	}
	if !sc.WeakOut.Has("c", "c2") {
		t.Error("Normalize should fold strong output pairs into the weak order (≪ ⊆ ≺)")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := buildStack(t)
	c := s.Clone()
	c.Schedule("S1").WeakOut.Add("b1", "a1")
	if s.Schedule("S1").WeakOut.Has("b1", "a1") {
		t.Fatal("Clone shares schedule relations with the original")
	}
	c.Node("T1").WeakIntra = order.FromPairs([2]NodeID{"t11", "t12"})
	if s.Node("T1").WeakIntra != nil {
		t.Fatal("Clone shares node state with the original")
	}
}

func TestLeafAndInternalSchedules(t *testing.T) {
	s := buildGeneral(t)
	levels, err := s.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// A leaf schedule (level 1) has only leaf operations.
	for _, op := range s.Ops("SD") {
		if !s.Node(op).IsLeaf() {
			t.Errorf("SD (level %d) has non-leaf op %s", levels["SD"], op)
		}
	}
	// SA is internal and also has a leaf operation x (allowed by Def 4.2).
	var hasLeaf, hasTx bool
	for _, op := range s.Ops("SA") {
		if s.Node(op).IsLeaf() {
			hasLeaf = true
		} else {
			hasTx = true
		}
	}
	if !hasLeaf || !hasTx {
		t.Error("SA should have both a leaf op and a transaction op")
	}
}

// TestOrphansAdoptedOnArrival adds children before their parent: until the
// parent arrives they are reachable by its ID (Children, Descendants) and
// the forest is unsound; reading them leaves them intact, and the parent
// adopts them when it is added.
func TestOrphansAdoptedOnArrival(t *testing.T) {
	s := NewSystem()
	s.AddLeaf("l", "t")
	s.AddTx("t", "T", "S1") // schedule S1 and root T come later
	if got := s.Descendants("T"); !reflect.DeepEqual(got, []NodeID{"l", "t"}) {
		t.Fatalf("Descendants(T) before T = %v", got)
	}
	if err := s.ValidateStructure(); err == nil {
		t.Fatal("a forest with a missing parent and schedule validated")
	}
	s.AddSchedule("S2")
	s.AddSchedule("S1")
	s.AddRoot("T", "S2")
	if got := s.Children("T"); !reflect.DeepEqual(got, []NodeID{"t"}) {
		t.Fatalf("Children(T) = %v, want [t]", got)
	}
	if s.Node("t").ParentRef() != s.Ref("T") || s.ScheduleAt(s.Node("t").SchedNum()).ID != "S1" {
		t.Fatalf("t not adopted: parent %d (T is %d), schedule %d", s.Node("t").ParentRef(), s.Ref("T"), s.Node("t").SchedNum())
	}
	if err := s.ValidateStructure(); err != nil {
		t.Fatalf("adopted forest: %v", err)
	}
}
