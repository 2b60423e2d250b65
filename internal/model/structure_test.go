package model

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"compositetx/internal/order"
)

// malformed is the table of structurally unsound systems whose
// ValidateStructure text is frozen: recorded by running this table at the
// commit before Structure existed (two sorted passes, one map per node),
// so the one-pass form is held to the same wording and the same order.
var malformed = []struct {
	name  string
	build func(s *System)
	want  string
}{
	{"sound", func(s *System) {
		s.AddSchedule("S")
		s.AddLeaf("a", s.AddRoot("T", "S").ID)
	}, ""},
	{"missing parent", func(s *System) {
		s.AddSchedule("S")
		s.AddLeaf("a", "ghost")
		s.AddTx("t", "phantom", "S")
	}, strings.Join([]string{
		"node a: parent ghost does not exist",
		"node t: parent phantom does not exist",
	}, "\n")},
	{"leaf parent", func(s *System) {
		s.AddSchedule("S")
		s.AddRoot("T", "S")
		s.AddLeaf("a", "T")
		s.AddLeaf("b", "a")
	}, strings.Join([]string{
		"leaf a has children [b]",
		"node b: parent a is a leaf; only transactions have operations",
	}, "\n")},
	{"self parent", func(s *System) {
		s.AddSchedule("S")
		s.AddTx("t", "t", "S")
		s.AddLeaf("a", "t")
	}, strings.Join([]string{
		"node a: cyclic parent chain through t",
		"node t: cyclic parent chain through t",
	}, "\n")},
	{"2-node parent cycle reached from several nodes", func(s *System) {
		s.AddSchedule("S")
		s.AddSchedule("S2")
		s.AddTx("a", "b", "S")
		s.AddTx("b", "a", "S2")
		s.AddTx("c", "a", "S2")
		s.AddLeaf("d", "c")
		s.AddLeaf("e", "b")
		s.AddLeaf("x", s.AddRoot("T", "S").ID) // a sound tree beside it
	}, strings.Join([]string{
		"node a: cyclic parent chain through a",
		"node b: cyclic parent chain through b",
		"node c: cyclic parent chain through a",
		"node d: cyclic parent chain through a",
		"node e: cyclic parent chain through b",
	}, "\n")},
	{"3-node parent cycle reached from several nodes", func(s *System) {
		for _, id := range []ScheduleID{"S1", "S2", "S3", "S4"} {
			s.AddSchedule(id)
		}
		s.AddTx("x", "z", "S1")
		s.AddTx("y", "x", "S2")
		s.AddTx("z", "y", "S3")
		s.AddTx("p", "x", "S4")
		s.AddLeaf("q", "p")
		s.AddLeaf("r", "z")
		s.AddLeaf("a", "y")
	}, strings.Join([]string{
		"node a: cyclic parent chain through y",
		"node p: cyclic parent chain through x",
		"node q: cyclic parent chain through x",
		"node r: cyclic parent chain through z",
		"node x: cyclic parent chain through x",
		"node y: cyclic parent chain through y",
		"node z: cyclic parent chain through z",
	}, "\n")},
	{"leaf with children", func(s *System) {
		s.AddSchedule("S")
		s.AddRoot("T", "S")
		s.AddLeaf("l", "T")
		s.AddLeaf("k2", "l")
		s.AddLeaf("k1", "l")
	}, strings.Join([]string{
		"node k1: parent l is a leaf; only transactions have operations",
		"node k2: parent l is a leaf; only transactions have operations",
		"leaf l has children [k1 k2]",
	}, "\n")},
	{"leaf with intra order", func(s *System) {
		s.AddSchedule("S")
		s.AddRoot("T", "S")
		s.AddLeaf("a", "T").WeakIntra = order.FromPairs([2]NodeID{"u", "v"})
		s.AddLeaf("b", "T").StrongIntra = order.FromPairs([2]NodeID{"u", "v"})
		s.AddLeaf("c", "T").WeakIntra = order.New[NodeID]() // empty: fine
	}, strings.Join([]string{
		"leaf a carries intra-transaction orders",
		"leaf b carries intra-transaction orders",
	}, "\n")},
	{"unknown schedule", func(s *System) {
		s.AddSchedule("S")
		s.AddRoot("T", "nope")
		s.AddTx("t", "T", "S")
	}, "transaction T: schedule nope does not exist"},
	{"self-invoking schedule", func(s *System) {
		s.AddSchedule("R")
		s.AddSchedule("S")
		s.AddRoot("T", "S")
		s.AddTx("t", "T", "S")
		s.AddRoot("U", "R")
		s.AddTx("u", "U", "R")
	}, strings.Join([]string{
		"schedule R invokes itself",
		"schedule S invokes itself",
		"invocation graph is cyclic: [R]",
	}, "\n")},
	{"cyclic invocation graph", func(s *System) {
		s.AddSchedule("SA")
		s.AddSchedule("SB")
		s.AddSchedule("SC")
		s.AddRoot("T", "SA")
		s.AddTx("t1", "T", "SB")
		s.AddTx("t2", "t1", "SC")
		s.AddTx("t3", "t2", "SA")
	}, "invocation graph is cyclic: [SA SB SC]"},
	{"forest errors (per node in ID order, then parent cycles) hide the IG's", func(s *System) {
		s.AddSchedule("S")
		s.AddRoot("T", "S")
		s.AddTx("t", "T", "S") // S invokes itself: not reported below
		s.AddLeaf("z", "ghost")
		s.AddRoot("B", "nope")
		s.AddTx("m", "n", "S")
		s.AddTx("n", "m", "S")
	}, strings.Join([]string{
		"transaction B: schedule nope does not exist",
		"node z: parent ghost does not exist",
		"node m: cyclic parent chain through m",
		"node n: cyclic parent chain through n",
	}, "\n")},
}

func TestValidateStructureErrorText(t *testing.T) {
	for _, tc := range malformed {
		s := NewSystem()
		tc.build(s)
		got := ""
		if err := s.ValidateStructure(); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// TestStructureIsTheOnePass checks the method ValidateStructure and Levels
// are thin callers of: the same error from all three on every malformed
// system, and on a sound one the sorted IDs and the level assignment.
func TestStructureIsTheOnePass(t *testing.T) {
	for _, tc := range malformed {
		s := NewSystem()
		tc.build(s)
		ids, levels, err := s.Structure()
		if tc.want == "" {
			if err != nil || !reflect.DeepEqual(ids, s.NodeIDs()) || !reflect.DeepEqual(levels, map[ScheduleID]int{"S": 1}) {
				t.Errorf("%s: Structure = %v, %v, %v", tc.name, ids, levels, err)
			}
			continue
		}
		if err == nil || err.Error() != tc.want || ids != nil || levels != nil {
			t.Errorf("%s: Structure = %v, %v, %v", tc.name, ids, levels, err)
		}
		if l, lerr := s.Levels(); l != nil || lerr == nil || lerr.Error() != tc.want {
			t.Errorf("%s: Levels = %v, %v", tc.name, l, lerr)
		}
	}
	s := buildGeneral(t)
	ids, levels, err := s.Structure()
	want := map[ScheduleID]int{"SD": 1, "SM": 2, "SB": 2, "SA": 3}
	if err != nil || !reflect.DeepEqual(ids, s.NodeIDs()) || !reflect.DeepEqual(levels, want) {
		t.Errorf("Structure = %v, %v, %v; want the sorted IDs and %v", ids, levels, err, want)
	}
}

// TestStructureDeepChainAllocations validates a 5 000-deep parent chain —
// one transaction and one schedule per level, so the invocation graph is
// a 5 000-long path too. The parent-chain check is one colour table over
// all nodes: allocations stay linear in n (≈ 5 per node, the invocation
// graph's). A map per node, each as large as the chain above it, made
// 162 039 of them and took 4.5 s.
func TestStructureDeepChainAllocations(t *testing.T) {
	const n = 5000
	s := NewSystem()
	parent := NodeID("")
	for i := 0; i < n; i++ {
		sc := ScheduleID(fmt.Sprintf("S%04d", i))
		s.AddSchedule(sc)
		id := NodeID(fmt.Sprintf("T%04d", i))
		s.addNode(id, parent, sc)
		parent = id
	}
	s.AddLeaf("leaf", parent)
	var levels map[ScheduleID]int
	var err error
	allocs := testing.AllocsPerRun(3, func() { _, levels, err = s.Structure() })
	if err != nil || levels["S0000"] != n || levels[ScheduleID(fmt.Sprintf("S%04d", n-1))] != 1 {
		t.Fatalf("Structure: err = %v, level(S0000) = %d, want %d", err, levels["S0000"], n)
	}
	t.Logf("%d nodes: %.0f allocations", n+1, allocs)
	if allocs > 8*n {
		t.Errorf("%.0f allocations for %d nodes, want at most %d", allocs, n+1, 8*n)
	}
}
