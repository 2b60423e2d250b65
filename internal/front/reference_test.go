package front

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"compositetx/internal/model"
	"compositetx/internal/order"
)

// groupByPrefix groups node names by their first rune ("a1" -> "a").
func groupByPrefix(n model.NodeID) model.NodeID { return n[:1] }

func TestGroupableSimple(t *testing.T) {
	// Two groups a{a1,a2} and b{b1}: a1 -> b1 -> is fine, groups contiguous.
	r := order.FromPairs([2]model.NodeID{"a1", "a2"}, [2]model.NodeID{"a2", "b1"})
	ok, _, _ := groupable(r, groupByPrefix)
	if !ok {
		t.Fatal("straight-line grouping should be possible")
	}
}

func TestGroupableInterleavingForced(t *testing.T) {
	// a1 -> b1 -> a2 forces b1 in between a's operations: quotient cycle a<->b.
	r := order.FromPairs([2]model.NodeID{"a1", "b1"}, [2]model.NodeID{"b1", "a2"})
	ok, _, cyc := groupable(r, groupByPrefix)
	if ok {
		t.Fatal("interleaving a1->b1->a2 must not be groupable")
	}
	if len(cyc) == 0 {
		t.Fatal("expected a quotient cycle to be reported")
	}
	joined := fmt.Sprint(cyc)
	if !strings.Contains(joined, "a") || !strings.Contains(joined, "b") {
		t.Fatalf("quotient cycle %v should involve groups a and b", cyc)
	}
}

func TestGroupableInternalCycle(t *testing.T) {
	r := order.FromPairs([2]model.NodeID{"a1", "a2"}, [2]model.NodeID{"a2", "a1"})
	ok, bad, _ := groupable(r, groupByPrefix)
	if ok {
		t.Fatal("internally cyclic group must fail")
	}
	if bad != "a" {
		t.Fatalf("bad group = %q, want a", bad)
	}
}

// groupedTopoSort orders every node so that each group is contiguous and
// every pair of r is respected: groups in quotient topological order, each
// group in its internal topological order. ok is false when that fails.
func groupedTopoSort(r *order.Relation[model.NodeID], groupOf func(model.NodeID) model.NodeID) (sorted []model.NodeID, ok bool) {
	groups, ok := r.Map(groupOf).TopoSort()
	if !ok {
		return nil, false
	}
	for _, g := range groups {
		inner, ok := r.Restrict(func(n model.NodeID) bool { return groupOf(n) == g }).TopoSort()
		if !ok {
			return nil, false
		}
		sorted = append(sorted, inner...)
	}
	return sorted, len(sorted) == len(r.Nodes())
}

// Property: whenever groupable says yes, a grouped topological sort
// produces a valid witness (contiguous groups, all pairs respected);
// whenever it says no, the sort fails too.
func TestGroupableWitnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := order.New[model.NodeID]()
		nodes := []model.NodeID{}
		for g := 0; g < 3; g++ {
			for i := 0; i < 3; i++ {
				n := model.NodeID(fmt.Sprintf("%c%d", 'a'+g, i))
				nodes = append(nodes, n)
				r.AddNode(n)
			}
		}
		for k := 0; k < 7; k++ {
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			if a != b {
				r.Add(a, b)
			}
		}
		ok, _, _ := groupable(r, groupByPrefix)
		sorted, sortOK := groupedTopoSort(r, groupByPrefix)
		if ok != sortOK {
			return false
		}
		if !ok {
			return true
		}
		pos := map[model.NodeID]int{}
		for i, n := range sorted {
			pos[n] = i
		}
		good := true
		r.Each(func(a, b model.NodeID) {
			if pos[a] >= pos[b] {
				good = false
			}
		})
		// Contiguity.
		cur, seen := model.NodeID(""), map[model.NodeID]bool{}
		for _, n := range sorted {
			g := groupByPrefix(n)
			if g != cur {
				if seen[g] {
					good = false
				}
				seen[g] = true
				cur = g
			}
		}
		return good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
