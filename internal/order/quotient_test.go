package order

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// groupByPrefix groups node names by their first rune ("a1" -> "a").
func groupByPrefix(n string) string { return n[:1] }

func TestGroupableBySimple(t *testing.T) {
	// Two groups a{a1,a2} and b{b1}: a1 -> b1 -> is fine, groups contiguous.
	r := FromPairs([2]string{"a1", "a2"}, [2]string{"a2", "b1"})
	ok, _, _ := r.GroupableBy(groupByPrefix)
	if !ok {
		t.Fatal("straight-line grouping should be possible")
	}
}

func TestGroupableByInterleavingForced(t *testing.T) {
	// a1 -> b1 -> a2 forces b1 in between a's operations: quotient cycle a<->b.
	r := FromPairs([2]string{"a1", "b1"}, [2]string{"b1", "a2"})
	ok, _, cyc := r.GroupableBy(groupByPrefix)
	if ok {
		t.Fatal("interleaving a1->b1->a2 must not be groupable")
	}
	if len(cyc) == 0 {
		t.Fatal("expected a quotient cycle to be reported")
	}
	joined := strings.Join(cyc, "")
	if !strings.Contains(joined, "a") || !strings.Contains(joined, "b") {
		t.Fatalf("quotient cycle %v should involve groups a and b", cyc)
	}
}

func TestGroupableByInternalCycle(t *testing.T) {
	r := FromPairs([2]string{"a1", "a2"}, [2]string{"a2", "a1"})
	ok, bad, _ := r.GroupableBy(groupByPrefix)
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
func groupedTopoSort(r *Relation[string], groupOf func(string) string) (sorted []string, ok bool) {
	groups, ok := r.Quotient(groupOf).TopoSort()
	if !ok {
		return nil, false
	}
	for _, g := range groups {
		inner, ok := r.Restrict(func(n string) bool { return groupOf(n) == g }).TopoSort()
		if !ok {
			return nil, false
		}
		sorted = append(sorted, inner...)
	}
	return sorted, len(sorted) == len(r.Nodes())
}

// Property: whenever GroupableBy says yes, a grouped topological sort
// produces a valid witness (contiguous groups, all pairs respected);
// whenever it says no, the sort fails too.
func TestGroupableByWitnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New[string]()
		nodes := []string{}
		for g := 0; g < 3; g++ {
			for i := 0; i < 3; i++ {
				n := fmt.Sprintf("%c%d", 'a'+g, i)
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
		ok, _, _ := r.GroupableBy(groupByPrefix)
		sorted, sortOK := groupedTopoSort(r, groupByPrefix)
		if ok != sortOK {
			return false
		}
		if !ok {
			return true
		}
		pos := map[string]int{}
		for i, n := range sorted {
			pos[n] = i
		}
		good := true
		r.Each(func(a, b string) {
			if pos[a] >= pos[b] {
				good = false
			}
		})
		// Contiguity.
		cur, seen := "", map[string]bool{}
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
