package order

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHasCycle(t *testing.T) {
	tests := []struct {
		name  string
		pairs [][2]string
		want  bool
	}{
		{"empty", nil, false},
		{"chain", [][2]string{{"a", "b"}, {"b", "c"}}, false},
		{"self", [][2]string{{"a", "a"}}, true},
		{"two-cycle", [][2]string{{"a", "b"}, {"b", "a"}}, true},
		{"long-cycle", [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "a"}}, true},
		{"diamond-acyclic", [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := FromPairs(tc.pairs...)
			if got := r.HasCycle(); got != tc.want {
				t.Fatalf("HasCycle = %v, want %v", got, tc.want)
			}
			if got := r.IsAcyclic(); got == tc.want {
				t.Fatalf("IsAcyclic must be the negation of HasCycle")
			}
		})
	}
}

func TestFindCycleReturnsRealCycle(t *testing.T) {
	r := FromPairs(
		[2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "a"},
		[2]string{"x", "y"},
	)
	c := r.FindCycle()
	if len(c) != 3 {
		t.Fatalf("cycle length = %d, want 3 (%v)", len(c), c)
	}
	for i := range c {
		if !r.Has(c[i], c[(i+1)%len(c)]) {
			t.Fatalf("reported cycle %v uses pair (%s,%s) not in relation", c, c[i], c[(i+1)%len(c)])
		}
	}
}

func TestFindCycleSelfPair(t *testing.T) {
	r := FromPairs([2]string{"a", "a"})
	c := r.FindCycle()
	if len(c) != 1 || c[0] != "a" {
		t.Fatalf("self-pair cycle = %v, want [a]", c)
	}
}

// Property: FindCycle returns a valid cycle whenever it returns non-nil, and
// returns nil exactly when TopoSort succeeds.
func TestCycleVsTopoSortConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := randomRelation(rand.New(rand.NewSource(seed)), 9, 12)
		c := r.FindCycle()
		_, sortOK := r.TopoSort()
		if (c == nil) != sortOK {
			return false
		}
		if c != nil {
			for i := range c {
				if !r.Has(c[i], c[(i+1)%len(c)]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopoSortRespectsPairsAndIsDeterministic(t *testing.T) {
	r := FromPairs(
		[2]string{"c", "a"},
		[2]string{"c", "b"},
		[2]string{"a", "d"},
		[2]string{"b", "d"},
	)
	got, ok := r.TopoSort()
	if !ok {
		t.Fatal("TopoSort failed on a DAG")
	}
	want := []string{"c", "a", "b", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopoSort = %v, want %v (lexicographic tie-break)", got, want)
	}
}

func TestTopoSortIncludesIsolatedNodes(t *testing.T) {
	r := New[string]()
	r.AddNode("solo")
	r.Add("a", "b")
	got, ok := r.TopoSort()
	if !ok || len(got) != 3 {
		t.Fatalf("TopoSort = %v ok=%v, want 3 nodes", got, ok)
	}
}

func TestTopoSortFailsOnSelfPair(t *testing.T) {
	r := FromPairs([2]string{"a", "a"}, [2]string{"a", "b"})
	if _, ok := r.TopoSort(); ok {
		t.Fatal("TopoSort succeeded despite a self-pair")
	}
}

// Property: every topological order respects every pair.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a random DAG by only adding forward pairs over a random
		// permutation, so TopoSort must succeed.
		n := 8
		perm := rng.Perm(n)
		names := make([]string, n)
		for i, p := range perm {
			names[i] = string(rune('a' + p))
		}
		r := New[string]()
		for i := 0; i < n; i++ {
			r.AddNode(names[i])
		}
		for k := 0; k < 12; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i < j {
				r.Add(names[i], names[j])
			}
		}
		sorted, ok := r.TopoSort()
		if !ok {
			return false
		}
		pos := map[string]int{}
		for i, s := range sorted {
			pos[s] = i
		}
		good := true
		r.Each(func(a, b string) {
			if pos[a] >= pos[b] {
				good = false
			}
		})
		return good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
