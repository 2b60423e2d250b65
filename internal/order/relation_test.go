package order

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	r := New[string]()
	if r.Has("a", "b") {
		t.Fatal("empty relation should not contain (a,b)")
	}
	r.Add("a", "b")
	if !r.Has("a", "b") {
		t.Fatal("missing (a,b) after Add")
	}
	if r.Has("b", "a") {
		t.Fatal("relation must be directed")
	}
	if got := r.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
	r.Add("a", "b") // duplicate insert is idempotent
	if got := r.Len(); got != 1 {
		t.Fatalf("Len after duplicate Add = %d, want 1", got)
	}
	r.Remove("a", "b")
	if r.Has("a", "b") {
		t.Fatal("(a,b) survived Remove")
	}
	if !slices.Contains(r.Nodes(), "a") || !slices.Contains(r.Nodes(), "b") {
		t.Fatal("Remove must not unregister nodes")
	}
}

func TestRemoveNodes(t *testing.T) {
	r := FromPairs([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "a"})
	r.RemoveNodes(map[string]struct{}{"b": {}})
	if r.Has("a", "b") || r.Has("b", "c") {
		t.Fatal("pairs involving removed node survived")
	}
	if !r.Has("c", "a") {
		t.Fatal("unrelated pair was dropped")
	}
	if slices.Contains(r.Nodes(), "b") {
		t.Fatal("node b still registered")
	}
}

func TestNodesSortedAndIsolated(t *testing.T) {
	r := New[string]()
	r.Add("b", "c")
	r.AddNode("a")
	want := []string{"a", "b", "c"}
	if got := r.Nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Nodes = %v, want %v", got, want)
	}
}

func TestPairsDeterministic(t *testing.T) {
	r := FromPairs(
		[2]string{"x", "y"},
		[2]string{"a", "b"},
		[2]string{"a", "a"},
		[2]string{"x", "a"},
	)
	want := [][2]string{{"a", "a"}, {"a", "b"}, {"x", "a"}, {"x", "y"}}
	if got := r.Pairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pairs = %v, want %v", got, want)
	}
}

func TestUnionRestrictClone(t *testing.T) {
	a := FromPairs([2]string{"1", "2"})
	b := FromPairs([2]string{"2", "3"})
	u := UnionOf(a, b)
	if !u.Has("1", "2") || !u.Has("2", "3") {
		t.Fatal("union is missing pairs")
	}
	if a.Has("2", "3") {
		t.Fatal("UnionOf must not mutate its arguments")
	}

	c := u.Clone()
	c.Add("3", "1")
	if u.Has("3", "1") {
		t.Fatal("Clone is not independent")
	}

	res := u.Restrict(func(n string) bool { return n != "2" })
	if res.Len() != 0 {
		t.Fatalf("Restrict kept %d pairs, want 0", res.Len())
	}
	if want := []string{"1", "3"}; !reflect.DeepEqual(res.Nodes(), want) {
		t.Fatalf("Restrict kept nodes %v, want %v", res.Nodes(), want)
	}
}

func TestMapDropsContractedSelfPairs(t *testing.T) {
	r := FromPairs([2]string{"a1", "a2"}, [2]string{"a2", "b1"})
	m := r.Map(func(n string) string { return n[:1] })
	if m.Has("a", "a") {
		t.Fatal("Map must drop contracted self-pairs")
	}
	if !m.Has("a", "b") {
		t.Fatal("Map lost a cross-group pair")
	}
}

func TestEqualContains(t *testing.T) {
	a := FromPairs([2]string{"x", "y"}, [2]string{"y", "z"})
	b := FromPairs([2]string{"y", "z"}, [2]string{"x", "y"})
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal should hold irrespective of insertion order")
	}
	b.Add("z", "x")
	if a.Equal(b) {
		t.Fatal("Equal must detect extra pairs")
	}
	if !b.Contains(a) {
		t.Fatal("b should contain a")
	}
	if a.Contains(b) {
		t.Fatal("a should not contain b")
	}
}

func TestTransitiveClosureChain(t *testing.T) {
	r := FromPairs([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"})
	tc := r.TransitiveClosure()
	for _, p := range [][2]string{{"a", "c"}, {"a", "d"}, {"b", "d"}} {
		if !tc.Has(p[0], p[1]) {
			t.Errorf("closure missing (%s,%s)", p[0], p[1])
		}
	}
	if tc.Has("d", "a") {
		t.Error("closure invented a reverse pair")
	}
	if tc.Has("a", "a") {
		t.Error("closure of an acyclic chain must not contain self-pairs")
	}
}

func TestTransitiveClosureCycleYieldsSelfPairs(t *testing.T) {
	r := FromPairs([2]string{"a", "b"}, [2]string{"b", "a"})
	tc := r.TransitiveClosure()
	if !tc.Has("a", "a") || !tc.Has("b", "b") {
		t.Fatal("closure of a 2-cycle must contain self-pairs")
	}
}

// Property: transitive closure is idempotent and monotone.
func TestTransitiveClosureProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := randomRelation(rand.New(rand.NewSource(seed)), 8, 12)
		tc := r.TransitiveClosure()
		if !tc.Contains(r) {
			return false
		}
		return tc.TransitiveClosure().Equal(tc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: closure is actually transitively closed.
func TestClosureIsClosed(t *testing.T) {
	f := func(seed int64) bool {
		r := randomRelation(rand.New(rand.NewSource(seed)), 7, 14)
		tc := r.TransitiveClosure()
		ok := true
		tc.Each(func(a, b string) {
			tc.Each(func(c, d string) {
				if b == c && !tc.Has(a, d) {
					ok = false
				}
			})
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomRelation(rng *rand.Rand, nodes, pairs int) *Relation[string] {
	r := New[string]()
	for i := 0; i < nodes; i++ {
		r.AddNode(fmt.Sprintf("n%02d", i))
	}
	for i := 0; i < pairs; i++ {
		a := fmt.Sprintf("n%02d", rng.Intn(nodes))
		b := fmt.Sprintf("n%02d", rng.Intn(nodes))
		r.Add(a, b)
	}
	return r
}
