package order

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// ids returns the node names "n00".."n<n-1>" used to cross-check index
// relations against the string-keyed Relation: two-digit names make
// lexicographic order coincide with index order.
func idNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("n%02d", i)
	}
	return out
}

// TestIncrementalClosureProperty is the core property of the incremental
// engine: inserting random edges one at a time into a ClosedRelation
// yields, after every single insertion, exactly the transitive closure
// that IndexRelation.TransitiveClosure and the string-keyed
// Relation.TransitiveClosure compute from scratch — including cyclic
// graphs (self-pairs for every member of a cycle) and the predecessor
// index (the transpose of the closure).
func TestIncrementalClosureProperty(t *testing.T) {
	const seeds = 250
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		edges := rng.Intn(3 * n)
		names := idNames(n)

		inc := NewClosedRelation(n)
		raw := NewIndexRelation(n)
		sref := New[string]()
		for k := 0; k < edges; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			inc.Insert(a, b)
			raw.Add(a, b)
			sref.Add(names[a], names[b])

			full := raw.TransitiveClosure()
			if !indexRelationsEqual(inc.Rel(), full) {
				t.Fatalf("seed %d, edge %d (%d,%d): incremental closure diverged from full closure",
					seed, k, a, b)
			}
			// Predecessor rows must be the exact transpose.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if inc.Has(i, j) != inc.pred.Row(j).Has(i) {
						t.Fatalf("seed %d: pred index out of sync at (%d,%d)", seed, i, j)
					}
				}
			}
			// And both must match the string-keyed reference closure.
			sclosed := sref.TransitiveClosure()
			got := ToRelation(inc.Rel(), names)
			if !got.Equal(sclosed) || !sclosed.Equal(got) {
				t.Fatalf("seed %d, edge %d: index closure %v != string closure %v",
					seed, k, got.Pairs(), sclosed.Pairs())
			}
		}
	}
}

// TestIndexHasCycleMatchesReference cross-checks IndexRelation.HasCycle
// against the string-keyed HasCycle on random graphs.
func TestIndexHasCycleMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		names := idNames(n)
		r := NewIndexRelation(n)
		sref := New[string]()
		for k := rng.Intn(3 * n); k > 0; k-- {
			a, b := rng.Intn(n), rng.Intn(n)
			r.Add(a, b)
			sref.Add(names[a], names[b])
		}
		if got, want := r.HasCycle(), sref.HasCycle(); got != want {
			t.Fatalf("seed %d: index HasCycle=%v, reference=%v over %v", seed, got, want, sref.Pairs())
		}
	}
}

// TestClosedRelationInsertIdempotent checks the early-exit path: inserting
// a pair already implied by the closure must change nothing.
func TestClosedRelationInsertIdempotent(t *testing.T) {
	c := NewClosedRelation(4)
	c.Insert(0, 1)
	c.Insert(1, 2)
	before := c.Rel().Clone()
	c.Insert(0, 2) // already implied by transitivity
	c.Insert(0, 1) // already present
	if !indexRelationsEqual(c.Rel(), before) {
		t.Fatal("inserting implied pairs must be a no-op")
	}
	if c.Len() != 3 {
		t.Fatalf("closure of 0->1->2 has %d pairs, want 3", c.Len())
	}
}

// TestBitsetOps pins the word-parallel composite operations the front
// engine builds on.
func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
		if !b.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("count = %d, want 4", b.Count())
	}
	x, y := NewBitset(130), NewBitset(130)
	x.Set(5)
	x.Set(99)
	y.Set(99)
	z := NewBitset(130)
	z.OrAnd(x, y) // {99}
	if !z.Has(99) || z.Count() != 1 {
		t.Fatalf("OrAnd = %v bits", z.Count())
	}
	z.Or(x)         // |= {5}
	z.OrAnd(nil, y) // no-op
	if z.Count() != 2 {
		t.Fatal("nil OrAnd must be a no-op")
	}
	var got []int
	z.Each(func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{5, 99}) {
		t.Fatalf("Each order = %v, want ascending", got)
	}
	if Bitset(nil).Has(3) || Bitset(nil).Any() || Bitset(nil).Clone() != nil {
		t.Fatal("nil bitset must behave as empty")
	}
}

// TestToRelation checks materialization back to the string layer.
func TestToRelation(t *testing.T) {
	r := NewIndexRelation(3)
	r.Add(0, 2)
	r.Add(2, 1)
	got := ToRelation(r, []string{"a", "b", "c"})
	want := FromPairs([2]string{"a", "c"}, [2]string{"c", "b"})
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("ToRelation = %v", got.Pairs())
	}
}

// indexRelationsEqual compares two relations over the same index space.
func indexRelationsEqual(a, b *IndexRelation) bool {
	if a.Len() != b.Len() {
		return false
	}
	eq := true
	a.Each(func(i, j int) {
		if !b.Has(i, j) {
			eq = false
		}
	})
	return eq
}

// TestEqualIsSymmetric backs the documented soundness argument of
// Relation.Equal: with duplicate-free pair sets, Len-plus-one-sided-subset
// is a full equality test, so Equal must agree in both directions even for
// relations with equal sizes but different pairs.
func TestEqualIsSymmetric(t *testing.T) {
	r := FromPairs([2]string{"a", "b"}, [2]string{"b", "c"})
	s := FromPairs([2]string{"a", "b"}, [2]string{"c", "b"}) // same size, one pair flipped
	if r.Equal(s) || s.Equal(r) {
		t.Fatal("differing pair sets of equal size must be unequal both ways")
	}
	u := FromPairs([2]string{"b", "c"}, [2]string{"a", "b"}) // same pairs, different build order
	if !r.Equal(u) || !u.Equal(r) {
		t.Fatal("identical pair sets must be equal both ways")
	}
	// Node registration is ignored by design.
	v := u.Clone()
	v.AddNode("isolated")
	if !r.Equal(v) || !v.Equal(r) {
		t.Fatal("isolated registered nodes must not affect Equal")
	}
	// Random cross-check: Equal(a,b) == Equal(b,a) == pair-set equality.
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		names := idNames(5)
		a, b := New[string](), New[string]()
		for k := 0; k < 6; k++ {
			a.Add(names[rng.Intn(5)], names[rng.Intn(5)])
			b.Add(names[rng.Intn(5)], names[rng.Intn(5)])
		}
		want := a.Contains(b) && b.Contains(a)
		if a.Equal(b) != want || b.Equal(a) != want {
			t.Fatalf("seed %d: Equal asymmetric or wrong: %v vs %v", seed, a.Pairs(), b.Pairs())
		}
	}
}

// BenchmarkNodesSorted quantifies the cost of deterministic (sorted)
// node enumeration after the sort.Slice -> slices.Sort migration.
func BenchmarkNodesSorted(b *testing.B) {
	r := New[string]()
	names := idNames(64)
	for i, a := range names {
		for _, c := range names[i+1:] {
			if (i+len(c))%3 == 0 {
				r.Add(a, c)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.Nodes()) != 64 {
			b.Fatal("unexpected node count")
		}
	}
}

// BenchmarkIncrementalInsert measures one incremental closure update on a
// mid-size sparse order, the per-pair cost Step pays during obs lifting.
func BenchmarkIncrementalInsert(b *testing.B) {
	const n = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewClosedRelation(n)
		for k := 0; k < n-1; k++ {
			c.Insert(k, k+1)
		}
	}
}
