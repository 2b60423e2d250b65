package model

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestPairSetSymmetric(t *testing.T) {
	p := NewPairSet()
	p.Add("a", "b")
	if !p.Has("a", "b") || !p.Has("b", "a") {
		t.Fatal("pair set must be symmetric")
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d, want 1", p.Len())
	}
	p.Add("b", "a") // same pair
	if p.Len() != 1 {
		t.Fatalf("Len after mirrored Add = %d, want 1", p.Len())
	}
}

func TestPairSetIrreflexive(t *testing.T) {
	p := NewPairSet()
	p.Add("a", "a")
	if p.Len() != 0 || p.Has("a", "a") {
		t.Fatal("reflexive pairs must be ignored")
	}
}

func TestPairSetRemoveInvolvingSet(t *testing.T) {
	p := NewPairSet()
	p.Add("a", "b")
	p.Add("b", "c")
	p.Add("c", "d")
	p.RemoveInvolvingSet(map[NodeID]struct{}{"b": {}})
	if p.Has("a", "b") || p.Has("b", "c") {
		t.Fatal("pairs involving b survived")
	}
	if !p.Has("c", "d") {
		t.Fatal("unrelated pair was removed")
	}
}

func TestPairSetPairsCanonicalOrder(t *testing.T) {
	p := NewPairSet()
	p.Add("z", "a")
	p.Add("m", "b")
	want := [][2]NodeID{{"a", "z"}, {"b", "m"}}
	if got := p.Pairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pairs = %v, want %v", got, want)
	}
}

func TestPairSetCloneUnion(t *testing.T) {
	p := NewPairSet()
	p.Add("a", "b")
	c := p.Clone()
	c.Add("c", "d")
	if p.Has("c", "d") {
		t.Fatal("Clone is not independent")
	}
	p.Union(c)
	if !p.Has("c", "d") {
		t.Fatal("Union did not add pairs")
	}
}

// Property: Has is symmetric for arbitrary inserts.
func TestPairSetSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		p := NewPairSet()
		p.Add(NodeID(a), NodeID(b))
		return p.Has(NodeID(a), NodeID(b)) == p.Has(NodeID(b), NodeID(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
