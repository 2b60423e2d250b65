package model

import (
	"cmp"
	"slices"
)

// PairSet is a set of unordered, irreflexive pairs of node IDs. It stores
// the symmetric conflict predicate CON_S of a schedule: Add(a,b) and
// Add(b,a) are the same pair, and Add(a,a) is ignored (an operation cannot
// conflict with itself in the model; self-conflicts would make every
// execution incorrect).
type PairSet struct {
	m map[[2]NodeID]struct{}
}

// NewPairSet returns an empty set.
func NewPairSet() *PairSet {
	return &PairSet{m: make(map[[2]NodeID]struct{})}
}

func canonical(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// Add inserts the unordered pair {a, b}. Reflexive pairs are ignored.
func (p *PairSet) Add(a, b NodeID) {
	if a == b {
		return
	}
	p.m[canonical(a, b)] = struct{}{}
}

// Has reports whether {a, b} is in the set. Has(a, a) is always false.
func (p *PairSet) Has(a, b NodeID) bool {
	if a == b {
		return false
	}
	_, ok := p.m[canonical(a, b)]
	return ok
}

// Remove deletes the unordered pair {a, b}.
func (p *PairSet) Remove(a, b NodeID) {
	delete(p.m, canonical(a, b))
}

// RemoveInvolvingSet deletes every pair with an endpoint in set, in one
// sweep over the pairs.
func (p *PairSet) RemoveInvolvingSet(set map[NodeID]struct{}) {
	for k := range p.m {
		if _, ok := set[k[0]]; ok {
			delete(p.m, k)
			continue
		}
		if _, ok := set[k[1]]; ok {
			delete(p.m, k)
		}
	}
}

// Len returns the number of pairs.
func (p *PairSet) Len() int { return len(p.m) }

// Pairs returns all pairs in canonical (lexicographic) order.
func (p *PairSet) Pairs() [][2]NodeID {
	out := make([][2]NodeID, 0, len(p.m))
	for k := range p.m {
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b [2]NodeID) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return out
}

// Each calls fn for every pair (in canonical orientation, unspecified
// order). Mutation during iteration is not allowed.
func (p *PairSet) Each(fn func(a, b NodeID)) {
	for k := range p.m {
		fn(k[0], k[1])
	}
}

// Clone returns a deep copy.
func (p *PairSet) Clone() *PairSet {
	c := NewPairSet()
	for k := range p.m {
		c.m[k] = struct{}{}
	}
	return c
}

// Union adds every pair of other into p and returns p.
func (p *PairSet) Union(other *PairSet) *PairSet {
	if other == nil {
		return p
	}
	for k := range other.m {
		p.m[k] = struct{}{}
	}
	return p
}
