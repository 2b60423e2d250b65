package model

import "slices"

// Interner assigns every node of a System a stable dense int32 index, the
// bridge between the string-keyed construction surface and the
// interned-index relation core (order.IndexRelation). The reduction engine
// of internal/front interns on its own, in arrival order; this one serves
// callers that want a whole system's relations on dense rows (bench/'s
// order probes).
//
// Indices are assigned in lexicographic NodeID order, so ascending index
// iteration over dense rows reproduces the deterministic lexicographic
// iteration order the string-keyed code paths use.
//
// An Interner is immutable once built. The System caches one lazily and
// invalidates the cache whenever its node set changes.
type Interner struct {
	ids []NodeID
	idx map[NodeID]int32
}

// Intern returns the interner for the system's current node set, building
// and caching it on first use. Any mutation of the node set (AddRoot,
// AddTx, AddLeaf, RemoveTree, Decode) invalidates the cache.
//
// The cached build is NOT safe for concurrent first use.
func (s *System) Intern() *Interner {
	if s.interner == nil {
		ids := make([]NodeID, 0, len(s.nodes))
		for id := range s.nodes {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		idx := make(map[NodeID]int32, len(ids))
		for i, id := range ids {
			idx[id] = int32(i)
		}
		s.interner = &Interner{ids: ids, idx: idx}
	}
	return s.interner
}

// Len returns the number of interned nodes.
func (in *Interner) Len() int { return len(in.ids) }

// Index returns the index of id, or -1 when id is not a node of the
// system the interner was built from.
func (in *Interner) Index(id NodeID) int32 {
	if i, ok := in.idx[id]; ok {
		return i
	}
	return -1
}

// ID returns the NodeID at index i.
func (in *Interner) ID(i int32) NodeID { return in.ids[i] }
