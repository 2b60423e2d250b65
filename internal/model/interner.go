package model

// Interner assigns every node of a System a dense int32 index in
// lexicographic NodeID order, so ascending index iteration over dense rows
// reproduces the lexicographic iteration order of the string-keyed code
// paths.
//
// A System is its own interner now — its NodeRefs are dense indices, and
// internal/front loads its engine from them — so Intern has one caller
// left: the order probe of the repo benchmark (bench/workload_check.go),
// which times the order layer on a whole system's relations. It stays
// for that caller and goes when the benchmark moves to refs.
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
		ids := s.NodeIDs()
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
