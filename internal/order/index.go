package order

import (
	"math/bits"
	"slices"
)

// This file is the interned-index relation core: dense bitset-backed
// relations over integer node indices. internal/front's reduction engine
// runs Definition 16 on these after interning every NodeID to an int32;
// the string-keyed Relation remains the construction and API surface.
// Iteration is in ascending index order; a caller that needs the
// lexicographic NodeID order of Relation sorts on its side.

// Bitset is a fixed-capacity dense bit vector. It is the row type of
// IndexRelation, exported so the reduction hot path can compose rows with
// word-parallel boolean operations instead of per-element map lookups.
type Bitset []uint64

// NewBitset returns a bitset able to hold indices [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Has reports whether bit i is set. A nil bitset has no bits.
func (b Bitset) Has(i int) bool {
	w := i / 64
	return w < len(b) && b[w]&(1<<(uint(i)%64)) != 0
}

// Or sets b |= o. A nil o is a no-op.
func (b Bitset) Or(o Bitset) {
	for i := range o {
		b[i] |= o[i]
	}
}

// OrAnd sets b |= x & y. Either operand may be nil (treated as empty).
func (b Bitset) OrAnd(x, y Bitset) {
	if x == nil || y == nil {
		return
	}
	for i := range b {
		b[i] |= x[i] & y[i]
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether any bit is set.
func (b Bitset) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Each calls fn for every set bit in ascending index order.
func (b Bitset) Each(fn func(i int)) {
	for w, word := range b {
		for word != 0 {
			fn(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// Clone returns a copy; a nil receiver clones to nil.
func (b Bitset) Clone() Bitset {
	if b == nil {
		return nil
	}
	c := make(Bitset, len(b))
	copy(c, b)
	return c
}

// IndexRelation is a mutable binary relation over the integer indices
// [0, n): bit j of row i is set iff the pair (i, j) is present. Rows are
// handed out in first-touch order from a slab of words-wide rows: slot[i]
// is zero for an empty row, else one plus the row's number. The slab is a
// few pointer-free chunks, chunk c holding chunkRows<<c rows (the last one
// only what n still allows), so it grows without moving a row, and both
// tables wait for the first MutRow: an empty relation costs its struct,
// and a GC cycle scans next to none of a full one.
//
// A Bitset from Row or MutRow stays valid across later MutRows; Grow lays
// the slab out again, so read rows again after it.
type IndexRelation struct {
	n      int
	words  int
	rows   int // rows handed out
	slot   []int32
	chunks [][]uint64
	j      *Journal // see Journaled
}

// chunkRows is the size of a slab's first chunk; chunkStart is the number
// of chunk c's first row.
const chunkRows = 4

func chunkStart(c int) int { return chunkRows * (1<<c - 1) }

// NewIndexRelation returns an empty relation over [0, n).
func NewIndexRelation(n int) *IndexRelation {
	return &IndexRelation{n: n, words: (n + 63) / 64}
}

// N returns the size of the index space.
func (r *IndexRelation) N() int { return r.n }

// Add inserts the pair (i, j).
func (r *IndexRelation) Add(i, j int) { r.j.Set(r.MutRow(i), j) }

// AddSym inserts both (i, j) and (j, i).
func (r *IndexRelation) AddSym(i, j int) {
	r.Add(i, j)
	r.Add(j, i)
}

// Has reports whether the pair (i, j) is present.
func (r *IndexRelation) Has(i, j int) bool { return r.Row(i).Has(j) }

// Row returns the successor bitset of i, or nil when empty. Callers must
// not mutate it; use MutRow for that.
func (r *IndexRelation) Row(i int) Bitset {
	if i >= len(r.slot) || r.slot[i] == 0 {
		return nil
	}
	k := int(r.slot[i] - 1)
	c := bits.Len(uint(k/chunkRows+1)) - 1
	off := (k - chunkStart(c)) * r.words
	return r.chunks[c][off : off+r.words : off+r.words]
}

// MutRow returns the successor bitset of i, allocating it if needed. The
// caller may mutate it in place.
func (r *IndexRelation) MutRow(i int) Bitset {
	if r.slot == nil {
		r.slot = make([]int32, r.n)
	}
	if r.slot[i] == 0 {
		r.reserve(r.rows + 1)
		r.rows++
		r.slot[i] = int32(r.rows)
	}
	return r.Row(i)
}

// reserve appends chunks until the slab holds rows rows. A relation over
// [0, n) never has more than n, so the last chunk stops there.
func (r *IndexRelation) reserve(rows int) {
	for c := len(r.chunks); chunkStart(c) < rows; c++ {
		size := min(chunkRows<<c, r.n-chunkStart(c))
		r.chunks = append(r.chunks, make([]uint64, size*r.words))
	}
}

// Reset removes every pair in place, keeping the slot table and the slab
// for reuse. used is the caller's node high-water mark: every row handed
// out lies below it, so the slab is cleared chunk by chunk.
func (r *IndexRelation) Reset(used int) {
	for _, ch := range r.chunks {
		clear(ch)
	}
}

// Len returns the number of pairs.
func (r *IndexRelation) Len() int {
	n := 0
	for _, ch := range r.chunks {
		n += Bitset(ch).Count()
	}
	return n
}

// Each calls fn for every pair in ascending (i, j) order.
func (r *IndexRelation) Each(fn func(i, j int)) {
	for i := range r.slot {
		r.Row(i).Each(func(j int) { fn(i, j) })
	}
}

// Or adds every pair of other into r.
func (r *IndexRelation) Or(other *IndexRelation) {
	for i := range other.slot {
		if row := other.Row(i); row.Any() {
			r.MutRow(i).Or(row)
		}
	}
}

// Clone returns a deep copy.
func (r *IndexRelation) Clone() *IndexRelation {
	c := &IndexRelation{n: r.n, words: r.words, rows: r.rows, slot: slices.Clone(r.slot)}
	for _, ch := range r.chunks {
		c.chunks = append(c.chunks, slices.Clone(ch))
	}
	return c
}

// succLists converts the rows to adjacency lists for the SCC machinery.
func (r *IndexRelation) succLists() [][]int32 {
	succ := make([][]int32, r.n)
	for i := range r.slot {
		row := r.Row(i)
		if row == nil {
			continue
		}
		s := make([]int32, 0, row.Count())
		row.Each(func(j int) { s = append(s, int32(j)) })
		succ[i] = s
	}
	return succ
}

// TransitiveClosure returns a fresh transitively closed copy, via the same
// SCC-condensation algorithm Relation.TransitiveClosure uses, but staying
// entirely on dense rows (no map inserts on the output side).
func (r *IndexRelation) TransitiveClosure() *IndexRelation {
	n := r.n
	out := NewIndexRelation(n)
	if n == 0 {
		return out
	}
	succ := r.succLists()
	comp, reach := componentReach(n, succ)
	for i := 0; i < n; i++ {
		if rs := reach[comp[i]]; rs.Any() {
			copy(out.MutRow(i), rs)
		}
	}
	return out
}

// HasCycle reports whether the relation, viewed as a directed graph,
// contains a cycle (including self-pairs), via SCC condensation: a cycle
// exists iff some component has more than one member or a self-loop.
func (r *IndexRelation) HasCycle() bool {
	for i := 0; i < r.n; i++ {
		if r.Has(i, i) {
			return true
		}
	}
	comp, order := sccCondensation(r.n, r.succLists())
	size := make([]int, len(order))
	for i := 0; i < r.n; i++ {
		size[comp[i]]++
		if size[comp[i]] > 1 {
			return true
		}
	}
	return false
}

// ClosedRelation maintains a transitively closed IndexRelation under
// incremental pair insertion (Italiano-style): alongside the successor
// rows it keeps the transposed predecessor rows, so inserting (a, b) into
// a closed relation only propagates from the nodes that reach a to the
// nodes reached from b — the "incremental closure update" that replaces
// the per-level full TransitiveClosure() of the reduction.
//
// Invariant: after every Insert, succ is its own transitive closure and
// pred is its exact transpose. Cyclic inputs are legal; members of a cycle
// end up reaching themselves (self-pairs), exactly as TransitiveClosure
// reports them.
type ClosedRelation struct {
	succ     *IndexRelation
	pred     *IndexRelation
	src, dst Bitset // InsertFunc's snapshots of pred*(a) and succ*(b), reused
}

// NewClosedRelation returns an empty closed relation over [0, n).
func NewClosedRelation(n int) *ClosedRelation {
	return &ClosedRelation{succ: NewIndexRelation(n), pred: NewIndexRelation(n)}
}

// Insert adds the pair (a, b) and restores transitive closure: O(1) for a
// pair already implied; otherwise it ORs the reach set of b into every node
// that reaches a (and maintains the transpose), O((|pred*(a)| +
// |succ*(b)|) · n/64) in the worst case and much less in practice.
func (c *ClosedRelation) Insert(a, b int) { c.InsertFunc(a, b, nil) }

// Reset removes every pair in place; see IndexRelation.Reset.
func (c *ClosedRelation) Reset(used int) {
	c.succ.Reset(used)
	c.pred.Reset(used)
}

// Has reports whether (a, b) is in the closure.
func (c *ClosedRelation) Has(a, b int) bool { return c.succ.Has(a, b) }

// Row returns the (closed) successor set of a. Callers must not mutate it.
func (c *ClosedRelation) Row(a int) Bitset { return c.succ.Row(a) }

// Rel returns the underlying closed successor relation. Callers must not
// mutate it; Clone first.
func (c *ClosedRelation) Rel() *IndexRelation { return c.succ }

// Len returns the number of pairs in the closure.
func (c *ClosedRelation) Len() int { return c.succ.Len() }

// Each calls fn for every pair of the closure in ascending order.
func (c *ClosedRelation) Each(fn func(i, j int)) { c.succ.Each(fn) }

// ToRelation materializes an index relation as a string-keyed Relation,
// mapping index i to ids[i]. Only pair endpoints are registered as nodes;
// register extra nodes on the result as needed.
func ToRelation[T ~string](r *IndexRelation, ids []T) *Relation[T] {
	out := New[T]()
	r.Each(func(i, j int) { out.Add(ids[i], ids[j]) })
	return out
}
