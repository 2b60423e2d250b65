package order

import "math/bits"

// This file adds the two primitives the incremental Comp-C engine
// (internal/front.Incremental) needs on top of the interned-index core:
// growing the index space of a live relation without losing its pairs,
// and closure insertion that reports exactly the pairs it newly
// derived (the frontier the engine propagates to the next reduction
// level).

// Grow returns a bitset able to hold indices [0, n), preserving the set
// bits. The receiver is returned unchanged when it is already wide
// enough; otherwise a widened copy is returned (the word-parallel
// operators panic on mismatched lengths, so every bitset sharing an
// index space must be regrown together).
func (b Bitset) Grow(n int) Bitset {
	words := (n + 63) / 64
	if words <= len(b) {
		return b
	}
	nb := make(Bitset, words)
	copy(nb, b)
	return nb
}

// Grow widens the index space to [0, n), keeping every pair. The slab is
// laid out again in one pass — wider rows, and a last chunk no longer cut
// short at the old n — so every row stays composable with fresh ones.
func (r *IndexRelation) Grow(n int) {
	if n <= r.n {
		return
	}
	old := *r
	r.n, r.words, r.chunks = n, (n+63)/64, nil
	if r.slot != nil {
		r.slot = append(r.slot, make([]int32, n-len(r.slot))...)
	}
	r.reserve(r.rows)
	for i, k := range old.slot {
		if k != 0 {
			copy(r.Row(i), old.Row(i))
		}
	}
}

// Grow widens the index space of the closed relation (and its transpose)
// to [0, n).
func (c *ClosedRelation) Grow(n int) {
	c.succ.Grow(n)
	c.pred.Grow(n)
}

// snapshot returns row ∪ {k} in the scratch bitset *buf: InsertFunc's loops
// modify the very rows their source and target sets are derived from.
func (c *ClosedRelation) snapshot(buf *Bitset, row Bitset, k int) Bitset {
	if len(*buf) != c.succ.words {
		*buf = make(Bitset, c.succ.words)
	}
	clear(*buf)
	copy(*buf, row)
	buf.Set(k)
	return *buf
}

// InsertFunc is Insert with a delta callback: it adds (a, b), restores
// transitive closure, and calls fn (when not nil) once for every pair
// (x, y) that was NOT in the closure before this call and is now —
// including (a, b) itself when it was new. Callback order is per-source
// ascending. The callback must not mutate the relation.
func (c *ClosedRelation) InsertFunc(a, b int, fn func(x, y int)) {
	if c.succ.Has(a, b) {
		return
	}
	targets := c.snapshot(&c.dst, c.succ.Row(b), b)
	sources := c.snapshot(&c.src, c.pred.Row(a), a)
	sources.Each(func(x int) {
		row := c.succ.MutRow(x)
		if fn == nil {
			row.Or(targets)
			return
		}
		for w, tw := range targets {
			added := tw &^ row[w]
			if added == 0 {
				continue
			}
			row[w] |= added
			for added != 0 {
				y := w*64 + bits.TrailingZeros64(added)
				added &= added - 1
				fn(x, y)
			}
		}
	})
	targets.Each(func(y int) { c.pred.MutRow(y).Or(sources) })
}
