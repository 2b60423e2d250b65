package order

import "math/bits"

// This file adds the three primitives the incremental Comp-C engine
// (internal/front.Incremental) needs on top of the interned-index core:
// growing the index space of a live relation without losing its pairs,
// closure insertion that reports exactly the pairs it newly derived (the
// frontier the engine propagates to the next reduction level), and a
// journal that undoes a tentative batch of writes.

// Journal records the words that relation writes change while it is on,
// from Begin to Commit or Rollback; Rollback restores them, newest first,
// so Rollback ∘ writes ≡ id. A relation writes through the journal it is
// Journaled with; with none, or with it off, it records nothing. A row
// first handed out in a batch stays handed out after a Rollback, empty,
// which no read tells from one never handed out.
type Journal struct {
	on  bool
	w   []*uint64 // the journaled words, oldest first
	old []uint64  // and the value each held
}

// Begin starts recording.
func (j *Journal) Begin() { j.on = true }

// Commit keeps the batch's writes and stops recording.
func (j *Journal) Commit() {
	clear(j.w) // hold no pointer into a slab a later Grow replaces
	j.w, j.old, j.on = j.w[:0], j.old[:0], false
}

// Rollback restores the batch's words and stops recording.
func (j *Journal) Rollback() {
	for k := len(j.w) - 1; k >= 0; k-- {
		*j.w[k] = j.old[k]
	}
	j.Commit()
}

// Set sets bit i of b through j (a nil journal is off).
func (j *Journal) Set(b Bitset, i int) { j.or(&b[i/64], 1<<(uint(i)%64)) }

// or sets *w |= bits, recording the old word when j is on and it changes.
func (j *Journal) or(w *uint64, bits uint64) {
	if old := *w; j != nil && j.on && old|bits != old {
		j.w, j.old = append(j.w, w), append(j.old, old)
	}
	*w |= bits
}

// orRow sets row |= o through r's journal.
func (r *IndexRelation) orRow(row, o Bitset) {
	if r.j == nil || !r.j.on {
		row.Or(o)
		return
	}
	for w, ow := range o {
		r.j.or(&row[w], ow)
	}
}

// Journaled makes r's writes but MutRow's go through j, and returns r.
func (r *IndexRelation) Journaled(j *Journal) *IndexRelation {
	r.j = j
	return r
}

// Journaled makes c and its transpose write through j and returns c.
func (c *ClosedRelation) Journaled(j *Journal) *ClosedRelation {
	c.succ.j, c.pred.j = j, j
	return c
}

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
// short at the old n — so every row stays composable with fresh ones. It
// would move the words a journal holds: Grow with a non-empty one panics.
func (r *IndexRelation) Grow(n int) {
	if n <= r.n {
		return
	}
	if r.j != nil && len(r.j.w) > 0 {
		panic("order: Grow of a relation whose journal holds writes")
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
			c.succ.orRow(row, targets)
			return
		}
		for w, tw := range targets {
			added := tw &^ row[w]
			if added == 0 {
				continue
			}
			c.succ.j.or(&row[w], added)
			for added != 0 {
				y := w*64 + bits.TrailingZeros64(added)
				added &= added - 1
				fn(x, y)
			}
		}
	})
	targets.Each(func(y int) { c.pred.orRow(c.pred.MutRow(y), sources) })
}
