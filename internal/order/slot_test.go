package order

import (
	"math/rand"
	"testing"
)

// pairModel is the model the slot-table relation is checked against: the
// plain set of its pairs.
type pairModel map[[2]int]bool

// closure returns the transitive closure of the model over [0, n)
// (Warshall), the reference for TransitiveClosure and HasCycle.
func (m pairModel) closure(n int) pairModel {
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	for p := range m {
		reach[p[0]][p[1]] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; reach[i][k] && j < n; j++ {
				reach[i][j] = reach[i][j] || reach[k][j]
			}
		}
	}
	out := pairModel{}
	for i := range reach {
		for j, ok := range reach[i] {
			if ok {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

// assertRelation checks every read of r against the model: N, Len, Has
// and Row over the whole index space, and Each's ascending (i, j) order.
func assertRelation(t *testing.T, tag string, r *IndexRelation, m pairModel, n int) {
	t.Helper()
	if r.N() != n || r.Len() != len(m) {
		t.Fatalf("%s: N = %d, Len = %d; model has n = %d and %d pairs", tag, r.N(), r.Len(), n, len(m))
	}
	for i := 0; i < n; i++ {
		row, want := r.Row(i), 0
		for j := 0; j < n; j++ {
			has := m[[2]int{i, j}]
			if has {
				want++
			}
			if r.Has(i, j) != has || row.Has(j) != has {
				t.Fatalf("%s: Has(%d,%d) = %v, Row(%d).Has(%d) = %v, model %v", tag, i, j, r.Has(i, j), i, j, row.Has(j), has)
			}
		}
		if row.Count() != want {
			t.Fatalf("%s: Row(%d) has %d bits, model %d", tag, i, row.Count(), want)
		}
	}
	last, seen := [2]int{-1, -1}, 0
	r.Each(func(i, j int) {
		p := [2]int{i, j}
		if !m[p] || p[0] < last[0] || p[0] == last[0] && p[1] <= last[1] {
			t.Fatalf("%s: Each yields %v after %v (in model: %v)", tag, p, last, m[p])
		}
		last, seen = p, seen+1
	})
	if seen != len(m) {
		t.Fatalf("%s: Each yields %d pairs, model has %d", tag, seen, len(m))
	}
}

// TestSlotTableAgainstModel drives the slot-table relation with random
// Add / AddSym / MutRow+Set / Or / Clone / Reset / Grow and compares every
// read with a map of pairs after each step. Index spaces start at 0, one
// word, or just under a word boundary, and grow across it — before the
// first row, between rows and after a Reset.
func TestSlotTableAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{0, 1, 5, 60, 64, 65}[seed%6]
		r, m := NewIndexRelation(n), pairModel{}
		for step := 0; step < 60; step++ {
			op := rng.Intn(8)
			if n == 0 && op < 4 {
				op = 7 // nothing to add to yet
			}
			switch op {
			case 0:
				i, j := rng.Intn(n), rng.Intn(n)
				r.Add(i, j)
				m[[2]int{i, j}] = true
			case 1:
				i, j := rng.Intn(n), rng.Intn(n)
				r.AddSym(i, j)
				m[[2]int{i, j}], m[[2]int{j, i}] = true, true
			case 2:
				i := rng.Intn(n)
				row := r.MutRow(i)
				for k := rng.Intn(4); k >= 0; k-- {
					j := rng.Intn(n)
					row.Set(j)
					m[[2]int{i, j}] = true
				}
			case 3:
				// Or takes a relation over a narrower or equal space.
				o := NewIndexRelation(1 + rng.Intn(n))
				for k := rng.Intn(6); k > 0; k-- {
					i, j := rng.Intn(o.N()), rng.Intn(o.N())
					o.Add(i, j)
					m[[2]int{i, j}] = true
				}
				r.Or(o)
			case 4:
				// The clone carries on; the original must not follow it.
				c, frozen := r.Clone(), pairModel{}
				for p := range m {
					frozen[p] = true
				}
				if n > 0 {
					i, j := rng.Intn(n), rng.Intn(n)
					c.Add(i, j)
					m[[2]int{i, j}] = true
				}
				assertRelation(t, "original after Clone", r, frozen, n)
				r = c
			case 5:
				if rng.Intn(3) == 0 {
					r.Reset(n)
					m = pairModel{}
				}
			default:
				if n < 70 {
					n += []int{1, 3, 64, 70}[rng.Intn(4)]
					r.Grow(n)
				}
			}
			assertRelation(t, "after step", r, m, n)
		}
		closed := m.closure(n)
		assertRelation(t, "TransitiveClosure", r.TransitiveClosure(), closed, n)
		cyclic := false
		for i := 0; i < n; i++ {
			cyclic = cyclic || closed[[2]int{i, i}]
		}
		if r.HasCycle() != cyclic {
			t.Fatalf("seed %d: HasCycle = %v, model %v", seed, r.HasCycle(), cyclic)
		}
	}
}

// TestSlotTableEmptyCostsNothing pins the reason for the slot table: a
// relation nobody wrote to owns no table and no slab, whatever its width,
// and stays that way through Grow, Reset and Clone.
func TestSlotTableEmptyCostsNothing(t *testing.T) {
	r := NewIndexRelation(1000)
	r.Grow(5000)
	r.Reset(5000)
	c := r.Clone()
	if r.slot != nil || r.chunks != nil || c.slot != nil || c.chunks != nil {
		t.Fatal("an empty relation allocated a table")
	}
	if r.Has(4999, 4999) || r.Row(7) != nil || r.Len() != 0 || r.HasCycle() {
		t.Fatal("an empty relation has pairs")
	}
}

// TestRowValidity states the rule on IndexRelation: a Bitset from Row or
// MutRow stays the live row across later MutRows (the slab grows by whole
// chunks, rows never move), and Grow lays the slab out again — after it
// the bits are read and written through a fresh Row or MutRow call.
func TestRowValidity(t *testing.T) {
	r := NewIndexRelation(40)
	held := r.MutRow(3)
	held.Set(5)
	for i := 0; i < 40; i++ { // first rows of every other index: new chunks
		r.Add(i, i)
	}
	held.Set(7)
	if !r.Has(3, 3) || !r.Has(3, 5) || !r.Has(3, 7) || r.Row(3).Count() != 3 {
		t.Fatal("a held row went stale across MutRow")
	}

	r.Grow(130) // wider rows: the slab is laid out again
	row := r.Row(3)
	if len(row) != 3 || !row.Has(3) || !row.Has(5) || !row.Has(7) || row.Count() != 3 {
		t.Fatalf("fresh Row after Grow reads %d words, %d bits", len(row), row.Count())
	}
	r.MutRow(3).Set(129)
	if !r.Has(3, 129) || r.Len() != 43 {
		t.Fatal("write through a fresh MutRow after Grow was lost")
	}
}

// TestClosedInsertVariantsAgree replays TestIncrementalClosureProperty's
// 250 random sequences through the three spellings of closure insertion —
// Insert, InsertFunc(nil) and InsertFunc with a callback — with a Grow
// across a word boundary and a Reset injected mid-sequence. After every
// pair all three equal the full closure of the raw pairs, and the
// callback has seen exactly the new pairs, sources ascending and targets
// ascending within a source.
func TestClosedInsertVariantsAgree(t *testing.T) {
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		edges := rng.Intn(3 * n)
		plain, nilFn, withFn := NewClosedRelation(n), NewClosedRelation(n), NewClosedRelation(n)
		raw := NewIndexRelation(n)
		for k := 0; k < edges; k++ {
			switch k {
			case edges / 3:
				n += 60
				for _, c := range []*ClosedRelation{plain, nilFn, withFn} {
					c.Grow(n)
				}
				raw.Grow(n)
			case 2 * edges / 3:
				for _, c := range []*ClosedRelation{plain, nilFn, withFn} {
					c.Reset(n)
				}
				raw.Reset(n)
			}
			a, b := rng.Intn(n), rng.Intn(n)
			before := withFn.Rel().Clone()
			var delta [][2]int
			plain.Insert(a, b)
			nilFn.InsertFunc(a, b, nil)
			withFn.InsertFunc(a, b, func(x, y int) { delta = append(delta, [2]int{x, y}) })
			raw.Add(a, b)

			full := raw.TransitiveClosure()
			for _, c := range []*ClosedRelation{plain, nilFn, withFn} {
				if !indexRelationsEqual(c.Rel(), full) {
					t.Fatalf("seed %d, pair %d (%d,%d): closure diverged from the full closure", seed, k, a, b)
				}
				c.Each(func(i, j int) {
					if !c.pred.Has(j, i) {
						t.Fatalf("seed %d, pair %d: transpose misses (%d,%d)", seed, k, i, j)
					}
				})
				if c.pred.Len() != c.Len() {
					t.Fatalf("seed %d, pair %d: transpose has %d pairs, closure %d", seed, k, c.pred.Len(), c.Len())
				}
			}
			if len(delta) != full.Len()-before.Len() {
				t.Fatalf("seed %d, pair %d: callback saw %d pairs, closure grew by %d", seed, k, len(delta), full.Len()-before.Len())
			}
			for i, p := range delta {
				if before.Has(p[0], p[1]) || !full.Has(p[0], p[1]) {
					t.Fatalf("seed %d, pair %d: callback pair %v is not new", seed, k, p)
				}
				if q := delta[max(i-1, 0)]; i > 0 && (p[0] < q[0] || p[0] == q[0] && p[1] <= q[1]) {
					t.Fatalf("seed %d, pair %d: callback order %v then %v", seed, k, q, p)
				}
			}
		}
	}
}
