package order

import (
	"math/rand"
	"testing"
)

// transpose returns the model with every pair reversed.
func (m pairModel) transpose() pairModel {
	out := pairModel{}
	for p := range m {
		out[[2]int{p[1], p[0]}] = true
	}
	return out
}

// clone returns a copy of the model.
func (m pairModel) clone() pairModel {
	out := pairModel{}
	for p := range m {
		out[p] = true
	}
	return out
}

// journaled is one relation and one closure sharing a journal, with the
// models both are checked against: the raw pairs of each.
type journaled struct {
	j      *Journal
	rel    *IndexRelation
	closed *ClosedRelation
	bits   Bitset
	n      int
	m, raw pairModel
	set    map[int]bool
}

func newJournaled(n int) *journaled {
	s := &journaled{j: &Journal{}, rel: NewIndexRelation(n), closed: NewClosedRelation(n),
		bits: NewBitset(n), n: n, m: pairModel{}, raw: pairModel{}, set: map[int]bool{}}
	s.rel.Journaled(s.j)
	s.closed.Journaled(s.j)
	return s
}

// write applies one random write — Add, AddSym, Insert, InsertFunc with and
// without a callback, or a journaled bit — to the relations and the models.
func (s *journaled) write(rng *rand.Rand) {
	a, b := rng.Intn(s.n), rng.Intn(s.n)
	switch rng.Intn(6) {
	case 0:
		s.rel.Add(a, b)
		s.m[[2]int{a, b}] = true
	case 1:
		s.rel.AddSym(a, b)
		s.m[[2]int{a, b}], s.m[[2]int{b, a}] = true, true
	case 2:
		s.closed.Insert(a, b)
		s.raw[[2]int{a, b}] = true
	case 3:
		s.closed.InsertFunc(a, b, nil)
		s.raw[[2]int{a, b}] = true
	case 4:
		s.closed.InsertFunc(a, b, func(x, y int) {})
		s.raw[[2]int{a, b}] = true
	default:
		s.j.Set(s.bits, a)
		s.set[a] = true
	}
}

// assert checks every read of both relations and the bitset against the
// models: the relation's pairs, the closure of the raw pairs and its
// transpose, and the set bits.
func (s *journaled) assert(t *testing.T, tag string) {
	t.Helper()
	assertRelation(t, tag+"/relation", s.rel, s.m, s.n)
	closed := s.raw.closure(s.n)
	assertRelation(t, tag+"/closure", s.closed.Rel(), closed, s.n)
	assertRelation(t, tag+"/transpose", s.closed.pred, closed.transpose(), s.n)
	for i := 0; i < s.n; i++ {
		if s.bits.Has(i) != s.set[i] {
			t.Fatalf("%s: bit %d = %v, model %v", tag, i, s.bits.Has(i), s.set[i])
		}
	}
}

// TestJournalRollbackRestores drives a relation and a closure sharing one
// journal through random batches of writes. A batch after Begin that ends
// in Rollback leaves every read where it was before Begin; one that ends
// in Commit keeps every write. Writes between batches are not journaled,
// and a Grow between batches keeps its pairs through the next Rollback.
func TestJournalRollbackRestores(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newJournaled(1 + rng.Intn(70))
		for batch := 0; batch < 8; batch++ {
			for k := rng.Intn(6); k > 0; k-- {
				s.write(rng) // off the journal
			}
			if rng.Intn(3) == 0 {
				s.n += []int{1, 64}[rng.Intn(2)]
				s.rel.Grow(s.n)
				s.closed.Grow(s.n)
				s.bits = s.bits.Grow(s.n)
			}
			if len(s.j.w) != 0 {
				t.Fatalf("seed %d: %d writes journaled off the journal", seed, len(s.j.w))
			}
			m, raw, set := s.m.clone(), s.raw.clone(), map[int]bool{}
			for i := range s.set {
				set[i] = true
			}
			s.j.Begin()
			for k := rng.Intn(12); k >= 0; k-- {
				s.write(rng)
			}
			if rng.Intn(2) == 0 {
				s.j.Commit()
				s.assert(t, "commit")
				continue
			}
			s.j.Rollback()
			s.m, s.raw, s.set = m, raw, set
			s.assert(t, "rollback")
		}
	}
}

// TestJournalOffAllocatesNothing: once its rows and scratch exist, a
// closure insert allocates nothing with no journal or with its journal
// off, and a journaled batch allocates nothing once the journal has held
// a batch that size.
func TestJournalOffAllocatesNothing(t *testing.T) {
	const n = 200
	chain := func(c *ClosedRelation) {
		c.Reset(n)
		for i := 0; i+2 < n; i += 3 {
			c.Insert(i, i+1)
			c.Insert(i+1, i+2)
		}
	}
	bare, off, on := NewClosedRelation(n), NewClosedRelation(n), NewClosedRelation(n)
	off.Journaled(&Journal{})
	j := &Journal{}
	on.Journaled(j)
	batch := func() {
		j.Begin()
		chain(on)
		j.Commit()
	}
	for name, fn := range map[string]func(){
		"no journal":      func() { chain(bare) },
		"journal off":     func() { chain(off) },
		"journaled batch": batch,
	} {
		fn() // rows, scratch and journal capacity
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocations per batch of inserts, want 0", name, allocs)
		}
	}
}

// TestJournalGrowPanics: Grow would move the words a journal holds, so it
// panics while the journal holds any; an empty journal, on or off, lets it
// through.
func TestJournalGrowPanics(t *testing.T) {
	j := &Journal{}
	r := NewIndexRelation(10).Journaled(j)
	j.Begin()
	r.Grow(70) // on, but empty
	r.Add(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Grow with a non-empty journal did not panic")
		}
	}()
	r.Grow(200)
}
