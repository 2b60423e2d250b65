package order

import (
	"fmt"
	"math/rand"
	"testing"
)

// collectPairs snapshots a closed relation as a set of "i,j" keys.
func collectPairs(c *ClosedRelation) map[string]bool {
	out := map[string]bool{}
	c.Each(func(i, j int) { out[fmt.Sprintf("%d,%d", i, j)] = true })
	return out
}

func TestInsertFuncReportsExactDelta(t *testing.T) {
	// Random insertion streams: after every InsertFunc the reported
	// delta must be exactly (closure after) − (closure before), and the
	// relation must match a from-scratch CloseRelation of the raw pairs.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		c := NewClosedRelation(n)
		raw := NewIndexRelation(n)
		for k := 0; k < 3*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			before := collectPairs(c)
			reported := map[string]bool{}
			c.InsertFunc(a, b, func(x, y int) {
				key := fmt.Sprintf("%d,%d", x, y)
				if reported[key] {
					t.Fatalf("seed %d: pair (%d,%d) reported twice", seed, x, y)
				}
				if before[key] {
					t.Fatalf("seed %d: pair (%d,%d) reported but already present", seed, x, y)
				}
				reported[key] = true
			})
			raw.Add(a, b)
			after := collectPairs(c)
			for key := range after {
				if !before[key] && !reported[key] {
					t.Fatalf("seed %d: new pair %s not reported", seed, key)
				}
			}
			if len(after) != len(before)+len(reported) {
				t.Fatalf("seed %d: |after|=%d, |before|=%d, |reported|=%d",
					seed, len(after), len(before), len(reported))
			}
		}
		// Final state must equal the batch closure of the same raw pairs.
		want := map[string]bool{}
		raw.TransitiveClosure().Each(func(i, j int) { want[fmt.Sprintf("%d,%d", i, j)] = true })
		if got := collectPairs(c); len(got) != len(want) {
			t.Fatalf("seed %d: incremental closure has %d pairs, batch has %d", seed, len(got), len(want))
		} else {
			for key := range want {
				if !got[key] {
					t.Fatalf("seed %d: missing closure pair %s", seed, key)
				}
			}
		}
	}
}

func TestInsertFuncMaintainsTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 16
	c := NewClosedRelation(n)
	for k := 0; k < 40; k++ {
		c.InsertFunc(rng.Intn(n), rng.Intn(n), func(x, y int) {})
	}
	c.Each(func(i, j int) {
		if !c.pred.Row(j).Has(i) {
			t.Fatalf("pred transpose missing (%d,%d)", i, j)
		}
	})
	for i := 0; i < n; i++ {
		c.pred.Row(i).Each(func(j int) {
			if !c.Has(j, i) {
				t.Fatalf("stale pred pair (%d,%d)", j, i)
			}
		})
	}
}

func TestGrowPreservesPairsAndClosure(t *testing.T) {
	c := NewClosedRelation(4)
	c.Insert(0, 1)
	c.Insert(1, 2)
	c.Grow(130) // force extra words
	if !c.Has(0, 2) {
		t.Fatal("closure lost by Grow")
	}
	// New indices must be usable and compose with the old rows.
	c.Insert(2, 129)
	if !c.Has(0, 129) {
		t.Fatal("insert after Grow did not propagate through old sources")
	}
	c.InsertFunc(129, 3, func(x, y int) {})
	if !c.Has(1, 3) {
		t.Fatal("InsertFunc after Grow did not propagate")
	}

	r := NewIndexRelation(2)
	r.Add(0, 1)
	r.Grow(70)
	r.Add(69, 0)
	if !r.Has(0, 1) || !r.Has(69, 0) || r.Has(1, 0) {
		t.Fatal("IndexRelation.Grow corrupted pairs")
	}

	var b Bitset
	b = b.Grow(5)
	b.Set(3)
	b = b.Grow(200)
	if !b.Has(3) || b.Has(199) {
		t.Fatal("Bitset.Grow corrupted bits")
	}
	b.Set(199)
	if !b.Has(199) {
		t.Fatal("Bitset.Grow: new range not usable")
	}
}
