package front

import (
	"compositetx/internal/model"
	"compositetx/internal/order"
)

// This file states the comparison machinery of Definitions 17–20
// directly: serial fronts, level-i-equivalence, level-i-containment, and
// composite correctness in its original containment form. Theorem 1
// states that the containment definition coincides with reachability of a
// level-N front; TestTheorem1BothDirections (equivalence_test.go) checks
// the two against each other. The fronts come from the oracle
// (CheckReference); SerialFront and levelContained are the part that is
// independent of the reduction.

// equal reports whether two fronts are identical: same nodes, observed
// order, generalized conflicts, and input orders (levels are not
// compared; Definition 18 explicitly allows comparing fronts of different
// levels from different systems).
func (f *Front) equal(other *Front) bool {
	if f.Len() != other.Len() {
		return false
	}
	for n := range f.nodes {
		if !other.Has(n) {
			return false
		}
	}
	return f.Obs.Equal(other.Obs) &&
		f.WeakIn.Equal(other.WeakIn) &&
		f.StrongIn.Equal(other.StrongIn) &&
		conflictsEqual(f.Con, other.Con)
}

func conflictsEqual(a, b *model.PairSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	eq := true
	a.Each(func(x, y model.NodeID) {
		if !b.Has(x, y) {
			eq = false
		}
	})
	return eq
}

// IsSerial reports whether the front is serial (Definition 17): its
// elements are totally ordered by the strong input order. A topologically
// sorted acyclic level-N front is equivalent to a serial one (Theorem 1
// proof), which serialWitness produces.
func (f *Front) IsSerial() bool {
	nodes := f.Nodes()
	closed := f.StrongIn.TransitiveClosure()
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if !closed.Has(a, b) && !closed.Has(b, a) {
				return false
			}
		}
	}
	return true
}

// FrontAtLevel returns the system's front of the given level, or
// ok=false when the reduction fails at or before it. Level 0 returns the
// all-leaves front.
func FrontAtLevel(sys *model.System, level int) (*Front, bool) {
	v, err := CheckReference(sys, Options{KeepFronts: true})
	if err != nil || level >= len(v.Fronts) || !v.Correct && level >= v.FailedLevel {
		return nil, false
	}
	return v.Fronts[level], true
}

// LevelEquivalent reports whether the composite system is
// level-i-equivalent to the front (Definition 18): the system has a level
// i front identical to it.
func LevelEquivalent(sys *model.System, i int, f *Front) bool {
	own, ok := FrontAtLevel(sys, i)
	return ok && own.equal(f)
}

// SerialFront builds the serial front (Definition 17) over the given
// nodes in the given total order: the strong (and weak) input order is
// the total order, with the conflict relation supplied by the caller.
func SerialFront(nodes []model.NodeID, con *model.PairSet) *Front {
	f := &Front{
		Level:    0,
		nodes:    make(map[model.NodeID]struct{}, len(nodes)),
		Obs:      order.New[model.NodeID](),
		Con:      con.Clone(),
		WeakIn:   order.New[model.NodeID](),
		StrongIn: order.New[model.NodeID](),
	}
	for i, n := range nodes {
		f.nodes[n] = struct{}{}
		f.Obs.AddNode(n)
		for _, m := range nodes[i+1:] {
			f.StrongIn.Add(n, m)
			f.WeakIn.Add(n, m)
		}
	}
	return f
}

// levelContained reports whether the composite system is
// level-i-contained in the front (Definition 19): the system is
// level-i-equivalent to some front F* whose nodes and conflicts match F
// and whose combined orders (→ ∪ <o) are contained in F's input order.
func levelContained(sys *model.System, i int, f *Front) bool {
	own, ok := FrontAtLevel(sys, i)
	if !ok {
		return false
	}
	if own.Len() != f.Len() {
		return false
	}
	for n := range own.nodes {
		if !f.Has(n) {
			return false
		}
	}
	if !conflictsEqual(own.Con, f.Con) {
		return false
	}
	combined := order.UnionOf(own.WeakIn, own.Obs)
	return f.WeakIn.TransitiveClosure().Contains(combined)
}

// IsCompCByContainment decides composite correctness in the original form
// of Definition 20: the system is correct iff it is level-N-contained in
// some serial front. The serial front is constructed by topologically
// sorting the level-N front (exactly the proof of Theorem 1); if no
// level-N front exists the system is incorrect.
func IsCompCByContainment(sys *model.System) (bool, error) {
	if err := sys.ValidateStructure(); err != nil {
		return false, err
	}
	n, err := sys.Order()
	if err != nil {
		return false, err
	}
	top, ok := FrontAtLevel(sys, n)
	if !ok {
		return false, nil
	}
	serialOrder, ok := top.serialWitness()
	if !ok {
		return false, nil
	}
	return levelContained(sys, n, SerialFront(serialOrder, top.Con)), nil
}
