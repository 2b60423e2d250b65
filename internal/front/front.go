// Package front implements the paper's correctness machinery: the observed
// order (Definition 10), the generalized conflict relation (Definition 11),
// computational fronts (Definition 12), conflict consistency of a front
// (Definition 13), calculations (Definition 14), the level-by-level
// reduction of a composite execution (Definitions 15 and 16), and the
// Comp-C decision procedure of Theorem 1: a composite schedule is correct
// iff the reduction reaches a level-N front.
//
// The under-specified corners of the definitions are resolved per DESIGN.md
// §3 (interpretations D1–D7); the relevant decision is cited at each site.
package front

import (
	"fmt"
	"slices"

	"compositetx/internal/model"
	"compositetx/internal/order"
)

// Front is a computational front (Definition 12): a maximal set of
// independent nodes of the computational forest together with the observed
// order, the generalized conflict relation, and the input orders between
// its elements.
type Front struct {
	// Level is the reduction level this front belongs to (Definition 16);
	// 0 is the all-leaves front of Definition 15.
	Level int

	nodes map[model.NodeID]struct{}

	// Obs is the observed order <o between front nodes (Definition 10),
	// kept transitively closed (rule 4).
	Obs *order.Relation[model.NodeID]

	// Con is the generalized conflict relation CON between front nodes
	// (Definition 11).
	Con *model.PairSet

	// WeakIn (→) and StrongIn (⇒) are the input orders between front
	// elements: the union over all schedules of their input orders,
	// restricted to the front. Definition 12 carries → explicitly; ⇒ is
	// retained because Definition 16 step 1 forbids switching pairs
	// ordered strongly.
	WeakIn   *order.Relation[model.NodeID]
	StrongIn *order.Relation[model.NodeID]
}

// Nodes returns the front's nodes, sorted.
func (f *Front) Nodes() []model.NodeID {
	out := make([]model.NodeID, 0, len(f.nodes))
	for n := range f.nodes {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Has reports whether n is a front node.
func (f *Front) Has(n model.NodeID) bool {
	_, ok := f.nodes[n]
	return ok
}

// Len returns the number of front nodes.
func (f *Front) Len() int { return len(f.nodes) }

// IsCC reports conflict consistency (Definition 13): the union of the
// observed order and the weak input orders is acyclic.
func (f *Front) IsCC() bool {
	return order.UnionOf(f.Obs, f.WeakIn).IsAcyclic()
}

// ccCycle returns a cycle witnessing the CC violation, or nil.
func (f *Front) ccCycle() []model.NodeID {
	return order.UnionOf(f.Obs, f.WeakIn).FindCycle()
}

// IsSerial reports whether the front is serial (Definition 17): its
// elements are totally ordered by the strong input order. A topologically
// sorted acyclic level-N front is equivalent to a serial one (Theorem 1
// proof), which SerialWitness produces.
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

// SerialWitness returns a total order over the front's nodes consistent
// with <o and →, i.e. the serial front the composite schedule is
// level-N-contained in (Definition 20, via topological sorting as in the
// proof of Theorem 1). It fails iff the front is not CC.
func (f *Front) SerialWitness() ([]model.NodeID, bool) {
	return order.UnionOf(f.Obs, f.WeakIn).TopoSort()
}

// Level0 builds the level 0 front of a composite system (Definition 15):
// its nodes are all leaves; the observed order comes from Definition 10
// rule 1 (pairs of same-schedule operations involving a leaf, ordered as
// the schedule's weak output order); conflicts are the schedules' own
// predicates (Definition 11 case 1); input orders are empty because leaves
// are transactions of no schedule.
//
// The system must already be normalized (transitively closed orders);
// CheckReference normalizes a clone before calling this.
func Level0(sys *model.System) *Front {
	f := &Front{
		Level:    0,
		nodes:    make(map[model.NodeID]struct{}),
		Obs:      order.New[model.NodeID](),
		Con:      model.NewPairSet(),
		WeakIn:   order.New[model.NodeID](),
		StrongIn: order.New[model.NodeID](),
	}
	for _, l := range sys.Leaves() {
		f.nodes[l] = struct{}{}
		f.Obs.AddNode(l)
	}
	for _, sc := range sys.Schedules() {
		ops := sys.Ops(sc.ID)
		for _, a := range ops {
			if !f.Has(a) {
				continue
			}
			for _, b := range ops {
				if a == b || !f.Has(b) {
					continue
				}
				// Both leaves of the same schedule: Definition 10 rule 1.
				if sc.WeakOut.Has(a, b) {
					f.Obs.Add(a, b)
				}
				if sc.Conflict(a, b) {
					f.Con.Add(a, b)
				}
			}
		}
	}
	f.Obs = f.Obs.TransitiveClosure()
	return f
}

func (f *Front) String() string {
	return fmt.Sprintf("level %d front: %d nodes, %d observed pairs, %d conflicts",
		f.Level, f.Len(), f.Obs.Len(), f.Con.Len())
}
