// Package front implements the paper's correctness machinery: the observed
// order (Definition 10), the generalized conflict relation (Definition 11),
// computational fronts (Definition 12), conflict consistency of a front
// (Definition 13), calculations (Definition 14), the level-by-level
// reduction of a composite execution (Definitions 15 and 16), and the
// Comp-C decision procedure of Theorem 1: a composite schedule is correct
// iff the reduction reaches a level-N front.
//
// Check and Incremental run the one reduction engine (incremental.go);
// CheckReference (reference.go) is its string-keyed test oracle.
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

func (f *Front) String() string {
	return fmt.Sprintf("level %d front: %d nodes, %d observed pairs, %d conflicts",
		f.Level, f.Len(), f.Obs.Len(), f.Con.Len())
}
