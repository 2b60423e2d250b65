package front

import (
	"fmt"
	"slices"

	"compositetx/internal/model"
)

// Retirement: once a prefix of roots is fully committed and certified
// correct, the engine no longer needs its nodes to decide the correctness
// of what follows — provided nothing that arrives later references them.
// Retire drops such a prefix from the accumulated system and from every
// per-level closure, so the engine's memory tracks the live suffix instead
// of the whole history; Seed builds the engine a full retirement leaves.
//
// Soundness is the multi-level serial-witness argument (Börger/Schewe/
// Wang; Biswas & Enea for the flat case): a committed, certified prefix
// whose every event precedes every later event is equivalent to a serial
// execution, every cross-boundary order or conflict pair is directed
// prefix → suffix, a correctness violation is a cycle, and a cycle needs
// an edge pointing back into the prefix — so dropping the prefix cannot
// change any later verdict. The runtime certifier enforces the premise: it
// retires a root only once no live attempt can draw a seq below the
// root's events (sched's execution index). The engine enforces the "nothing
// references them" contract mechanically: a later delta naming a dropped
// node fails validateDelta with an unknown-node error.
//
// After a drop the engine state is byte-for-byte a fresh engine's fed the
// pruned system, save that the invocation graph keeps the dropped roots'
// edges: Append/Admit verdicts over any later stream are byte-identical to
// CheckReference over the accumulated (pruned) system when its levels
// agree — the retire property tests (retire_test.go) assert this across
// fold boundaries.

// LiveNodes returns the number of forest nodes currently accumulated,
// parked ones included — the engine's memory watermark gauge.
func (inc *Incremental) LiveNodes() int { return inc.sys.NumNodes() + inc.parkedNodes }

// ParkedNodes returns the number of nodes in parked deltas: the engine
// holds those deltas, Nodes slices included, until it absorbs or retires
// them.
func (inc *Incremental) ParkedNodes() int { return inc.parkedNodes }

// Retire folds the given committed roots — each with its entire subtree —
// out of the engine. A parked root is dropped unabsorbed — an isolated
// vertex needs no reduction to be forgotten — and with it the rest of its
// parked delta. Every id must be a root of the accumulated system or of a
// parked delta, named once. After the call, later deltas must not
// reference any retired node: such a delta is rejected by validation. On
// error nothing is changed.
func (inc *Incremental) Retire(roots []model.NodeID) error {
	var kept []model.NodeID
	var buf [4]int32
	parked := buf[:0]
	for _, id := range roots {
		if k, ok := inc.parkedAt[id]; !ok {
			kept = append(kept, id)
		} else if !slices.Contains(parked, k) {
			parked = append(parked, k)
		}
	}
	if err := inc.fold(kept); err != nil {
		return err
	}
	nodes := 0
	for _, k := range parked {
		nodes += len(inc.parked[k].Nodes)
	}
	if nodes == inc.parkedNodes {
		inc.dropParked() // every parked delta goes: one clear beats a delete per node
	} else {
		for _, k := range parked {
			inc.unpark(k)
		}
	}
	return nil
}

// Seed returns the engine that Admit of sys followed by Retire of every
// root leaves, without running the reduction: sys's schedules with no
// nodes, its invocation graph and the levels that graph assigns, and an
// empty engine over them, so the next Admit takes the journaled path. It
// is how a caller that has already decided sys (Check) hands it to a
// certifier once no root of sys can be ordered after a later one. sys
// must be structurally valid; a recursive configuration is an error.
func Seed(sys *model.System, opts IncrementalOptions) (*Incremental, error) {
	ig := sys.InvocationGraph()
	levels, err := igLevels(ig)
	if err != nil {
		return nil, err
	}
	seeded := model.NewSystem()
	for _, sc := range sys.Schedules() {
		seeded.AddSchedule(sc.ID)
	}
	return &Incremental{
		opts:   opts,
		sys:    seeded,
		ig:     ig,
		levels: levels,
		eng:    newIncEngine(levels, opts.PropagateInputs, 0),
	}, nil
}

// fold is Retire of roots with nothing parked under them.
func (inc *Incremental) fold(roots []model.NodeID) error {
	if len(roots) == 0 {
		return nil
	}
	seen := make(map[model.NodeID]struct{}, len(roots))
	for _, id := range roots {
		nd := inc.sys.Node(id)
		if nd == nil {
			return fmt.Errorf("front: retire of unknown root %q", id)
		}
		if nd.Parent != "" {
			return fmt.Errorf("front: retire target %q is not a root (parent %q)", id, nd.Parent)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("front: retire names root %q twice", id)
		}
		seen[id] = struct{}{}
	}

	inc.sys.RemoveTrees(roots)
	// Rebuild over the pruned system. The level assignment is untouched
	// (schedules persist through a fold), so the engine's skeleton is
	// still valid: reset it in place (keeping the interning map, slot
	// tables and slabs) and replay the live suffix — a fold on a
	// steady-state window then allocates almost nothing.
	if inc.eng != nil {
		inc.eng.reset()
		inc.eng.load(inc.sys, inc.sys.Preorder())
		if inc.eng.failed {
			// Cannot happen: removing whole composite transactions from a
			// correct execution only removes constraints (monotonicity),
			// so the suffix stays correct. Drop the engine rather than
			// certify over broken state.
			inc.eng = nil
			return fmt.Errorf("front: retire rebuild found the pruned suffix incorrect (engine bug)")
		}
	}
	return nil
}
