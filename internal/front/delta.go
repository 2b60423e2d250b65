package front

import (
	"fmt"

	"compositetx/internal/model"
	"compositetx/internal/order"
)

// Delta is an append-only increment to a composite system: new schedules,
// new forest nodes, and new relation pairs. It is the unit of work of
// Incremental.Append — the recorded execution grows monotonically (commits
// only add nodes and pairs, never remove them), which is exactly what
// makes the incremental reduction sound.
//
// A delta is self-ordered: a node's parent must appear in the target
// system already or earlier in Nodes, and every pair endpoint must exist
// once the delta's nodes are applied.
type Delta struct {
	Schedules []model.ScheduleID
	Nodes     []DeltaNode

	// Per-schedule relation pairs. Conflicts are unordered operation
	// pairs of the schedule's conflict predicate; the four order slices
	// carry generating pairs of ≺, ≪, → and ⇒ respectively (closure is
	// the engine's job, exactly as Normalize closes stored systems).
	Conflicts []DeltaPair
	WeakOut   []DeltaPair
	StrongOut []DeltaPair
	WeakIn    []DeltaPair
	StrongIn  []DeltaPair

	// Intra carries intra-transaction order pairs (≺t / ≪t).
	Intra []DeltaIntra
}

// DeltaNode declares one forest node. Parent == "" makes it a root
// transaction (Sched required); Sched == "" makes it a leaf operation
// (Parent required); both set makes it a subtransaction.
type DeltaNode struct {
	ID     model.NodeID
	Parent model.NodeID
	Sched  model.ScheduleID
}

// DeltaPair is one relation pair of schedule Sched.
type DeltaPair struct {
	Sched model.ScheduleID
	A, B  model.NodeID
}

// DeltaIntra is one intra-transaction order pair of transaction Tx.
type DeltaIntra struct {
	Tx     model.NodeID
	A, B   model.NodeID
	Strong bool
}

// Apply adds the delta to a model.System. The delta must be valid for the
// system (Incremental validates before applying; direct callers get the
// System builder's panics on misuse).
func (d *Delta) Apply(sys *model.System) {
	for _, id := range d.Schedules {
		sys.AddSchedule(id)
	}
	for _, n := range d.Nodes {
		switch {
		case n.Parent == "":
			sys.AddRoot(n.ID, n.Sched)
		case n.Sched == "":
			sys.AddLeaf(n.ID, n.Parent)
		default:
			sys.AddTx(n.ID, n.Parent, n.Sched)
		}
	}
	for _, p := range d.Conflicts {
		sys.Schedule(p.Sched).AddConflict(p.A, p.B)
	}
	for _, p := range d.WeakOut {
		sys.Schedule(p.Sched).WeakOut.Add(p.A, p.B)
	}
	for _, p := range d.StrongOut {
		sys.Schedule(p.Sched).StrongOut.Add(p.A, p.B)
	}
	for _, p := range d.WeakIn {
		sys.Schedule(p.Sched).WeakIn.Add(p.A, p.B)
	}
	for _, p := range d.StrongIn {
		sys.Schedule(p.Sched).StrongIn.Add(p.A, p.B)
	}
	for _, ip := range d.Intra {
		nd := sys.Node(ip.Tx)
		if ip.Strong {
			if nd.StrongIntra == nil {
				nd.StrongIntra = order.New[model.NodeID]()
			}
			nd.StrongIntra.Add(ip.A, ip.B)
		}
		if nd.WeakIntra == nil {
			nd.WeakIntra = order.New[model.NodeID]()
		}
		nd.WeakIntra.Add(ip.A, ip.B)
	}
}

// validateDelta checks a delta against the accumulated system,
// all-or-nothing: on error nothing may be applied. It enforces the same
// structural rules the System builders panic on, plus pair well-formedness
// (endpoints exist, belong to the named schedule, and are distinct).
func validateDelta(sys *model.System, d *Delta) error {
	newScheds := make(map[model.ScheduleID]bool, len(d.Schedules))
	for _, id := range d.Schedules {
		if id == "" {
			return fmt.Errorf("front: delta declares an empty schedule ID")
		}
		if sys.Schedule(id) != nil || newScheds[id] {
			return fmt.Errorf("front: delta re-declares schedule %q", id)
		}
		newScheds[id] = true
	}
	hasSched := func(id model.ScheduleID) bool {
		return newScheds[id] || sys.Schedule(id) != nil
	}

	newNodes := make(map[model.NodeID]*DeltaNode, len(d.Nodes))
	// node returns (sched, known) for a node of sys or an earlier delta entry.
	node := func(id model.NodeID) (model.ScheduleID, bool) {
		if dn := newNodes[id]; dn != nil {
			return dn.Sched, true
		}
		if nd := sys.Node(id); nd != nil {
			return nd.Sched, true
		}
		return "", false
	}
	for i := range d.Nodes {
		dn := &d.Nodes[i]
		if dn.ID == "" {
			return fmt.Errorf("front: delta declares an empty node ID")
		}
		if _, dup := newNodes[dn.ID]; dup || sys.Node(dn.ID) != nil {
			return fmt.Errorf("front: delta re-declares node %q", dn.ID)
		}
		if dn.Parent == "" && dn.Sched == "" {
			return fmt.Errorf("front: delta node %q has neither parent nor schedule", dn.ID)
		}
		if dn.Parent != "" {
			psched, ok := node(dn.Parent)
			if !ok {
				return fmt.Errorf("front: delta node %q has unknown parent %q (parents must precede children)", dn.ID, dn.Parent)
			}
			if psched == "" {
				return fmt.Errorf("front: delta node %q has leaf parent %q", dn.ID, dn.Parent)
			}
		}
		if dn.Sched != "" && !hasSched(dn.Sched) {
			return fmt.Errorf("front: delta node %q references unknown schedule %q", dn.ID, dn.Sched)
		}
		newNodes[dn.ID] = dn
	}

	// opSchedule of a node once the delta is applied: its parent's Sched.
	opSched := func(id model.NodeID) (model.ScheduleID, bool) {
		if dn := newNodes[id]; dn != nil {
			if dn.Parent == "" {
				return "", true
			}
			ps, _ := node(dn.Parent)
			return ps, true
		}
		if nd := sys.Node(id); nd != nil {
			if nd.Parent == "" {
				return "", true
			}
			ps, _ := node(nd.Parent)
			return ps, true
		}
		return "", false
	}

	checkOpPair := func(kind string, p DeltaPair) error {
		if !hasSched(p.Sched) {
			return fmt.Errorf("front: delta %s pair references unknown schedule %q", kind, p.Sched)
		}
		if p.A == p.B {
			return fmt.Errorf("front: delta %s pair (%s, %s) of %s is reflexive", kind, p.A, p.B, p.Sched)
		}
		for _, id := range []model.NodeID{p.A, p.B} {
			os, ok := opSched(id)
			if !ok {
				return fmt.Errorf("front: delta %s pair references unknown node %q", kind, id)
			}
			if os != p.Sched {
				return fmt.Errorf("front: delta %s pair endpoint %q is not an operation of %s", kind, id, p.Sched)
			}
		}
		return nil
	}
	for _, p := range d.Conflicts {
		if err := checkOpPair("conflict", p); err != nil {
			return err
		}
	}
	for _, p := range d.WeakOut {
		if err := checkOpPair("weak-output", p); err != nil {
			return err
		}
	}
	for _, p := range d.StrongOut {
		if err := checkOpPair("strong-output", p); err != nil {
			return err
		}
	}

	checkTxPair := func(kind string, p DeltaPair) error {
		if !hasSched(p.Sched) {
			return fmt.Errorf("front: delta %s pair references unknown schedule %q", kind, p.Sched)
		}
		if p.A == p.B {
			return fmt.Errorf("front: delta %s pair (%s, %s) of %s is reflexive", kind, p.A, p.B, p.Sched)
		}
		for _, id := range []model.NodeID{p.A, p.B} {
			sched, ok := node(id)
			if !ok {
				return fmt.Errorf("front: delta %s pair references unknown node %q", kind, id)
			}
			if sched != p.Sched {
				return fmt.Errorf("front: delta %s pair endpoint %q is not a transaction of %s", kind, id, p.Sched)
			}
		}
		return nil
	}
	for _, p := range d.WeakIn {
		if err := checkTxPair("weak-input", p); err != nil {
			return err
		}
	}
	for _, p := range d.StrongIn {
		if err := checkTxPair("strong-input", p); err != nil {
			return err
		}
	}

	parentOf := func(id model.NodeID) (model.NodeID, bool) {
		if dn := newNodes[id]; dn != nil {
			return dn.Parent, true
		}
		if nd := sys.Node(id); nd != nil {
			return nd.Parent, true
		}
		return "", false
	}
	for _, ip := range d.Intra {
		tsched, ok := node(ip.Tx)
		if !ok {
			return fmt.Errorf("front: delta intra pair references unknown transaction %q", ip.Tx)
		}
		if tsched == "" {
			return fmt.Errorf("front: delta intra pair on leaf %q", ip.Tx)
		}
		if ip.A == ip.B {
			return fmt.Errorf("front: delta intra pair (%s, %s) of %s is reflexive", ip.A, ip.B, ip.Tx)
		}
		for _, id := range []model.NodeID{ip.A, ip.B} {
			par, ok := parentOf(id)
			if !ok {
				return fmt.Errorf("front: delta intra pair references unknown node %q", id)
			}
			if par != ip.Tx {
				return fmt.Errorf("front: delta intra pair endpoint %q is not an operation of %s", id, ip.Tx)
			}
		}
	}
	return nil
}

// SystemDelta expresses an entire system as one delta: applying it to an
// empty system reproduces sys (up to order closure, which the engine
// performs anyway). Nodes are emitted parents-first.
func SystemDelta(sys *model.System) *Delta {
	d := &Delta{}
	for _, sc := range sys.Schedules() {
		d.Schedules = append(d.Schedules, sc.ID)
	}
	var walk func(id model.NodeID)
	walk = func(id model.NodeID) {
		nd := sys.Node(id)
		d.Nodes = append(d.Nodes, DeltaNode{ID: id, Parent: nd.Parent, Sched: nd.Sched})
		for _, k := range sys.Children(id) {
			walk(k)
		}
	}
	for _, r := range sys.Roots() {
		walk(r)
	}
	appendSchedulePairs(sys, d, nil)
	return d
}

// DecomposeByRoot splits a system into one delta per root transaction, in
// sorted root order — the commit-at-a-time stream a live certifier sees.
// The first delta additionally carries every schedule; each relation pair
// rides with the later of its two roots, so every prefix of the stream is
// itself a well-formed system.
func DecomposeByRoot(sys *model.System) []*Delta {
	roots := sys.Roots()
	if len(roots) == 0 {
		return []*Delta{SystemDelta(sys)}
	}
	deltas := make([]*Delta, len(roots))
	rootOf := make(map[model.NodeID]int, sys.NumNodes())
	for k, r := range roots {
		deltas[k] = &Delta{}
		for _, id := range sys.CompositeTransaction(r) {
			rootOf[id] = k
		}
		var walk func(id model.NodeID)
		walk = func(id model.NodeID) {
			nd := sys.Node(id)
			deltas[k].Nodes = append(deltas[k].Nodes, DeltaNode{ID: id, Parent: nd.Parent, Sched: nd.Sched})
			for _, c := range sys.Children(id) {
				walk(c)
			}
		}
		walk(r)
	}
	for _, sc := range sys.Schedules() {
		deltas[0].Schedules = append(deltas[0].Schedules, sc.ID)
	}
	appendSchedulePairs(sys, nil, func(a, b model.NodeID) *Delta {
		ka, kb := rootOf[a], rootOf[b]
		if kb > ka {
			ka = kb
		}
		return deltas[ka]
	})
	return deltas
}

// DecomposeSteps splits a system into the finest append stream: one delta
// per forest node (parents before children, roots in sorted order), each
// relation pair riding with the later of its two endpoints. The first
// delta carries the schedules. Every prefix is a well-formed system —
// this is the op-by-op stream the prefix-exactness property tests replay.
func DecomposeSteps(sys *model.System) []*Delta {
	pos := make(map[model.NodeID]int, sys.NumNodes())
	var deltas []*Delta
	var walk func(id model.NodeID)
	walk = func(id model.NodeID) {
		nd := sys.Node(id)
		pos[id] = len(deltas)
		deltas = append(deltas, &Delta{Nodes: []DeltaNode{{ID: id, Parent: nd.Parent, Sched: nd.Sched}}})
		for _, k := range sys.Children(id) {
			walk(k)
		}
	}
	for _, r := range sys.Roots() {
		walk(r)
	}
	if len(deltas) == 0 {
		return []*Delta{SystemDelta(sys)}
	}
	for _, sc := range sys.Schedules() {
		deltas[0].Schedules = append(deltas[0].Schedules, sc.ID)
	}
	appendSchedulePairs(sys, nil, func(a, b model.NodeID) *Delta {
		k := pos[a]
		if pos[b] > k {
			k = pos[b]
		}
		return deltas[k]
	})
	return deltas
}

// appendSchedulePairs routes every relation pair of sys either into the
// single delta d (when pick is nil) or into pick(a, b).
func appendSchedulePairs(sys *model.System, d *Delta, pick func(a, b model.NodeID) *Delta) {
	target := func(a, b model.NodeID) *Delta {
		if pick == nil {
			return d
		}
		return pick(a, b)
	}
	for _, sc := range sys.Schedules() {
		sc.Conflicts.Each(func(a, b model.NodeID) {
			t := target(a, b)
			t.Conflicts = append(t.Conflicts, DeltaPair{Sched: sc.ID, A: a, B: b})
		})
		sc.WeakOut.Each(func(a, b model.NodeID) {
			t := target(a, b)
			t.WeakOut = append(t.WeakOut, DeltaPair{Sched: sc.ID, A: a, B: b})
		})
		sc.StrongOut.Each(func(a, b model.NodeID) {
			t := target(a, b)
			t.StrongOut = append(t.StrongOut, DeltaPair{Sched: sc.ID, A: a, B: b})
		})
		sc.WeakIn.Each(func(a, b model.NodeID) {
			t := target(a, b)
			t.WeakIn = append(t.WeakIn, DeltaPair{Sched: sc.ID, A: a, B: b})
		})
		sc.StrongIn.Each(func(a, b model.NodeID) {
			t := target(a, b)
			t.StrongIn = append(t.StrongIn, DeltaPair{Sched: sc.ID, A: a, B: b})
		})
	}
	for _, id := range sys.NodeIDs() {
		nd := sys.Node(id)
		if nd.Sched == "" {
			continue
		}
		strong := map[[2]model.NodeID]bool{}
		if nd.StrongIntra != nil {
			nd.StrongIntra.Each(func(a, b model.NodeID) {
				strong[[2]model.NodeID{a, b}] = true
				t := target(a, b)
				t.Intra = append(t.Intra, DeltaIntra{Tx: id, A: a, B: b, Strong: true})
			})
		}
		if nd.WeakIntra != nil {
			nd.WeakIntra.Each(func(a, b model.NodeID) {
				if strong[[2]model.NodeID{a, b}] {
					return
				}
				t := target(a, b)
				t.Intra = append(t.Intra, DeltaIntra{Tx: id, A: a, B: b})
			})
		}
	}
}
