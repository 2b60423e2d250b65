package model

import (
	"errors"
	"fmt"
)

// ValidateStructure checks the structural soundness of the computational
// forest and the invocation graph: parents exist and are transactions,
// parent chains terminate, intra orders live on transactions, schedules
// exist, and the configuration is recursion-free (Definition 4 item 6).
// The reduction (internal/front) requires exactly these properties; the
// order-theoretic axioms of Definition 3 are checked by Validate on top.
func (s *System) ValidateStructure() error {
	_, _, err := s.Structure()
	return err
}

// Structure is the one structural pass behind ValidateStructure and
// Levels: the forest in parents-first preorder (Preorder) and the level of
// every schedule (Definition 9: one plus the length of the longest IG path
// starting at it), or an error joining every violation. front.Check needs
// both. The pass walks refs and schedule numbers; only a system with
// violations pays for sorting IDs, to word them in ID order.
func (s *System) Structure() (preorder []NodeRef, levels map[ScheduleID]int, err error) {
	bad := false
	for _, n := range s.nodes {
		s.checkNode(n, func(string, ...any) { bad = true })
	}
	if !bad {
		preorder = s.Preorder()
		// Every parent exists, so a node no root reaches is on or below a
		// parent cycle.
		bad = len(preorder) != len(s.nodes)
	}
	if bad {
		return nil, nil, s.forestErrors()
	}
	if levels = s.levels(preorder); levels == nil {
		return nil, nil, s.igErrors()
	}
	return preorder, levels, nil
}

// checkNode reports n's own forest violations to add: a missing or leaf
// parent, a missing schedule, a leaf with operations or intra orders.
func (s *System) checkNode(n *Node, add func(format string, args ...any)) {
	if n.Parent != "" {
		switch {
		case n.parent == NoRef:
			add("node %s: parent %s does not exist", n.ID, n.Parent)
			return
		case s.nodes[n.parent].IsLeaf():
			add("node %s: parent %s is a leaf; only transactions have operations", n.ID, n.Parent)
		}
	}
	if n.Sched != "" {
		if n.sched < 0 {
			add("transaction %s: schedule %s does not exist", n.ID, n.Sched)
		}
	} else if n.kid != NoRef {
		add("leaf %s has children %v", n.ID, s.Children(n.ID))
	}
	if n.IsLeaf() && (n.WeakIntra != nil && n.WeakIntra.Len() > 0 || n.StrongIntra != nil && n.StrongIntra.Len() > 0) {
		add("leaf %s carries intra-transaction orders", n.ID)
	}
}

// levels assigns every schedule its level by relaxing the invocation
// edges (caller ≥ callee + 1, one per transaction invoked by a
// transaction) over the forest, children first, until nothing changes.
// A pass fixes every longest path one edge further, so an acyclic graph
// settles within NumSchedules passes; it returns nil for one that does
// not.
func (s *System) levels(preorder []NodeRef) map[ScheduleID]int {
	level := make([]int32, len(s.scheds))
	for changed, pass := true, 0; changed; pass++ {
		if pass > len(s.scheds) {
			return nil
		}
		changed = false
		for i := len(preorder) - 1; i >= 0; i-- {
			n := s.nodes[preorder[i]]
			if n.sched < 0 || n.parent == NoRef {
				continue
			}
			if p := s.nodes[n.parent].sched; p >= 0 && level[p] <= level[n.sched] {
				level[p], changed = level[n.sched]+1, true
			}
		}
	}
	levels := make(map[ScheduleID]int, len(s.scheds))
	for k, sc := range s.scheds {
		levels[sc.ID] = int(level[k]) + 1
	}
	return levels
}

// forestErrors words the forest's violations: per node in ID order, then
// the parent cycles.
func (s *System) forestErrors() error {
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	ids := s.NodeIDs()
	// walk colours each node with the number of the parent-chain walk that
	// first reached it; a walk that runs into its own colour found a cycle.
	walk := make([]int32, len(s.nodes))
	cyclic := false
	for k, id := range ids {
		for cur := s.refs[id]; cur != NoRef; cur = s.nodes[cur].parent {
			if walk[cur] != 0 {
				cyclic = cyclic || walk[cur] == int32(k+1)
				break
			}
			walk[cur] = int32(k + 1)
		}
		s.checkNode(s.Node(id), add)
	}
	if cyclic {
		// Only a cycle pays for the per-node walk that words its errors.
		for _, id := range ids {
			seen := map[NodeRef]bool{}
			for cur := s.refs[id]; cur != NoRef; cur = s.nodes[cur].parent {
				if seen[cur] {
					add("node %s: cyclic parent chain through %s", id, s.nodes[cur].ID)
					break
				}
				seen[cur] = true
			}
		}
	}
	return errors.Join(errs...)
}

// igErrors words a recursive configuration (Definition 4 item 6: no
// recursion, IG acyclic) on the string-keyed invocation graph.
func (s *System) igErrors() error {
	var errs []error
	ig := s.InvocationGraph()
	for _, sc := range s.Schedules() {
		if ig.Has(sc.ID, sc.ID) {
			errs = append(errs, fmt.Errorf("schedule %s invokes itself", sc.ID))
		}
	}
	if _, ok := ig.TopoSort(); !ok {
		errs = append(errs, fmt.Errorf("invocation graph is cyclic: %v", ig.FindCycle()))
	}
	return errors.Join(errs...)
}

// Validate checks the system against the model's axioms (Definitions 2, 3
// and 4). It returns nil if the system is well-formed, or an error joining
// every violation found. Validation works on a normalized copy, so the
// caller's relations need not be transitively closed.
//
// Validate checks well-formedness only. A well-formed system can still be
// an incorrect execution; correctness (Comp-C) is decided by internal/front.
func (s *System) Validate() error {
	if err := s.ValidateStructure(); err != nil {
		// Deeper checks assume a sound forest.
		return err
	}
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// Work on a normalized copy for the order-theoretic axioms.
	ns := s.Clone()
	ns.Normalize()

	// Per-transaction intra orders (Definition 2).
	for _, id := range ns.NodeIDs() {
		n := ns.Node(id)
		if n.IsLeaf() {
			continue
		}
		if n.WeakIntra != nil {
			for _, p := range n.WeakIntra.Pairs() {
				for _, o := range p {
					if ns.Parent(o) != id || o == id {
						add("transaction %s: intra order mentions non-operation %s", id, o)
					}
				}
			}
			if n.WeakIntra.HasCycle() {
				add("transaction %s: weak intra-transaction order is cyclic", id)
			}
		}
		if n.StrongIntra != nil && n.WeakIntra != nil && !n.WeakIntra.Contains(n.StrongIntra) {
			add("transaction %s: strong intra order not contained in weak intra order", id)
		}
	}

	// Per-schedule axioms (Definition 3).
	for _, sc := range ns.Schedules() {
		trans := ns.Transactions(sc.ID)
		isTx := func(id NodeID) bool { n := ns.Node(id); return n != nil && n.Sched == sc.ID }
		isOp := func(id NodeID) bool { return ns.OpSchedule(id) == sc.ID }

		// Domains.
		sc.Conflicts.Each(func(a, b NodeID) {
			if !isOp(a) || !isOp(b) {
				add("schedule %s: conflict (%s,%s) mentions a non-operation", sc.ID, a, b)
			}
		})
		for _, p := range sc.WeakIn.Pairs() {
			if !isTx(p[0]) || !isTx(p[1]) {
				add("schedule %s: weak input order (%s,%s) mentions a non-transaction", sc.ID, p[0], p[1])
			}
		}
		for _, p := range sc.WeakOut.Pairs() {
			if !isOp(p[0]) || !isOp(p[1]) {
				add("schedule %s: weak output order (%s,%s) mentions a non-operation", sc.ID, p[0], p[1])
			}
		}

		// Partial orders: acyclic after closure.
		if sc.WeakIn.HasCycle() {
			add("schedule %s: weak input order is cyclic", sc.ID)
		}
		if sc.WeakOut.HasCycle() {
			add("schedule %s: weak output order is cyclic", sc.ID)
		}

		// Containments ⇒ ⊆ → and ≪ ⊆ ≺ (Definition 3 item 4). Normalize
		// already folds strong into weak, so check on the normalized copy
		// against the original to catch explicit contradictions instead:
		// after closure the containment holds by construction, so verify
		// the fold did not create cycles (caught above) and move on.

		// Definition 3 item 1: output order of conflicting operations.
		sc.Conflicts.Each(func(o, o2 NodeID) {
			t, t2 := ns.Parent(o), ns.Parent(o2)
			if t == t2 {
				return // intra-transaction conflicts are ordered by item 2
			}
			switch {
			case sc.WeakIn.Has(t, t2):
				if !sc.WeakOut.Has(o, o2) {
					add("schedule %s: %s→%s requires conflicting ops %s≺%s (Def 3.1a)", sc.ID, t, t2, o, o2)
				}
			case sc.WeakIn.Has(t2, t):
				if !sc.WeakOut.Has(o2, o) {
					add("schedule %s: %s→%s requires conflicting ops %s≺%s (Def 3.1b)", sc.ID, t2, t, o2, o)
				}
			default:
				if !sc.WeakOut.Has(o, o2) && !sc.WeakOut.Has(o2, o) {
					add("schedule %s: conflicting ops %s,%s left unordered (Def 3.1c)", sc.ID, o, o2)
				}
			}
		})

		// Definition 3 item 2 (interpretation D1): output orders respect
		// each transaction's intra orders.
		for _, t := range trans {
			n := ns.Node(t)
			if n.WeakIntra != nil && !sc.WeakOut.Contains(n.WeakIntra) {
				add("schedule %s: weak output order violates intra order of %s (Def 3.2)", sc.ID, t)
			}
			if n.StrongIntra != nil && !sc.StrongOut.Contains(n.StrongIntra) {
				add("schedule %s: strong output order violates strong intra order of %s (Def 3.2)", sc.ID, t)
			}
		}

		// Definition 3 item 3: strong input order forces strong output order
		// between all operations of the two transactions.
		for _, p := range sc.StrongIn.Pairs() {
			for _, o := range ns.Children(p[0]) {
				for _, o2 := range ns.Children(p[1]) {
					if !sc.StrongOut.Has(o, o2) {
						add("schedule %s: %s⇒%s requires %s≪%s (Def 3.3)", sc.ID, p[0], p[1], o, o2)
					}
				}
			}
		}
	}

	// Definition 4 item 7: output orders propagate as input orders to the
	// schedule both operations are sent to.
	for _, sc := range ns.Schedules() {
		for _, p := range sc.WeakOut.Pairs() {
			a, b := ns.Node(p[0]), ns.Node(p[1])
			if a == nil || b == nil || a.IsLeaf() || b.IsLeaf() {
				continue
			}
			if a.Sched != b.Sched {
				continue
			}
			target := ns.Schedule(a.Sched)
			if target == nil {
				continue
			}
			if !target.WeakIn.Has(p[0], p[1]) {
				add("schedule %s: %s≺%s not passed to %s as weak input order (Def 4.7)", sc.ID, p[0], p[1], a.Sched)
			}
			if sc.StrongOut.Has(p[0], p[1]) && !target.StrongIn.Has(p[0], p[1]) {
				add("schedule %s: %s≪%s not passed to %s as strong input order (Def 4.7)", sc.ID, p[0], p[1], a.Sched)
			}
		}
	}

	return errors.Join(errs...)
}
