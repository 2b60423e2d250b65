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
// Levels: the node IDs sorted and the level of every schedule (Definition
// 9: one plus the length of the longest IG path starting at it), or an
// error joining every violation. front.Check needs all three and pays
// for one sort and one invocation graph.
func (s *System) Structure() (sortedIDs []NodeID, levels map[ScheduleID]int, err error) {
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	ids := s.NodeIDs()
	// walk colours each node with the number of the parent-chain walk that
	// first reached it; a walk that runs into its own colour found a cycle.
	walk := make(map[*Node]int, len(ids))
	cyclic := false
	for k, id := range ids {
		n := s.nodes[id]
		for cur := n; cur != nil; cur = s.nodes[cur.Parent] {
			if walk[cur] != 0 {
				cyclic = cyclic || walk[cur] == k+1
				break
			}
			walk[cur] = k + 1
		}
		if n.Parent != "" {
			p := s.nodes[n.Parent]
			switch {
			case p == nil:
				add("node %s: parent %s does not exist", id, n.Parent)
				continue
			case p.IsLeaf():
				add("node %s: parent %s is a leaf; only transactions have operations", id, n.Parent)
			}
		}
		if n.Sched != "" {
			if s.schedules[n.Sched] == nil {
				add("transaction %s: schedule %s does not exist", id, n.Sched)
			}
		} else if len(s.children[id]) > 0 {
			add("leaf %s has children %v", id, s.Children(id))
		}
		if n.IsLeaf() && (n.WeakIntra != nil && n.WeakIntra.Len() > 0 || n.StrongIntra != nil && n.StrongIntra.Len() > 0) {
			add("leaf %s carries intra-transaction orders", id)
		}
	}
	if cyclic {
		// Only a cycle pays for the per-node walk that words its errors.
		for _, id := range ids {
			seen := map[NodeID]bool{}
			for cur := id; cur != ""; {
				if seen[cur] {
					add("node %s: cyclic parent chain through %s", id, cur)
					break
				}
				seen[cur] = true
				n := s.nodes[cur]
				if n == nil {
					break
				}
				cur = n.Parent
			}
		}
	}
	if len(errs) > 0 {
		return nil, nil, errors.Join(errs...)
	}

	// Definition 4 item 6: no recursion; IG acyclic.
	ig := s.InvocationGraph()
	for _, sc := range s.Schedules() {
		if ig.Has(sc.ID, sc.ID) {
			add("schedule %s invokes itself", sc.ID)
		}
	}
	sorted, ok := ig.TopoSort()
	if !ok {
		add("invocation graph is cyclic: %v", ig.FindCycle())
	}
	if len(errs) > 0 {
		return nil, nil, errors.Join(errs...)
	}
	levels = make(map[ScheduleID]int, len(sorted))
	// Longest path from each node: process in reverse topological order.
	for i := len(sorted) - 1; i >= 0; i-- {
		sc := sorted[i]
		longest := 0
		for _, succ := range ig.Successors(sc) {
			longest = max(longest, levels[succ])
		}
		levels[sc] = longest + 1
	}
	return ids, levels, nil
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
		n := ns.nodes[id]
		if n.IsLeaf() {
			continue
		}
		kids := map[NodeID]struct{}{}
		for _, k := range ns.children[id] {
			kids[k] = struct{}{}
		}
		if n.WeakIntra != nil {
			for _, p := range n.WeakIntra.Pairs() {
				if _, ok := kids[p[0]]; !ok {
					add("transaction %s: intra order mentions non-operation %s", id, p[0])
				}
				if _, ok := kids[p[1]]; !ok {
					add("transaction %s: intra order mentions non-operation %s", id, p[1])
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
		ops := ns.Ops(sc.ID)
		isTx := map[NodeID]bool{}
		for _, t := range trans {
			isTx[t] = true
		}
		isOp := map[NodeID]bool{}
		for _, o := range ops {
			isOp[o] = true
		}

		// Domains.
		sc.Conflicts.Each(func(a, b NodeID) {
			if !isOp[a] || !isOp[b] {
				add("schedule %s: conflict (%s,%s) mentions a non-operation", sc.ID, a, b)
			}
		})
		for _, p := range sc.WeakIn.Pairs() {
			if !isTx[p[0]] || !isTx[p[1]] {
				add("schedule %s: weak input order (%s,%s) mentions a non-transaction", sc.ID, p[0], p[1])
			}
		}
		for _, p := range sc.WeakOut.Pairs() {
			if !isOp[p[0]] || !isOp[p[1]] {
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
			n := ns.nodes[t]
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
			a, b := ns.nodes[p[0]], ns.nodes[p[1]]
			if a == nil || b == nil || a.IsLeaf() || b.IsLeaf() {
				continue
			}
			if a.Sched != b.Sched {
				continue
			}
			target := ns.schedules[a.Sched]
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
