package front

import (
	"fmt"
	"slices"

	"compositetx/internal/model"
	"compositetx/internal/order"
)

// This file is the oracle: the readable string-keyed reduction of
// Definitions 15–16 that the engine (incremental.go) is tested against.
// It shares no code with the engine beyond the Front, StepReport and
// Verdict it reports in.

// CheckReference decides composite correctness like Check, by the
// string-keyed reduction of this file: level0 builds the level 0 front
// (Definition 15), step each next one (Definition 16), and the serial
// witness is a topological sort of the level-N front (Theorem 1 proof).
// The property tests assert the engine ≡ CheckReference on random
// workloads, every stream prefix included, and bench/ compares verdicts
// and times the two (the front.reference_ratio probe, see
// bench/README.md). It works on a normalized clone and does not mutate
// sys. Use Check; this exists for testing and benchmarking only.
func CheckReference(sys *model.System, opts Options) (*Verdict, error) {
	_, levels, err := sys.Structure()
	if err != nil {
		return nil, err
	}
	ns := sys.Clone()
	ns.Normalize()
	n := 0
	for _, l := range levels {
		if l > n {
			n = l
		}
	}

	v := &Verdict{Order: n, FailedLevel: -1}
	f := level0(ns)
	v.Steps = append(v.Steps, &StepReport{Level: 0})
	if opts.KeepFronts {
		v.Fronts = append(v.Fronts, f)
	}
	if c := f.ccCycle(); c != nil {
		v.FailedLevel = 0
		v.Reason = failReason(&StepReport{Level: 0, Failure: FailCC, Cycle: c})
		return v, nil
	}

	for f.Level < n {
		nf, rep := step(ns, f, levels)
		v.Steps = append(v.Steps, rep)
		if nf == nil {
			v.FailedLevel = rep.Level
			v.Reason = failReason(rep)
			return v, nil
		}
		f = nf
		if opts.KeepFronts {
			v.Fronts = append(v.Fronts, f)
		}
	}

	// The level-N front must consist of exactly the root transactions.
	roots := ns.Roots()
	if f.Len() != len(roots) {
		return nil, fmt.Errorf("front: level %d front has %d nodes, want %d roots", n, f.Len(), len(roots))
	}
	for _, r := range roots {
		if !f.Has(r) {
			return nil, fmt.Errorf("front: root %s missing from level %d front", r, n)
		}
	}

	serial, ok := f.serialWitness()
	if !ok {
		// Cannot happen: the final front passed the CC check.
		return nil, fmt.Errorf("front: CC level-%d front has no topological order", n)
	}
	v.Correct = true
	v.SerialOrder = serial
	return v, nil
}

// ccCycle returns a cycle of <o ∪ → witnessing that f violates conflict
// consistency (Definition 13), or nil when f is CC.
func (f *Front) ccCycle() []model.NodeID {
	return order.UnionOf(f.Obs, f.WeakIn).FindCycle()
}

// serialWitness returns a total order over the front's nodes consistent
// with <o and →, i.e. the serial front the composite schedule is
// level-N-contained in (Definition 20, via topological sorting as in the
// proof of Theorem 1). It fails iff the front is not CC.
func (f *Front) serialWitness() ([]model.NodeID, bool) {
	return order.UnionOf(f.Obs, f.WeakIn).TopoSort()
}

// level0 builds the level 0 front of a composite system (Definition 15):
// its nodes are all leaves; the observed order comes from Definition 10
// rule 1 (pairs of same-schedule operations involving a leaf, ordered as
// the schedule's weak output order); conflicts are the schedules' own
// predicates (Definition 11 case 1); input orders are empty because leaves
// are transactions of no schedule.
//
// The system must already be normalized (transitively closed orders);
// CheckReference normalizes a clone before calling this.
func level0(sys *model.System) *Front {
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

// step performs one reduction step (Definition 16): it builds the level
// f.Level+1 front from f by replacing the operations of every schedule of
// that level with the schedule's transactions. It reports failure when the
// rearranged front F** does not exist or the new front is not conflict
// consistent; on failure the returned front is nil.
//
// levels must come from sys.Levels(); sys must be normalized.
func step(sys *model.System, f *Front, levels map[model.ScheduleID]int) (*Front, *StepReport) {
	level := f.Level + 1
	rep := &StepReport{Level: level}

	// Schedules reduced at this level, in deterministic order.
	var scheds []*model.Schedule
	for _, sc := range sys.Schedules() {
		if levels[sc.ID] == level {
			scheds = append(scheds, sc)
		}
	}

	// groupOf maps every operation being reduced to its parent transaction;
	// every other front node is its own singleton group.
	groupOf := make(map[model.NodeID]model.NodeID)
	var newTx []model.NodeID
	for _, sc := range scheds {
		for _, t := range sys.Transactions(sc.ID) {
			newTx = append(newTx, t)
			for _, op := range sys.Children(t) {
				if !f.Has(op) {
					// Cannot happen in a well-formed system: operations of a
					// level-i schedule are leaves or transactions of lower
					// levels, all present in the level i-1 front.
					panic(fmt.Sprintf("front: op %s of %s not in level %d front", op, t, f.Level))
				}
				groupOf[op] = t
			}
		}
	}
	rep.Reduced = append([]model.NodeID(nil), newTx...)

	group := func(n model.NodeID) model.NodeID {
		if g, ok := groupOf[n]; ok {
			return g
		}
		return n
	}

	// --- Definition 16 step 1: does the rearranged front F** exist? --------
	//
	// Constraint relation E (interpretation D3): observed-order pairs
	// between generalized-conflicting nodes, strong input orders between
	// front elements, each reduced schedule's weak output order restricted
	// to conflicting pairs, and each reduced transaction's weak
	// intra-transaction order. Pairs outside E commute and may be
	// reordered freely: Definition 16 step 1 permits "changing the order
	// of commuting pairs", and an observed-order pair between operations
	// of one common schedule that declares no conflict is exactly such a
	// commuting pair — the schedule vouches for commutativity (the
	// "forgotten" orders of the paper's Figure 4 walkthrough).
	e := order.New[model.NodeID]()
	f.Obs.Each(func(a, b model.NodeID) {
		if f.Con.Has(a, b) {
			e.Add(a, b)
		}
	})
	e.Union(f.StrongIn)
	for _, sc := range scheds {
		sc.Conflicts.Each(func(a, b model.NodeID) {
			if sc.WeakOut.Has(a, b) {
				e.Add(a, b)
			}
			if sc.WeakOut.Has(b, a) {
				e.Add(b, a)
			}
		})
	}
	for _, t := range newTx {
		n := sys.Node(t)
		if n.WeakIntra != nil {
			e.Union(n.WeakIntra)
		}
	}

	ok, badGroup, qCycle := groupable(e, group)
	if !ok {
		if badGroup != "" {
			rep.Failure = FailCalculation
			rep.BadTransaction = badGroup
			inner := e.Restrict(func(n model.NodeID) bool { return group(n) == badGroup })
			rep.Cycle = inner.FindCycle()
		} else {
			rep.Failure = FailIsolation
			rep.Cycle = qCycle
		}
		return nil, rep
	}

	// --- Definition 16 steps 2–5: build the new front. ----------------------
	nf := &Front{
		Level:    level,
		nodes:    make(map[model.NodeID]struct{}),
		Obs:      order.New[model.NodeID](),
		Con:      model.NewPairSet(),
		WeakIn:   order.New[model.NodeID](),
		StrongIn: order.New[model.NodeID](),
	}
	for n := range f.nodes {
		if _, reduced := groupOf[n]; !reduced {
			nf.nodes[n] = struct{}{} // survivors, including roots (step 5)
		}
	}
	for _, t := range newTx {
		nf.nodes[t] = struct{}{}
	}
	for n := range nf.nodes {
		nf.Obs.AddNode(n)
	}

	// Observed order, step 3/4 (interpretation D2):
	//
	// (a) Definition 10 rule 2 at each reduced schedule: conflicting
	// operations ordered by the schedule induce observed order between
	// their parents.
	for _, sc := range scheds {
		sc.Conflicts.Each(func(a, b model.NodeID) {
			pa, pb := group(a), group(b)
			if pa == pb {
				return
			}
			if sc.WeakOut.Has(a, b) {
				nf.Obs.Add(pa, pb)
			}
			if sc.WeakOut.Has(b, a) {
				nf.Obs.Add(pb, pa)
			}
		})
	}

	// (b) Lift existing observed-order pairs. A pair whose endpoints are
	// both operations of one common schedule is kept only if that schedule
	// declares a conflict — otherwise the schedule vouches for
	// commutativity and the order is forgotten (Definition 10 rules 2–3,
	// the paper's Figure 4 walkthrough). All other pairs propagate
	// (rule 3), lifted on the reduced side(s).
	f.Obs.Each(func(a, b model.NodeID) {
		la, lb := group(a), group(b)
		if la == lb {
			return
		}
		_, ra := groupOf[a]
		_, rb := groupOf[b]
		if ra && rb {
			sa, sb := sys.OpSchedule(a), sys.OpSchedule(b)
			if sa == sb && sa != "" {
				if !sys.Schedule(sa).Conflict(a, b) {
					return // forgotten: common schedule, no conflict
				}
			}
		}
		nf.Obs.Add(la, lb)
	})

	// (c) Definition 10 rule 1 for pairs involving the new nodes: a new
	// node that shares its operation-schedule with a leaf front node is
	// observed-ordered as that schedule's weak output order.
	for _, t := range newTx {
		st := sys.OpSchedule(t)
		if st == "" {
			continue // root transaction
		}
		sc := sys.Schedule(st)
		for other := range nf.nodes {
			if other == t || sys.OpSchedule(other) != st {
				continue
			}
			if !sys.Node(other).IsLeaf() && !sys.Node(t).IsLeaf() {
				continue // rule 1 needs at least one leaf in the pair
			}
			if sc.WeakOut.Has(t, other) {
				nf.Obs.Add(t, other)
			}
			if sc.WeakOut.Has(other, t) {
				nf.Obs.Add(other, t)
			}
		}
	}

	nf.Obs = nf.Obs.TransitiveClosure() // rule 4

	// Input orders, step 6: keep surviving pairs, add the reduced
	// schedules' input orders over their transactions.
	f.WeakIn.Each(func(a, b model.NodeID) {
		if nf.Has(a) && nf.Has(b) {
			nf.WeakIn.Add(a, b)
		}
	})
	f.StrongIn.Each(func(a, b model.NodeID) {
		if nf.Has(a) && nf.Has(b) {
			nf.StrongIn.Add(a, b)
		}
	})
	for _, sc := range scheds {
		sc.WeakIn.Each(func(a, b model.NodeID) { nf.WeakIn.Add(a, b) })
		sc.StrongIn.Each(func(a, b model.NodeID) { nf.StrongIn.Add(a, b) })
	}

	// Generalized conflicts (Definition 11), recomputed over the new front:
	// same-schedule pairs use the schedule's predicate; cross-schedule
	// pairs conflict iff observed-ordered.
	recomputeCon(sys, nf)

	// Definition 16 step 6: the new front must be conflict consistent.
	if c := nf.ccCycle(); c != nil {
		rep.Failure = FailCC
		rep.Cycle = c
		return nil, rep
	}
	return nf, rep
}

// groupable decides Definition 16 step 1: whether the nodes of the
// constraint relation e can be arranged in a total order that (a) respects
// every pair of e and (b) keeps each group contiguous, where each
// transaction being reduced is one group and every surviving front node
// its own singleton. On failure it reports which stage failed:
//
//   - a group that is internally cyclic (no calculation of it exists),
//     the smallest such group, or
//   - a cycle between groups in the quotient graph — e contracted by
//     groupOf, pairs inside one group dropped (no isolated placement of
//     the groups exists).
//
// This is the classical reducibility argument: given an acyclic quotient,
// topologically sort the groups, then each group internally; conversely any
// contiguous arrangement induces a total group order consistent with all
// cross-group pairs, so the quotient must be acyclic. A node no pair of e
// touches can close no cycle, so only the pairs are visited.
func groupable(e *order.Relation[model.NodeID], groupOf func(model.NodeID) model.NodeID) (ok bool, badGroup model.NodeID, quotientCycle []model.NodeID) {
	inner := make(map[model.NodeID]*order.Relation[model.NodeID])
	q := order.New[model.NodeID]()
	e.Each(func(a, b model.NodeID) {
		ga, gb := groupOf(a), groupOf(b)
		if ga != gb {
			q.Add(ga, gb)
			return
		}
		r, ok := inner[ga]
		if !ok {
			r = order.New[model.NodeID]()
			inner[ga] = r
		}
		r.Add(a, b)
	})
	groups := make([]model.NodeID, 0, len(inner))
	for g := range inner {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	for _, g := range groups {
		if inner[g].HasCycle() {
			return false, g, nil
		}
	}
	if c := q.FindCycle(); c != nil {
		return false, "", c
	}
	return true, "", nil
}

// recomputeCon rebuilds the generalized conflict relation of a front per
// Definition 11.
func recomputeCon(sys *model.System, f *Front) {
	f.Con = model.NewPairSet()
	nodes := f.Nodes()
	for i, a := range nodes {
		sa := sys.OpSchedule(a)
		for _, b := range nodes[i+1:] {
			sb := sys.OpSchedule(b)
			if sa != "" && sa == sb {
				if sys.Schedule(sa).Conflict(a, b) {
					f.Con.Add(a, b)
				}
			} else if f.Obs.Has(a, b) || f.Obs.Has(b, a) {
				f.Con.Add(a, b)
			}
		}
	}
}
