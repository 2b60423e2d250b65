package order

// Quotient contracts the relation by the grouping function: every node n is
// replaced by groupOf(n), and pairs internal to one group are dropped.
// This is the constraint-graph contraction used to decide whether the
// rearranged front F** of Definition 16 step 1 exists: each transaction
// being reduced forms one group, every surviving front node is its own
// singleton group, and F** exists iff the quotient is acyclic and every
// group is internally acyclic (see GroupableBy).
func (r *Relation[T]) Quotient(groupOf func(T) T) *Relation[T] {
	return r.Map(groupOf)
}

// GroupableBy reports whether the nodes of r can be arranged in a total
// order that (a) respects every pair of r and (b) keeps each group
// contiguous. On failure it reports which stage failed:
//
//   - a group that is internally cyclic (no internal sequence exists), or
//   - a cycle between groups in the quotient graph (no isolated placement
//     of the groups exists).
//
// This is the classical reducibility argument: given an acyclic quotient,
// topologically sort the groups, then each group internally; conversely any
// contiguous arrangement induces a total group order consistent with all
// cross-group pairs, so the quotient must be acyclic.
func (r *Relation[T]) GroupableBy(groupOf func(T) T) (ok bool, badGroup T, quotientCycle []T) {
	// Internal acyclicity per group.
	byGroup := make(map[T]*Relation[T])
	for n := range r.nodes {
		g := groupOf(n)
		gr, ok := byGroup[g]
		if !ok {
			gr = New[T]()
			byGroup[g] = gr
		}
		gr.AddNode(n)
	}
	r.Each(func(a, b T) {
		ga, gb := groupOf(a), groupOf(b)
		if ga == gb {
			byGroup[ga].Add(a, b)
		}
	})
	// Deterministic group iteration.
	groups := make([]T, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sortSlice(groups)
	for _, g := range groups {
		if byGroup[g].HasCycle() {
			return false, g, nil
		}
	}

	q := r.Quotient(groupOf)
	if c := q.FindCycle(); c != nil {
		return false, badGroup, c
	}
	return true, badGroup, nil
}
