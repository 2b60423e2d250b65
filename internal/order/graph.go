package order

// HasCycle reports whether the relation, viewed as a directed graph,
// contains a cycle (including self-pairs).
func (r *Relation[T]) HasCycle() bool {
	return r.FindCycle() != nil
}

// IsAcyclic is the negation of HasCycle; it matches the paper's phrasing
// for conflict consistency (Definition 13).
func (r *Relation[T]) IsAcyclic() bool { return !r.HasCycle() }

// FindCycle returns the nodes of some cycle in order (the last node links
// back to the first), or nil if the relation is acyclic. Node exploration is
// lexicographic, so the reported cycle is deterministic. The cycle is used
// for the human-readable incorrectness traces produced by internal/front.
func (r *Relation[T]) FindCycle() []T {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // finished
	)
	color := make(map[T]int, len(r.nodes))
	parent := make(map[T]T)

	var cycle []T
	var dfs func(n T) bool
	dfs = func(n T) bool {
		color[n] = grey
		for _, m := range r.Successors(n) {
			switch color[m] {
			case white:
				parent[m] = n
				if dfs(m) {
					return true
				}
			case grey:
				// Found a back edge n -> m: reconstruct the path m ... n.
				cycle = []T{m}
				for x := n; x != m; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse everything after the first element so the cycle
				// reads in pair direction m -> ... -> n (-> m).
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[n] = black
		return false
	}

	for _, n := range r.Nodes() {
		if color[n] == white {
			if dfs(n) {
				return cycle
			}
		}
	}
	return nil
}

// TopoSort returns the registered nodes in a topological order of the
// relation, or ok=false if it is cyclic. Ties are broken lexicographically
// (smallest available node first), so the order is deterministic; this is
// the "topological sorting" step used in the proof of Theorem 1 to convert
// an acyclic level-N front into a serial front.
func (r *Relation[T]) TopoSort() (sorted []T, ok bool) {
	indeg := make(map[T]int, len(r.nodes))
	for n := range r.nodes {
		indeg[n] = 0
	}
	r.Each(func(a, b T) {
		if a != b {
			indeg[b]++
		} else {
			indeg[b] = -1 << 30 // self-pair: poison, never becomes ready
		}
	})

	ready := make([]T, 0, len(indeg))
	for n, d := range indeg {
		if d == 0 {
			ready = append(ready, n)
		}
	}
	sortSlice(ready)

	sorted = make([]T, 0, len(indeg))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		sorted = append(sorted, n)
		newly := []T{}
		for m := range r.succ[n] {
			if m == n {
				continue
			}
			indeg[m]--
			if indeg[m] == 0 {
				newly = append(newly, m)
			}
		}
		if len(newly) > 0 {
			sortSlice(newly)
			ready = mergeSorted(ready, newly)
		}
	}
	if len(sorted) != len(indeg) {
		return nil, false
	}
	return sorted, true
}

// mergeSorted merges two lexicographically sorted slices.
func mergeSorted[T ~string](a, b []T) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
