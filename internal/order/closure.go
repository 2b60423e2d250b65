package order

// Transitive closure via SCC condensation and bitset reachability.
//
// The closure is the hot path of the reduction (the observed order is
// re-closed at every level, Definition 10 rule 4), so it is implemented
// with dense bitsets over an index of the relation's nodes: Tarjan's
// algorithm finds the strongly connected components, the condensation is
// processed in reverse topological order OR-ing successor reachability
// words, and members of a cyclic component reach everything the component
// reaches, including itself. Complexity O(V·E/64) for the propagation
// plus the unavoidable O(|closure|) output inserts.

// TransitiveClosure returns a fresh relation containing the transitive
// closure of r. The paper requires all order relations to be "in all
// cases, transitively closed" (Definition 1) and the observed order has an
// explicit transitivity rule (Definition 10 rule 4).
func (r *Relation[T]) TransitiveClosure() *Relation[T] {
	nodes := r.Nodes()
	n := len(nodes)
	out := New[T]()
	for _, v := range nodes {
		out.AddNode(v)
	}
	if n == 0 || r.Len() == 0 {
		return out
	}
	idx := make(map[T]int, n)
	for i, v := range nodes {
		idx[v] = i
	}
	succ := make([][]int32, n)
	r.Each(func(a, b T) {
		i := idx[a]
		succ[i] = append(succ[i], int32(idx[b]))
	})

	comp, reach := componentReach(n, succ)
	for i := 0; i < n; i++ {
		a := nodes[i]
		reach[comp[i]].Each(func(j int) {
			out.Add(a, nodes[j])
		})
	}
	return out
}

// componentReach condenses the index graph into its strongly connected
// components and returns the component of every node and, per component,
// the set of nodes reachable from it — its own members included only when
// it is cyclic (more than one member, or a self-loop).
func componentReach(n int, succ [][]int32) (comp []int, reach []Bitset) {
	comp, order := sccCondensation(n, succ)

	nComp := len(order)
	reach = make([]Bitset, nComp)
	members := make([][]int32, nComp)
	cyclic := make([]bool, nComp)
	for i := 0; i < n; i++ {
		members[comp[i]] = append(members[comp[i]], int32(i))
	}
	for i := 0; i < n; i++ {
		for _, j := range succ[i] {
			if int(j) == i {
				cyclic[comp[i]] = true
			}
		}
	}
	for c := range members {
		if len(members[c]) > 1 {
			cyclic[c] = true
		}
	}

	// order is reverse-topological (Tarjan emits components after all
	// their successors), so one pass suffices.
	for _, c := range order {
		rs := NewBitset(n)
		for _, i := range members[c] {
			for _, j := range succ[i] {
				cj := comp[j]
				if cj == c {
					continue
				}
				rs.Set(int(j))
				rs.Or(reach[cj])
			}
		}
		if cyclic[c] {
			for _, i := range members[c] {
				rs.Set(int(i))
			}
		}
		reach[c] = rs
	}
	return comp, reach
}

// sccCondensation runs iterative Tarjan over the index graph and returns
// the component id of every node plus the component ids in emission
// (reverse topological) order.
func sccCondensation(n int, succ [][]int32) (comp []int, emitted []int) {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp = make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32
	next := 0
	nComp := 0

	type frame struct {
		v int32
		i int
	}
	var frames []frame

	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames = frames[:0]
		frames = append(frames, frame{v: int32(start)})
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, int32(start))
		onStack[start] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.i < len(succ[v]) {
				w := succ[v][f.i]
				f.i++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == v {
						break
					}
				}
				emitted = append(emitted, nComp)
				nComp++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
		}
	}
	return comp, emitted
}
