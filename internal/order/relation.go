// Package order provides the partial-order machinery underlying the
// composite-transaction model: binary relations over node identifiers,
// transitive closure, cycle detection and reporting, topological sorting,
// restriction, union, and quotient construction.
//
// Every structure in the paper — weak and strong input/output orders
// (Definition 1 and 3), the observed order (Definition 10), and the
// constraint graphs used during reduction (Definition 16) — is a binary
// relation over identifiers, so this package is the substrate for
// internal/model, internal/front and internal/criteria.
//
// Identifiers are any string-kinded type. All operations that enumerate
// nodes or pairs do so in lexicographic order, so results are
// deterministic across runs.
package order

import "slices"

// Relation is a mutable binary relation (a directed graph) over string-kinded
// identifiers. The zero value is not usable; construct with New.
type Relation[T ~string] struct {
	succ map[T]map[T]struct{}
	// nodes tracks identifiers mentioned explicitly via AddNode as well as
	// endpoints of pairs, so isolated nodes participate in sorts.
	nodes map[T]struct{}
}

// New returns an empty relation.
func New[T ~string]() *Relation[T] {
	return &Relation[T]{
		succ:  make(map[T]map[T]struct{}),
		nodes: make(map[T]struct{}),
	}
}

// FromPairs builds a relation from explicit pairs.
func FromPairs[T ~string](pairs ...[2]T) *Relation[T] {
	r := New[T]()
	for _, p := range pairs {
		r.Add(p[0], p[1])
	}
	return r
}

// AddNode registers an identifier without relating it to anything.
func (r *Relation[T]) AddNode(n T) {
	r.nodes[n] = struct{}{}
}

// Add inserts the pair (a, b), meaning "a before b". Self-pairs are legal at
// this layer (they represent a trivial cycle and are reported by HasCycle).
func (r *Relation[T]) Add(a, b T) {
	r.nodes[a] = struct{}{}
	r.nodes[b] = struct{}{}
	s, ok := r.succ[a]
	if !ok {
		s = make(map[T]struct{})
		r.succ[a] = s
	}
	s[b] = struct{}{}
}

// Remove deletes the pair (a, b) if present.
func (r *Relation[T]) Remove(a, b T) {
	if s, ok := r.succ[a]; ok {
		delete(s, b)
		if len(s) == 0 {
			delete(r.succ, a)
		}
	}
}

// RemoveNodes deletes every identifier in set and every pair involving
// one, in a single sweep over the successor rows.
func (r *Relation[T]) RemoveNodes(set map[T]struct{}) {
	for n := range set {
		delete(r.nodes, n)
		delete(r.succ, n)
	}
	for a, s := range r.succ {
		for b := range s {
			if _, doomed := set[b]; doomed {
				delete(s, b)
			}
		}
		if len(s) == 0 {
			delete(r.succ, a)
		}
	}
}

// Has reports whether the pair (a, b) is in the relation.
func (r *Relation[T]) Has(a, b T) bool {
	s, ok := r.succ[a]
	if !ok {
		return false
	}
	_, ok = s[b]
	return ok
}

// Len returns the number of pairs.
func (r *Relation[T]) Len() int {
	n := 0
	for _, s := range r.succ {
		n += len(s)
	}
	return n
}

// NumNodes returns the number of registered identifiers.
func (r *Relation[T]) NumNodes() int { return len(r.nodes) }

// Nodes returns all registered identifiers in lexicographic order.
func (r *Relation[T]) Nodes() []T {
	out := make([]T, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sortSlice(out)
	return out
}

// Successors returns the direct successors of n in lexicographic order.
func (r *Relation[T]) Successors(n T) []T {
	s, ok := r.succ[n]
	if !ok {
		return nil
	}
	out := make([]T, 0, len(s))
	for m := range s {
		out = append(out, m)
	}
	sortSlice(out)
	return out
}

// Pairs returns every pair in lexicographic order.
func (r *Relation[T]) Pairs() [][2]T {
	out := make([][2]T, 0, r.Len())
	for a, s := range r.succ {
		for b := range s {
			out = append(out, [2]T{a, b})
		}
	}
	slices.SortFunc(out, func(a, b [2]T) int {
		if a[0] != b[0] {
			return cmpString(a[0], b[0])
		}
		return cmpString(a[1], b[1])
	})
	return out
}

// Each calls fn for every pair, in unspecified order. Mutating r during
// iteration is not allowed.
func (r *Relation[T]) Each(fn func(a, b T)) {
	for a, s := range r.succ {
		for b := range s {
			fn(a, b)
		}
	}
}

// Clone returns a deep copy.
func (r *Relation[T]) Clone() *Relation[T] {
	c := New[T]()
	for n := range r.nodes {
		c.nodes[n] = struct{}{}
	}
	for a, s := range r.succ {
		cs := make(map[T]struct{}, len(s))
		for b := range s {
			cs[b] = struct{}{}
		}
		c.succ[a] = cs
	}
	return c
}

// Union adds every pair (and node) of other into r and returns r.
func (r *Relation[T]) Union(other *Relation[T]) *Relation[T] {
	if other == nil {
		return r
	}
	for n := range other.nodes {
		r.nodes[n] = struct{}{}
	}
	other.Each(func(a, b T) { r.Add(a, b) })
	return r
}

// UnionOf returns a fresh relation containing all pairs of the arguments.
func UnionOf[T ~string](rs ...*Relation[T]) *Relation[T] {
	out := New[T]()
	for _, r := range rs {
		out.Union(r)
	}
	return out
}

// Restrict returns a fresh relation containing only the pairs whose
// endpoints both satisfy keep, with node registration restricted likewise.
func (r *Relation[T]) Restrict(keep func(T) bool) *Relation[T] {
	out := New[T]()
	for n := range r.nodes {
		if keep(n) {
			out.AddNode(n)
		}
	}
	r.Each(func(a, b T) {
		if keep(a) && keep(b) {
			out.Add(a, b)
		}
	})
	return out
}

// Map returns a fresh relation with every node n replaced by f(n).
// Pairs whose endpoints map to the same identifier are dropped (they would be
// self-pairs introduced by contraction, which the quotient construction of
// Definition 16 discards).
func (r *Relation[T]) Map(f func(T) T) *Relation[T] {
	out := New[T]()
	for n := range r.nodes {
		out.AddNode(f(n))
	}
	r.Each(func(a, b T) {
		fa, fb := f(a), f(b)
		if fa != fb {
			out.Add(fa, fb)
		}
	})
	return out
}

// Equal reports whether r and other contain exactly the same pairs.
//
// The implementation compares Len() and then checks r ⊆ other only. That
// asymmetry is sound, not a shortcut: pairs live in nested maps, so each
// relation is duplicate-free, and two finite duplicate-free sets of equal
// cardinality with one contained in the other are equal. TestEqualIsSymmetric
// exercises the differing-pair-sets-of-equal-size case in both directions.
//
// Node registration is deliberately ignored: Equal compares the relations
// as pair sets (what the paper's definitions quantify over), so relations
// that differ only in isolated registered nodes — e.g. one side was built
// with AddNode for every front node, the other only via Add — still
// compare equal. Use NumNodes/Nodes to compare registration.
func (r *Relation[T]) Equal(other *Relation[T]) bool {
	if r.Len() != other.Len() {
		return false
	}
	eq := true
	r.Each(func(a, b T) {
		if !other.Has(a, b) {
			eq = false
		}
	})
	return eq
}

// Contains reports whether every pair of other is in r.
func (r *Relation[T]) Contains(other *Relation[T]) bool {
	ok := true
	other.Each(func(a, b T) {
		if !r.Has(a, b) {
			ok = false
		}
	})
	return ok
}

func sortSlice[T ~string](s []T) {
	slices.Sort(s)
}

func cmpString[T ~string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
