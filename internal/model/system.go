package model

import (
	"fmt"
	"slices"

	"compositetx/internal/order"
)

// System is a composite system (Definition 4): a set of schedules plus the
// computational forest of the execution they jointly produced.
//
// Build a System with AddSchedule / AddRoot / AddTx / AddLeaf, fill in the
// schedules' orders and conflicts, then call Validate. All query methods
// assume a structurally sound forest (parents exist, no parent cycles);
// Validate reports violations of the remaining model axioms.
type System struct {
	schedules map[ScheduleID]*Schedule
	nodes     map[NodeID]*Node
	children  map[NodeID][]NodeID // insertion order; sorted on demand

	// interner caches the NodeID ↔ int32 index of Intern; nil until built,
	// reset by any node-set mutation.
	interner *Interner
}

// NewSystem returns an empty composite system.
func NewSystem() *System {
	return &System{
		schedules: make(map[ScheduleID]*Schedule),
		nodes:     make(map[NodeID]*Node),
		children:  make(map[NodeID][]NodeID),
	}
}

// AddSchedule registers a new schedule. It panics if the ID is taken:
// construction mistakes are programming errors, not runtime conditions.
func (s *System) AddSchedule(id ScheduleID) *Schedule {
	if _, dup := s.schedules[id]; dup {
		panic(fmt.Sprintf("model: duplicate schedule %q", id))
	}
	sc := newSchedule(id)
	s.schedules[id] = sc
	return sc
}

// AddRoot adds a root transaction scheduled by sched.
func (s *System) AddRoot(id NodeID, sched ScheduleID) *Node {
	return s.addNode(id, "", sched)
}

// AddTx adds a (sub)transaction: an operation of parent that is itself a
// transaction of sched.
func (s *System) AddTx(id NodeID, parent NodeID, sched ScheduleID) *Node {
	if sched == "" {
		panic(fmt.Sprintf("model: transaction %q needs a schedule", id))
	}
	if parent == "" {
		panic(fmt.Sprintf("model: transaction %q needs a parent; use AddRoot for roots", id))
	}
	return s.addNode(id, parent, sched)
}

// AddLeaf adds a leaf operation as a child of parent.
func (s *System) AddLeaf(id NodeID, parent NodeID) *Node {
	if parent == "" {
		panic(fmt.Sprintf("model: leaf %q needs a parent", id))
	}
	return s.addNode(id, parent, "")
}

func (s *System) addNode(id NodeID, parent NodeID, sched ScheduleID) *Node {
	if id == "" {
		panic("model: empty node ID")
	}
	if _, dup := s.nodes[id]; dup {
		panic(fmt.Sprintf("model: duplicate node %q", id))
	}
	n := &Node{ID: id, Parent: parent, Sched: sched}
	s.nodes[id] = n
	s.interner = nil
	if parent != "" {
		s.children[parent] = append(s.children[parent], id)
	}
	return n
}

// Node returns the node with the given ID, or nil.
func (s *System) Node(id NodeID) *Node { return s.nodes[id] }

// Schedule returns the schedule with the given ID, or nil.
func (s *System) Schedule(id ScheduleID) *Schedule { return s.schedules[id] }

// Schedules returns all schedules sorted by ID.
func (s *System) Schedules() []*Schedule {
	ids := make([]ScheduleID, 0, len(s.schedules))
	for id := range s.schedules {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]*Schedule, len(ids))
	for i, id := range ids {
		out[i] = s.schedules[id]
	}
	return out
}

// NumNodes returns the number of forest nodes.
func (s *System) NumNodes() int { return len(s.nodes) }

// NodeIDs returns all node IDs, sorted.
func (s *System) NodeIDs() []NodeID {
	out := make([]NodeID, 0, len(s.nodes))
	for id := range s.nodes {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Children returns the operations of a transaction (O_t), sorted by ID.
func (s *System) Children(id NodeID) []NodeID {
	kids := append([]NodeID(nil), s.children[id]...)
	slices.Sort(kids)
	return kids
}

// Roots returns all root transactions, sorted (the set R of Definition 4).
func (s *System) Roots() []NodeID {
	var out []NodeID
	for id, n := range s.nodes {
		if n.IsRoot() {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Leaves returns all leaf operations, sorted (the set L of Definition 4).
func (s *System) Leaves() []NodeID {
	var out []NodeID
	for id, n := range s.nodes {
		if n.IsLeaf() {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Parent implements Definition 5: the parent of a non-root node, and the
// node itself for root transactions.
func (s *System) Parent(id NodeID) NodeID {
	n := s.nodes[id]
	if n == nil {
		return ""
	}
	if n.Parent == "" {
		return id
	}
	return n.Parent
}

// OpSchedule returns the schedule that has the node as one of its
// operations: the home schedule of the node's parent. Root transactions are
// operations of no schedule and yield "".
func (s *System) OpSchedule(id NodeID) ScheduleID {
	n := s.nodes[id]
	if n == nil || n.Parent == "" {
		return ""
	}
	p := s.nodes[n.Parent]
	if p == nil {
		return ""
	}
	return p.Sched
}

// Transactions returns T_S: the transactions assigned to the schedule,
// sorted by ID.
func (s *System) Transactions(sched ScheduleID) []NodeID {
	var out []NodeID
	for id, n := range s.nodes {
		if n.Sched == sched {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Ops returns O_S: the union of the operations of the schedule's
// transactions, sorted by ID.
func (s *System) Ops(sched ScheduleID) []NodeID {
	var out []NodeID
	for _, t := range s.Transactions(sched) {
		out = append(out, s.children[t]...)
	}
	slices.Sort(out)
	return out
}

// Descendants returns Act(T): the transitive closure of the operations of
// the node, sorted (the node itself excluded).
func (s *System) Descendants(id NodeID) []NodeID {
	var out []NodeID
	stack := append([]NodeID(nil), s.children[id]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, n)
		stack = append(stack, s.children[n]...)
	}
	slices.Sort(out)
	return out
}

// CompositeTransaction returns the composite transaction (execution tree,
// Definition 6) rooted at the given root: the root and all its descendants.
func (s *System) CompositeTransaction(root NodeID) []NodeID {
	out := append([]NodeID{root}, s.Descendants(root)...)
	slices.Sort(out)
	return out
}

// InvocationGraph returns the IG of Definition 8: an edge S_i -> S_j
// whenever some operation of S_i is a transaction of S_j.
func (s *System) InvocationGraph() *order.Relation[ScheduleID] {
	ig := order.New[ScheduleID]()
	for id := range s.schedules {
		ig.AddNode(id)
	}
	for _, n := range s.nodes {
		if n.Sched == "" || n.Parent == "" {
			continue
		}
		// A self-invocation is recorded too, so validation can reject it.
		if p := s.nodes[n.Parent]; p != nil && p.Sched != "" {
			ig.Add(p.Sched, n.Sched)
		}
	}
	return ig
}

// Levels computes the level of every schedule (Definition 9). It fails on
// a structurally unsound system (see Structure), in particular a recursive
// configuration, which Definition 4 item 6 forbids.
func (s *System) Levels() (map[ScheduleID]int, error) {
	_, levels, err := s.Structure()
	return levels, err
}

// Order returns N, the highest schedule level in the system (Definition 9),
// or an error for recursive configurations.
func (s *System) Order() (int, error) {
	levels, err := s.Levels()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, l := range levels {
		if l > n {
			n = l
		}
	}
	return n, nil
}

// Normalize transitively closes every stored order relation: the paper's
// orders are "in all cases, transitively closed" (Definition 1), but
// builders and recorders typically supply generating pairs only. Validate
// and the reduction both call Normalize-like closures internally; calling
// it explicitly makes the stored system canonical.
func (s *System) Normalize() {
	for _, sc := range s.schedules {
		sc.WeakIn = sc.WeakIn.TransitiveClosure()
		sc.StrongIn = sc.StrongIn.TransitiveClosure()
		sc.WeakOut = sc.WeakOut.TransitiveClosure()
		sc.StrongOut = sc.StrongOut.TransitiveClosure()
		// Definition 3: ≪ ⊆ ≺ and ⇒ ⊆ →. Builders often record a pair only
		// in the strong relation; fold it into the weak one.
		sc.WeakIn.Union(sc.StrongIn)
		sc.WeakOut.Union(sc.StrongOut)
		sc.WeakIn = sc.WeakIn.TransitiveClosure()
		sc.WeakOut = sc.WeakOut.TransitiveClosure()
	}
	for _, n := range s.nodes {
		if n.StrongIntra != nil {
			n.StrongIntra = n.StrongIntra.TransitiveClosure()
		}
		if n.WeakIntra != nil {
			if n.StrongIntra != nil {
				n.WeakIntra.Union(n.StrongIntra)
			}
			n.WeakIntra = n.WeakIntra.TransitiveClosure()
		} else if n.StrongIntra != nil {
			n.WeakIntra = n.StrongIntra.Clone()
		}
	}
}

// RemoveTree deletes the node and its entire subtree from the forest,
// together with every order pair and conflict involving the removed nodes.
// Removing a whole composite transaction from a well-formed execution
// leaves a well-formed execution (it only removes constraints), which the
// property tests use: pruning a correct execution keeps it correct.
func (s *System) RemoveTree(root NodeID) {
	s.RemoveTrees([]NodeID{root})
}

// RemoveTrees deletes several subtrees at once. It is equivalent to
// RemoveTree per root but sweeps each relation and conflict set a single
// time for the whole batch — the checkpoint fold removes every committed
// root together, and per-root sweeps would make the fold quadratic.
func (s *System) RemoveTrees(roots []NodeID) {
	set := make(map[NodeID]struct{})
	for _, root := range roots {
		n := s.nodes[root]
		if n == nil {
			continue
		}
		set[root] = struct{}{}
		for _, id := range s.Descendants(root) {
			set[id] = struct{}{}
		}
		if n.Parent != "" {
			kids := s.children[n.Parent]
			kept := kids[:0]
			for _, k := range kids {
				if k != root {
					kept = append(kept, k)
				}
			}
			s.children[n.Parent] = kept
		}
	}
	if len(set) == 0 {
		return
	}
	for id := range set {
		delete(s.nodes, id)
		delete(s.children, id)
	}
	s.interner = nil
	for _, sc := range s.schedules {
		sc.Conflicts.RemoveInvolvingSet(set)
		sc.WeakIn.RemoveNodes(set)
		sc.StrongIn.RemoveNodes(set)
		sc.WeakOut.RemoveNodes(set)
		sc.StrongOut.RemoveNodes(set)
	}
}

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	c := NewSystem()
	for id, n := range s.nodes {
		cn := &Node{ID: n.ID, Parent: n.Parent, Sched: n.Sched}
		if n.WeakIntra != nil {
			cn.WeakIntra = n.WeakIntra.Clone()
		}
		if n.StrongIntra != nil {
			cn.StrongIntra = n.StrongIntra.Clone()
		}
		c.nodes[id] = cn
	}
	for id, kids := range s.children {
		c.children[id] = append([]NodeID(nil), kids...)
	}
	for id, sc := range s.schedules {
		c.schedules[id] = &Schedule{
			ID:        sc.ID,
			Conflicts: sc.Conflicts.Clone(),
			WeakIn:    sc.WeakIn.Clone(),
			StrongIn:  sc.StrongIn.Clone(),
			WeakOut:   sc.WeakOut.Clone(),
			StrongOut: sc.StrongOut.Clone(),
		}
	}
	return c
}
