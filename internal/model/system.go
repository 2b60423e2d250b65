package model

import (
	"cmp"
	"fmt"
	"maps"
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
//
// Inside the System a node is its NodeRef: the nodes live in a slice
// indexed by ref, and each node holds its parent, children and home
// schedule as refs and schedule numbers. The NodeID string is a label,
// looked up in one map.
type System struct {
	schedules map[ScheduleID]*Schedule
	scheds    []*Schedule // by schedule number: insertion order
	nodes     []*Node     // by NodeRef: insertion order
	refs      map[NodeID]NodeRef

	// orphans holds, per parent ID not added yet, the refs of the children
	// that name it, in insertion order: Decode and Delta.Apply may add a
	// child before its parent, and the parent adopts them when it arrives.
	orphans map[NodeID][]NodeRef

	// interner caches the NodeID ↔ int32 index of Intern; nil until built,
	// reset by any node-set mutation.
	interner *Interner
}

// NodeRef is a node's index in its System: dense, 0 ≤ ref < NumNodes(),
// assigned in insertion order. Refs are stable while nodes are added and
// not across RemoveTrees, which compacts them.
type NodeRef int32

// NoRef is the NodeRef of no node.
const NoRef NodeRef = -1

// NewSystem returns an empty composite system.
func NewSystem() *System {
	return &System{
		schedules: make(map[ScheduleID]*Schedule),
		refs:      make(map[NodeID]NodeRef),
	}
}

// AddSchedule registers a new schedule. It panics if the ID is taken:
// construction mistakes are programming errors, not runtime conditions.
func (s *System) AddSchedule(id ScheduleID) *Schedule {
	if _, dup := s.schedules[id]; dup {
		panic(fmt.Sprintf("model: duplicate schedule %q", id))
	}
	sc := newSchedule(id)
	sc.num = int32(len(s.scheds))
	s.schedules[id] = sc
	s.scheds = append(s.scheds, sc)
	for _, n := range s.nodes { // transactions added before their schedule
		if n.Sched == id {
			n.sched = sc.num
		}
	}
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
	if _, dup := s.refs[id]; dup {
		panic(fmt.Sprintf("model: duplicate node %q", id))
	}
	n := &Node{ID: id, Parent: parent, Sched: sched, sched: -1}
	if sched != "" {
		if sc := s.schedules[sched]; sc != nil {
			n.sched = sc.num
		}
	}
	s.insert(n)
	return n
}

// insert gives n the next ref and links it into the forest: to its parent
// if that is added, else among the orphans, and its orphans to it.
func (s *System) insert(n *Node) {
	r := NodeRef(len(s.nodes))
	s.nodes = append(s.nodes, n)
	s.refs[n.ID] = r
	s.interner = nil
	n.parent, n.kid, n.next = NoRef, NoRef, NoRef
	if kids, ok := s.orphans[n.ID]; ok {
		delete(s.orphans, n.ID)
		for _, k := range kids {
			s.link(r, k)
		}
	}
	if n.Parent == "" {
		return
	}
	if p, ok := s.refs[n.Parent]; ok {
		s.link(p, r)
		return
	}
	if s.orphans == nil {
		s.orphans = make(map[NodeID][]NodeRef)
	}
	s.orphans[n.Parent] = append(s.orphans[n.Parent], r)
}

// Node returns the node with the given ID, or nil.
func (s *System) Node(id NodeID) *Node {
	if r, ok := s.refs[id]; ok {
		return s.nodes[r]
	}
	return nil
}

// Ref returns the ref of the node with the given ID, or NoRef.
func (s *System) Ref(id NodeID) NodeRef {
	if r, ok := s.refs[id]; ok {
		return r
	}
	return NoRef
}

// At returns the node with the given ref.
func (s *System) At(r NodeRef) *Node { return s.nodes[r] }

// link makes k the newest child of p.
func (s *System) link(p, k NodeRef) {
	s.nodes[k].parent = p
	s.nodes[k].next = s.nodes[p].kid
	s.nodes[p].kid = k
}

// kidsOf returns a new slice of the refs of id's children, the orphans
// naming it when id is not a node.
func (s *System) kidsOf(id NodeID) []NodeRef {
	r, ok := s.refs[id]
	if !ok {
		return slices.Clone(s.orphans[id])
	}
	var out []NodeRef
	for k := s.nodes[r].kid; k != NoRef; k = s.nodes[k].next {
		out = append(out, k)
	}
	return out
}

// idsOf returns the IDs of refs, sorted; nil for none.
func (s *System) idsOf(refs []NodeRef) []NodeID {
	if len(refs) == 0 {
		return nil
	}
	out := make([]NodeID, len(refs))
	for i, r := range refs {
		out[i] = s.nodes[r].ID
	}
	slices.Sort(out)
	return out
}

// Schedule returns the schedule with the given ID, or nil.
func (s *System) Schedule(id ScheduleID) *Schedule { return s.schedules[id] }

// Schedules returns all schedules sorted by ID.
func (s *System) Schedules() []*Schedule {
	out := append(make([]*Schedule, 0, len(s.scheds)), s.scheds...)
	slices.SortFunc(out, func(a, b *Schedule) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// NumSchedules returns the number of schedules.
func (s *System) NumSchedules() int { return len(s.scheds) }

// ScheduleAt returns the schedule numbered k: schedules are numbered
// 0 ≤ k < NumSchedules() in the order they were added, and Node.SchedNum
// names a transaction's home schedule by that number.
func (s *System) ScheduleAt(k int) *Schedule { return s.scheds[k] }

// NumNodes returns the number of forest nodes.
func (s *System) NumNodes() int { return len(s.nodes) }

// NodeIDs returns all node IDs, sorted.
func (s *System) NodeIDs() []NodeID {
	out := make([]NodeID, len(s.nodes))
	for r, n := range s.nodes {
		out[r] = n.ID
	}
	slices.Sort(out)
	return out
}

// Children returns the operations of a transaction (O_t), sorted by ID.
func (s *System) Children(id NodeID) []NodeID {
	return s.idsOf(s.kidsOf(id))
}

// Roots returns all root transactions, sorted (the set R of Definition 4).
func (s *System) Roots() []NodeID { return s.idsWhere((*Node).IsRoot) }

// Leaves returns all leaf operations, sorted (the set L of Definition 4).
func (s *System) Leaves() []NodeID { return s.idsWhere((*Node).IsLeaf) }

// idsWhere returns the IDs of the nodes keep holds for, sorted; nil for none.
func (s *System) idsWhere(keep func(*Node) bool) []NodeID {
	var out []NodeID
	for _, n := range s.nodes {
		if keep(n) {
			out = append(out, n.ID)
		}
	}
	slices.Sort(out)
	return out
}

// Preorder returns the refs of the nodes reachable from the roots,
// parents first: roots and children in insertion order, each composite
// transaction's subtree contiguous. On a structurally sound forest that
// is every node; a node on or below a parent cycle, or below a missing
// parent, is left out.
func (s *System) Preorder() []NodeRef {
	out := make([]NodeRef, 0, len(s.nodes))
	var stack []NodeRef
	for r := len(s.nodes) - 1; r >= 0; r-- {
		if s.nodes[r].Parent == "" {
			stack = append(stack, NodeRef(r))
		}
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, r)
		// The chain runs newest first, so the oldest child pops first.
		for k := s.nodes[r].kid; k != NoRef; k = s.nodes[k].next {
			stack = append(stack, k)
		}
	}
	return out
}

// Parent implements Definition 5: the parent of a non-root node, and the
// node itself for root transactions.
func (s *System) Parent(id NodeID) NodeID {
	n := s.Node(id)
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
	n := s.Node(id)
	if n == nil || n.parent == NoRef {
		return ""
	}
	return s.nodes[n.parent].Sched
}

// Transactions returns T_S: the transactions assigned to the schedule,
// sorted by ID.
func (s *System) Transactions(sched ScheduleID) []NodeID {
	return s.idsWhere(func(n *Node) bool { return n.Sched == sched })
}

// Ops returns O_S: the union of the operations of the schedule's
// transactions, sorted by ID.
func (s *System) Ops(sched ScheduleID) []NodeID {
	var out []NodeID
	for _, t := range s.Transactions(sched) {
		for _, k := range s.kidsOf(t) {
			out = append(out, s.nodes[k].ID)
		}
	}
	slices.Sort(out)
	return out
}

// descendants returns the refs of Act(T) for the node named id, in no
// particular order (the node itself excluded).
func (s *System) descendants(id NodeID) []NodeRef {
	var out []NodeRef
	stack := s.kidsOf(id)
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, r)
		for k := s.nodes[r].kid; k != NoRef; k = s.nodes[k].next {
			stack = append(stack, k)
		}
	}
	return out
}

// Descendants returns Act(T): the transitive closure of the operations of
// the node, sorted (the node itself excluded).
func (s *System) Descendants(id NodeID) []NodeID {
	return s.idsOf(s.descendants(id))
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
	for _, sc := range s.scheds {
		ig.AddNode(sc.ID)
	}
	for _, n := range s.nodes {
		if n.Sched == "" || n.parent == NoRef {
			continue
		}
		// A self-invocation is recorded too, so validation can reject it.
		if p := s.nodes[n.parent]; p.Sched != "" {
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
	for _, sc := range s.scheds {
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
// root together, and per-root sweeps would make the fold quadratic. The
// surviving nodes keep their insertion order and are renumbered densely:
// a NodeRef taken before the call is not valid after it.
func (s *System) RemoveTrees(roots []NodeID) {
	gone := make([]bool, len(s.nodes))
	set := make(map[NodeID]struct{})
	for _, root := range roots {
		stack := []NodeRef{s.Ref(root)}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if x == NoRef || gone[x] {
				continue
			}
			gone[x] = true
			set[s.nodes[x].ID] = struct{}{}
			for k := s.nodes[x].kid; k != NoRef; k = s.nodes[k].next {
				stack = append(stack, k)
			}
		}
	}
	if len(set) == 0 {
		return
	}
	// Insert the survivors again, in their order: refs, chains and
	// orphans come out as if the removed nodes had never been added.
	old := s.nodes
	s.nodes, s.orphans = s.nodes[:0], nil
	clear(s.refs)
	for r, n := range old {
		if !gone[r] {
			s.insert(n)
		}
	}
	clear(old[len(s.nodes):])
	for _, sc := range s.scheds {
		sc.Conflicts.RemoveInvolvingSet(set)
		sc.WeakIn.RemoveNodes(set)
		sc.StrongIn.RemoveNodes(set)
		sc.WeakOut.RemoveNodes(set)
		sc.StrongOut.RemoveNodes(set)
	}
}

// Clone returns a deep copy of the system, with the same refs and
// schedule numbers.
func (s *System) Clone() *System {
	c := &System{
		schedules: make(map[ScheduleID]*Schedule, len(s.scheds)),
		scheds:    make([]*Schedule, len(s.scheds)),
		nodes:     make([]*Node, len(s.nodes)),
		refs:      maps.Clone(s.refs),
	}
	for r, n := range s.nodes {
		cn := &Node{ID: n.ID, Parent: n.Parent, Sched: n.Sched, parent: n.parent, kid: n.kid, next: n.next, sched: n.sched}
		if n.WeakIntra != nil {
			cn.WeakIntra = n.WeakIntra.Clone()
		}
		if n.StrongIntra != nil {
			cn.StrongIntra = n.StrongIntra.Clone()
		}
		c.nodes[r] = cn
	}
	for id, kids := range s.orphans {
		if c.orphans == nil {
			c.orphans = make(map[NodeID][]NodeRef, len(s.orphans))
		}
		c.orphans[id] = slices.Clone(kids)
	}
	for k, sc := range s.scheds {
		cs := &Schedule{
			ID:        sc.ID,
			num:       sc.num,
			Conflicts: sc.Conflicts.Clone(),
			WeakIn:    sc.WeakIn.Clone(),
			StrongIn:  sc.StrongIn.Clone(),
			WeakOut:   sc.WeakOut.Clone(),
			StrongOut: sc.StrongOut.Clone(),
		}
		c.scheds[k] = cs
		c.schedules[sc.ID] = cs
	}
	return c
}
