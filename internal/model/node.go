// Package model implements the composite-system model of the paper
// (Definitions 1–9): transactions with weak and strong intra-transaction
// orders, schedules with input and output orders and a conflict predicate,
// and composite systems — sets of schedules whose transactions' operations
// may themselves be transactions of other schedules, forming a
// computational forest over an acyclic invocation graph.
//
// The package is purely structural: it records an execution (or a schedule
// requirement) and validates the model's axioms. Deciding correctness is
// the job of internal/front.
package model

import (
	"fmt"

	"compositetx/internal/order"
)

// NodeID identifies a node of the computational forest: a root transaction,
// an internal (sub)transaction, or a leaf operation. IDs are unique across
// the whole composite system.
type NodeID string

// ScheduleID identifies a schedule (a scheduler component) of the composite
// system.
type ScheduleID string

// Node is one node of the computational forest.
//
// A node with Sched != "" is a transaction: it belongs to the transaction
// set T_S of that schedule (Definition 4 item 1 — every transaction is
// assigned to exactly one schedule). A node with Sched == "" is a leaf
// operation (Definition 4 item 3).
//
// A node with Parent != "" is an operation of its parent transaction and
// hence an operation of the parent's schedule; a node with Parent == "" is
// a root transaction (Definition 4 item 5).
type Node struct {
	ID     NodeID
	Parent NodeID     // "" for root transactions
	Sched  ScheduleID // home schedule for transactions; "" for leaves

	// WeakIntra and StrongIntra are the transaction's own orders over its
	// operations (Definition 2: ≺t and ≪t, with ≪t ⊆ ≺t). They express,
	// respectively, required data-flow direction and strict temporal order.
	// Nil means empty. Always nil for leaves.
	WeakIntra   *order.Relation[NodeID]
	StrongIntra *order.Relation[NodeID]

	// The forest by ref: the parent (NoRef for roots and while Parent is
	// not added), the home schedule's number (-1 for leaves and while
	// Sched is not added), and the operations as a chain — kid is the
	// newest, next the sibling added before this node.
	parent, kid, next NodeRef
	sched             int32
}

// ParentRef returns the ref of the node's parent: NoRef for a root, and
// for a node whose parent is not (yet) in the system.
func (n *Node) ParentRef() NodeRef { return n.parent }

// SchedNum returns the number of the node's home schedule (see
// System.ScheduleAt): -1 for a leaf, and for a transaction whose schedule
// is not (yet) in the system.
func (n *Node) SchedNum() int { return int(n.sched) }

// IsLeaf reports whether the node is a leaf operation.
func (n *Node) IsLeaf() bool { return n.Sched == "" }

// IsRoot reports whether the node is a root transaction.
func (n *Node) IsRoot() bool { return n.Parent == "" }

// Schedule models one scheduler component (Definition 3). It records the
// scheduler's dynamic result: which transactions it received, with which
// input orders, and in which output order it executed their operations.
type Schedule struct {
	ID  ScheduleID
	num int32 // System.ScheduleAt index

	// Conflicts is CON_S, the schedule's conflict predicate over its
	// operations: two operations conflict iff they do not commute. The
	// predicate is symmetric and irreflexive.
	Conflicts *PairSet

	// WeakIn (→) and StrongIn (⇒) are the input orders over the schedule's
	// transactions, with ⇒ ⊆ → (Definition 3). They carry the ordering
	// requirements imposed by the callers (Definition 4 item 7).
	WeakIn   *order.Relation[NodeID]
	StrongIn *order.Relation[NodeID]

	// WeakOut (≺) and StrongOut (≪) are the output orders over the
	// schedule's operations, with ≪ ⊆ ≺: the order the scheduler actually
	// produced. For conflicting operations the weak output order decides
	// the serialization; for non-conflicting ones it is irrelevant and may
	// be omitted.
	WeakOut   *order.Relation[NodeID]
	StrongOut *order.Relation[NodeID]
}

func newSchedule(id ScheduleID) *Schedule {
	return &Schedule{
		ID:        id,
		Conflicts: NewPairSet(),
		WeakIn:    order.New[NodeID](),
		StrongIn:  order.New[NodeID](),
		WeakOut:   order.New[NodeID](),
		StrongOut: order.New[NodeID](),
	}
}

// AddConflict declares that operations a and b do not commute.
func (s *Schedule) AddConflict(a, b NodeID) { s.Conflicts.Add(a, b) }

// Conflict reports whether a and b conflict under CON_S.
func (s *Schedule) Conflict(a, b NodeID) bool { return s.Conflicts.Has(a, b) }

func (s *Schedule) String() string { return fmt.Sprintf("schedule %s", s.ID) }
