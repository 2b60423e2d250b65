package sched

import (
	"cmp"
	"slices"

	"compositetx/internal/data"
	"compositetx/internal/model"
)

// The recorder captures the committed execution of a runtime as raw
// events, and assembles them into a model.System for the Comp-C checker.
// Aborted attempts stage their records and are discarded on rollback, so
// the assembled system is the committed projection of the run.

// nodeDecl declares a forest node: a transaction (sched != "") or a leaf.
// A node is declared after its parent.
type nodeDecl struct {
	id     model.NodeID
	parent model.NodeID // "" for roots
	sched  string       // component name for transactions, "" for leaves
}

// event is one granted semantic operation at a component: a leaf access or
// a subtransaction invocation, with the global sequence number that fixes
// the conflict order.
type event struct {
	seq      uint64
	comp     string
	op       model.NodeID
	parentTx model.NodeID
	item     string
	mode     data.Mode
}

// bySeq orders events by sequence number: the conflict order.
func bySeq(a, b event) int { return cmp.Compare(a.seq, b.seq) }

// stagedRecord buffers one attempt's declarations, parents first, and
// events.
type stagedRecord struct {
	nodes  []nodeDecl
	events []event
}

func (s *stagedRecord) declareNode(n nodeDecl) { s.nodes = append(s.nodes, n) }
func (s *stagedRecord) addEvent(e event)       { s.events = append(s.events, e) }

// truncate drops the staged declarations and events past the given
// lengths: the record-side of a subtransaction-scoped rollback, so a
// compensated-and-retried subtransaction leaves no trace of its failed
// attempt in the committed projection.
func (s *stagedRecord) truncate(nodes, events int) {
	s.nodes = s.nodes[:nodes]
	s.events = s.events[:events]
}

// recorder accumulates committed attempts.
type recorder struct {
	nodes  []nodeDecl
	events []event
}

func newRecorder() *recorder { return &recorder{} }

func (r *recorder) merge(s *stagedRecord) {
	r.nodes = append(r.nodes, s.nodes...)
	r.events = append(r.events, s.events...)
}

// RecordedSystem assembles the committed execution into a composite-system
// model: one schedule per component that executed at least one
// transaction, conflicts derived from each component's mode table, the
// weak output order over conflicting pairs in global sequence order, and
// input orders propagated per Definition 4 item 7.
func (r *Runtime) RecordedSystem() *model.System {
	r.mu.Lock()
	defer r.mu.Unlock()
	return assembleSystem(r.rec, r.comps)
}

// assembleSystem builds the composite-system model from a recorder's raw
// committed events. Shared by the single-process Runtime and the
// distributed Coordinator (whose recorder is fed by participant replies
// and rebuilt from its WAL at recovery) — the checker sees the same
// assembly either way.
func assembleSystem(rec *recorder, comps map[string]*component) *model.System {
	sys := model.NewSystem()
	// Schedules: every component that scheduled a transaction.
	used := map[string]bool{}
	for _, n := range rec.nodes {
		if n.sched != "" {
			used[n.sched] = true
		}
	}
	names := make([]string, 0, len(used))
	for n := range used {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		sys.AddSchedule(model.ScheduleID(n))
	}

	// Nodes. Declarations may repeat across attempts of different
	// transactions but IDs are unique within the committed projection.
	for _, n := range rec.nodes {
		switch {
		case n.sched != "" && n.parent == "":
			sys.AddRoot(n.id, model.ScheduleID(n.sched))
		case n.sched != "":
			sys.AddTx(n.id, n.parent, model.ScheduleID(n.sched))
		default:
			sys.AddLeaf(n.id, n.parent)
		}
	}

	// Conflicts and weak output orders per component, per item.
	grouped := map[string][]event{}
	for _, e := range rec.events {
		grouped[e.comp] = append(grouped[e.comp], e)
	}
	for _, comp := range names {
		evs := grouped[comp]
		slices.SortFunc(evs, bySeq)
		var modes *data.ModeTable
		if c := comps[comp]; c != nil {
			modes = c.modes
		} else {
			modes = data.SemanticTable() // a schedule the topology does not name
		}
		sc := sys.Schedule(model.ScheduleID(comp))
		byItem := map[string][]event{}
		for _, e := range evs {
			byItem[e.item] = append(byItem[e.item], e)
		}
		for _, same := range byItem {
			for i, a := range same {
				for _, b := range same[i+1:] {
					if a.parentTx == b.parentTx {
						continue
					}
					if modes.ModeConflicts(a.mode, b.mode) {
						sc.AddConflict(a.op, b.op)
						sc.WeakOut.Add(a.op, b.op)
					}
				}
			}
		}
	}

	// Definition 4 item 7: propagate output orders (closed) to callee
	// input orders.
	for _, comp := range names {
		sc := sys.Schedule(model.ScheduleID(comp))
		closed := sc.WeakOut.TransitiveClosure()
		closed.Each(func(a, b model.NodeID) {
			na, nb := sys.Node(a), sys.Node(b)
			if na == nil || nb == nil || na.IsLeaf() || nb.IsLeaf() || na.Sched != nb.Sched {
				return
			}
			sys.Schedule(na.Sched).WeakIn.Add(a, b)
		})
	}

	return sys
}

// Sequences extracts each component's temporal operation sequence from the
// committed events (for OPSR-style analyses of runtime executions).
func (r *Runtime) Sequences() map[model.ScheduleID][]model.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := append([]event(nil), r.rec.events...)
	slices.SortFunc(evs, bySeq)
	out := map[model.ScheduleID][]model.NodeID{}
	for _, e := range evs {
		out[model.ScheduleID(e.comp)] = append(out[model.ScheduleID(e.comp)], e.op)
	}
	return out
}
