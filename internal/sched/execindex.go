package sched

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
)

// The execution index is the one in-memory record of a scheduler's
// committed execution since the last checkpoint fold: the committed node
// declarations, and the events filed per (component, item) slot and per
// mode. A runtime and a coordinator each keep one. Aborted attempts stage
// their records and are discarded on rollback, so what is filed is the
// committed projection of the run. The certifier probes the slots for a
// committing stage's conflict pairs; RecordedSystem and Sequences
// assemble the Comp-C checker's model from the same slots.

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

// slotKey names one slot of the index: an item at a component.
type slotKey struct{ comp, item string }

func keyOf(e event) slotKey { return slotKey{e.comp, e.item} }

// filed is an event as its slot keeps it: the slot names the component
// and item, the sublist the mode.
type filed struct {
	seq          uint64
	op, parentTx model.NodeID
}

func (e event) filed() filed { return filed{e.seq, e.op, e.parentTx} }

// modeEvents is one slot's filed events of a single mode, in filing
// order. Segregating per mode lets a probe screen each sublist with ONE
// mode-table check and skip commuting sublists wholesale, so a
// read-mostly or counter-increment key (whose events all commute) costs
// a probing commit nothing no matter how long its history grows.
type modeEvents struct {
	mode data.Mode
	evs  []filed
}

// execIndex is the committed execution since the last checkpoint fold.
// A certifying runtime files a stage when the certifier admits it; an
// uncertified runtime and a coordinator file it at publication.
type execIndex struct {
	comps map[string]*component // the topology's components (read-only)

	// mu guards everything below, the engine included. A certifying
	// committer holds it from its first probe to its filing — the order in
	// which committers take it is the certified commit order — and the
	// checkpoint fold and every reader take it too.
	mu     sync.Mutex
	scheds []model.ScheduleID // schedules filed nodes declared; a fold keeps them, as the engine does
	nodes  []nodeDecl
	slots  map[slotKey][]modeEvents
	inc    *front.Incremental // the certifier's engine (nil = not certifying)

	fastPath atomic.Int64 // stages the engine parked
	tickets  sync.Pool    // *certTicket, recycled across commits
}

func newExecIndex(comps map[string]*component) *execIndex {
	return &execIndex{comps: comps, slots: map[slotKey][]modeEvents{}}
}

// file adds one committed stage to the index.
func (ix *execIndex) file(s *stagedRecord) {
	ix.mu.Lock()
	ix.fileLocked(s.nodes, s.events)
	ix.mu.Unlock()
}

// fileLocked appends nodes, declares their schedules, and files each
// event in the sublist of its slot and mode (under ix.mu).
func (ix *execIndex) fileLocked(nodes []nodeDecl, evs []event) {
	for _, n := range nodes {
		if s := model.ScheduleID(n.sched); s != "" && !slices.Contains(ix.scheds, s) {
			ix.scheds = append(ix.scheds, s)
		}
	}
	ix.nodes = append(ix.nodes, nodes...)
	for _, e := range evs {
		key := keyOf(e)
		subs := ix.slots[key]
		k := 0
		for k < len(subs) && subs[k].mode != e.mode {
			k++
		}
		if k == len(subs) {
			ix.slots[key] = append(subs, modeEvents{mode: e.mode, evs: []filed{e.filed()}})
		} else {
			subs[k].evs = append(subs[k].evs, e.filed())
		}
	}
}

// probe calls fn for every filed event of key whose mode conflicts with
// mode under the component's table. Commuting sublists are skipped after
// a single table check each.
func (ix *execIndex) probe(key slotKey, mt *data.ModeTable, mode data.Mode, fn func(filed)) {
	for _, me := range ix.slots[key] {
		if !mt.ModeConflicts(me.mode, mode) {
			continue
		}
		for _, p := range me.evs {
			fn(p)
		}
	}
}

// delta is the filed execution as one front delta (under ix.mu): the
// declared schedules, the nodes parents first, and per slot a conflict
// and weak-output pair for every mode-conflicting pair of its events
// with distinct parent transactions, directed by seq (pairSeq) — the
// same pairs the certifier derived stage by stage.
func (ix *execIndex) delta() *front.Delta {
	d := &front.Delta{Schedules: slices.Clone(ix.scheds), Nodes: make([]front.DeltaNode, len(ix.nodes))}
	for i, n := range ix.nodes {
		d.Nodes[i] = front.DeltaNode{ID: n.id, Parent: n.parent, Sched: model.ScheduleID(n.sched)}
	}
	var pairs []front.DeltaPair
	semantic := data.SemanticTable() // for a component the topology does not name
	for key, subs := range ix.slots {
		mt := semantic
		if c := ix.comps[key.comp]; c != nil {
			mt = c.modes
		}
		for i, a := range subs {
			for j, b := range subs[i:] {
				if !mt.ModeConflicts(a.mode, b.mode) {
					continue
				}
				for k, p := range a.evs {
					later := b.evs
					if j == 0 {
						later = a.evs[k+1:] // a sublist pairs with itself once
					}
					for _, e := range later {
						pairSeq(&pairs, key.comp, p, e)
					}
				}
			}
		}
	}
	d.Conflicts, d.WeakOut = pairs, pairs
	return d
}

// system assembles the filed execution into a composite-system model:
// delta() applied to a fresh system, then Definition 4 item 7 — the
// (closed) weak output order of each schedule propagated to the weak
// input order of the callee schedule its transaction pairs share.
func (ix *execIndex) system() *model.System {
	ix.mu.Lock()
	d := ix.delta()
	ix.mu.Unlock()
	sys := model.NewSystem()
	d.Apply(sys)
	for _, sc := range sys.Schedules() {
		sc.WeakOut.TransitiveClosure().Each(func(a, b model.NodeID) {
			na, nb := sys.Node(a), sys.Node(b)
			if na == nil || nb == nil || na.IsLeaf() || nb.IsLeaf() || na.Sched != nb.Sched {
				return
			}
			sys.Schedule(na.Sched).WeakIn.Add(a, b)
		})
	}
	return sys
}

// fold empties the index at a checkpoint cut, after folding the engine
// when certifying: pairs against folded events must never be generated
// again, which is the engine's fold contract. The declared schedules
// stay, as they do in the engine. It returns the roots and nodes folded.
func (ix *execIndex) fold() (roots, nodes int, err error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.inc != nil {
		if _, err := ix.inc.Fold(); err != nil {
			return 0, 0, err
		}
	}
	for _, n := range ix.nodes {
		if n.parent == "" {
			roots++
		}
	}
	nodes = len(ix.nodes)
	// Truncate instead of dropping: the backing arrays are bounded by the
	// largest window between folds and are immediately refilled. Sublists
	// of slots that were active this window are kept the same way, while
	// slots idle since the previous fold are dropped, so a retired item
	// does not pin its slot forever.
	ix.nodes = ix.nodes[:0]
	for k, subs := range ix.slots {
		active := false
		for j := range subs {
			if len(subs[j].evs) > 0 {
				subs[j].evs = subs[j].evs[:0]
				active = true
			}
		}
		if !active {
			delete(ix.slots, k)
		}
	}
	return roots, nodes, nil
}

// live gauges the forest the watermarks police: the nodes filed since the
// last fold (the certifier's engine holds exactly these).
func (ix *execIndex) live() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.nodes)
}

// RecordedSystem assembles the committed execution into a composite-system
// model: one schedule per component that executed at least one
// transaction (a fold keeps it), conflicts derived from each component's
// mode table, the weak output order over conflicting pairs in global
// sequence order, and input orders propagated per Definition 4 item 7.
// A certifying runtime files a commit when the certifier admits it, so a
// commit whose WAL batch then fails to append is part of this system, as
// it is of CertifiedSystem.
func (r *Runtime) RecordedSystem() *model.System { return r.ix.system() }

// Sequences extracts each component's temporal operation sequence from the
// committed events (for OPSR-style analyses of runtime executions).
func (r *Runtime) Sequences() map[model.ScheduleID][]model.NodeID {
	var evs []event
	r.ix.mu.Lock()
	for key, subs := range r.ix.slots {
		for _, me := range subs {
			for _, f := range me.evs {
				evs = append(evs, event{seq: f.seq, comp: key.comp, op: f.op})
			}
		}
	}
	r.ix.mu.Unlock()
	slices.SortFunc(evs, bySeq)
	out := map[model.ScheduleID][]model.NodeID{}
	for _, e := range evs {
		out[model.ScheduleID(e.comp)] = append(out[model.ScheduleID(e.comp)], e.op)
	}
	return out
}
