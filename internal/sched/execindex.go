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
// committed execution since the last checkpoint cut: the committed node
// declarations, and the events filed per (component, item) slot and per
// mode. A runtime and a coordinator each keep one. Aborted attempts stage
// their records and are discarded on rollback, so what is filed is the
// committed projection of the run. The certifier probes the slots for a
// committing stage's conflict pairs; RecordedSystem and Sequences
// assemble the Comp-C checker's model from the same slots.

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

// stagedRecord buffers one attempt's node declarations, parents first,
// and events.
type stagedRecord struct {
	nodes  []front.DeltaNode
	events []event
}

func (s *stagedRecord) declareNode(n front.DeltaNode) { s.nodes = append(s.nodes, n) }
func (s *stagedRecord) addEvent(e event)              { s.events = append(s.events, e) }

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

// filed is an event as its slot keeps it: the slot names the component
// and item, the sublist the mode.
type filed struct {
	seq          uint64
	op, parentTx model.NodeID
}

func (e *event) filed() filed { return filed{e.seq, e.op, e.parentTx} }

// modeEvents is one slot's filed events of a single mode, in filing
// order. Segregating per mode lets a probe screen each sublist with ONE
// mode-table check and skip commuting sublists wholesale, so a
// read-mostly or counter-increment key (whose events all commute) costs
// a probing commit nothing no matter how long its history grows.
type modeEvents struct {
	mode data.Mode
	evs  []filed
	skip int // evs[:skip] are retired: the probe starts past them
}

// openRoot is an admitted root the certifier has not retired: its ID and
// the seqs of its first and last events.
type openRoot struct {
	id          model.NodeID
	first, last uint64
}

// execIndex is the committed execution since the last checkpoint cut.
// A certifying runtime files a stage when the certifier admits it; an
// uncertified runtime and a coordinator file it at publication.
type execIndex struct {
	comps map[string]*component // the topology's components (read-only)

	// mu guards everything below, the engine included. A certifying
	// committer holds it from its first probe to its filing — the order in
	// which committers take it is the certified commit order — and the
	// checkpoint cut and every reader take it too.
	mu     sync.Mutex
	scheds []model.ScheduleID // schedules filed nodes declared; a cut keeps them, as the engine does
	nodes  []front.DeltaNode
	slots  map[slotKey][]modeEvents
	inc    *front.Incremental // the certifier's engine (nil = not certifying)

	// Retirement (certifying only; see retire). Every filed event with
	// seq ≤ retiredTo belongs to a retired root, and the probe skips it.
	// The engine holds the open roots and the retired roots in pending.
	// carry keeps, for the probe only, the events of open roots filed
	// before the last cut.
	retiredTo uint64
	open      []openRoot // by first seq
	pending   []model.NodeID
	carry     map[slotKey][]modeEvents
	broken    error // a failed retire: the engine is unusable from then on

	// observe, if set, sees each admitted delta and its events, under mu
	// (tests). One that keeps the delta copies its Nodes (see cut).
	observe func(d *front.Delta, evs []event)

	fastPath atomic.Int64 // stages the engine parked
}

func newExecIndex(comps map[string]*component) *execIndex {
	return &execIndex{comps: comps, slots: map[slotKey][]modeEvents{}}
}

// file adds one committed stage to the index.
func (ix *execIndex) file(s *stagedRecord) {
	ix.mu.Lock()
	ix.nodes = append(ix.nodes, s.nodes...)
	ix.fileLocked(s.nodes, s.events)
	ix.mu.Unlock()
}

// fileLocked declares the schedules of nodes, already in ix.nodes, and
// files each event in the sublist of its slot and mode (under ix.mu).
func (ix *execIndex) fileLocked(nodes []front.DeltaNode, evs []event) {
	for _, n := range nodes {
		if n.Sched != "" && !slices.Contains(ix.scheds, n.Sched) {
			ix.scheds = append(ix.scheds, n.Sched)
		}
	}
	for i := range evs {
		e := &evs[i]
		fileInto(ix.slots, slotKey{e.comp, e.item}, e.mode, e.filed())
	}
}

// fileInto appends f to the sublist of mode in slots[key].
func fileInto(slots map[slotKey][]modeEvents, key slotKey, mode data.Mode, f filed) {
	subs := slots[key]
	for k := range subs {
		if subs[k].mode == mode {
			subs[k].evs = append(subs[k].evs, f)
			return
		}
	}
	slots[key] = append(subs, modeEvents{mode: mode, evs: []filed{f}})
}

// probe calls fn for every unretired filed or carried event of key whose
// mode conflicts with mode under the component's table. Commuting
// sublists are skipped after a single table check each.
func (ix *execIndex) probe(key slotKey, mt *data.ModeTable, mode data.Mode, fn func(filed)) {
	for _, subs := range [2][]modeEvents{ix.slots[key], ix.carry[key]} {
		for j := range subs {
			me := &subs[j]
			if !mt.ModeConflicts(me.mode, mode) {
				continue
			}
			for me.skip < len(me.evs) && me.evs[me.skip].seq <= ix.retiredTo {
				me.skip++
			}
			for _, p := range me.evs[me.skip:] {
				if p.seq > ix.retiredTo {
					fn(p)
				}
			}
		}
	}
}

// delta is the filed execution as one front delta (under ix.mu): the
// declared schedules, the nodes parents first, and per slot a conflict
// and weak-output pair for every mode-conflicting pair of its events
// with distinct parent transactions, directed by seq (pairSeq) — the
// same pairs the certifier derived stage by stage. Its Nodes are
// ix.nodes itself (see cut).
func (ix *execIndex) delta() *front.Delta {
	d := &front.Delta{Schedules: slices.Clone(ix.scheds), Nodes: slices.Clip(ix.nodes)}
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
	sys := model.NewSystem()
	ix.mu.Lock()
	ix.delta().Apply(sys)
	ix.mu.Unlock()
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

// retire runs after an admission, under ix.mu. No live attempt other
// than the admitting one can draw a seq at or below w. Take the open
// roots in first-seq order and retire the longest prefix whose events all
// lie at or below w and below the first event of the next open root.
// Every event of a retired root then precedes every event not yet
// retired, filed or future, so every pair between them runs out of the
// retired root and no cycle can pass through it (the fold argument of
// front/checkpoint.go, here enforced). The retired events are exactly
// those at or below retiredTo. The engine drops retired roots once they
// are at least as many as the open ones, so each reload of the open
// suffix (front.Incremental.Retire) is paid for by the roots it drops.
func (ix *execIndex) retire(w uint64) error {
	k, top := 0, ix.retiredTo
	for i, o := range ix.open {
		if top = max(top, o.last); top > w {
			break
		}
		if i+1 == len(ix.open) || top < ix.open[i+1].first {
			k, ix.retiredTo = i+1, top
		}
	}
	for _, o := range ix.open[:k] {
		ix.pending = append(ix.pending, o.id)
	}
	ix.open = append(ix.open[:0], ix.open[k:]...)
	if len(ix.pending) == 0 || len(ix.pending) < len(ix.open) {
		return nil
	}
	err := ix.inc.Retire(ix.pending)
	ix.pending = ix.pending[:0]
	return err
}

// cut drops the record at a checkpoint: every filed node and event. The
// declared schedules stay, as they do in the engine. The engine keeps the
// open roots, so a certifying index moves their events into the carry,
// where the probe still finds them; delta(), system() and Sequences
// never read it. It returns the roots and nodes dropped.
func (ix *execIndex) cut() (roots, nodes int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, n := range ix.nodes {
		if n.Parent == "" {
			roots++
		}
	}
	nodes = len(ix.nodes)
	if ix.inc != nil {
		carry := map[slotKey][]modeEvents{}
		for _, from := range [2]map[slotKey][]modeEvents{ix.carry, ix.slots} {
			for key, subs := range from {
				for _, me := range subs {
					for _, f := range me.evs {
						if f.seq > ix.retiredTo {
							fileInto(carry, key, me.mode, f)
						}
					}
				}
			}
		}
		ix.carry = carry
	}
	// Truncate instead of dropping: the backing arrays are bounded by the
	// largest window between cuts and are immediately refilled. Sublists
	// of slots that were active this window are kept the same way, while
	// slots idle since the previous cut are dropped, so a retired item
	// does not pin its slot forever. An admitted delta's Nodes are a region
	// of ix.nodes, and no delta the engine keeps may alias a region a later
	// filing writes over: while the engine holds a parked delta, the nodes
	// start a fresh array and the delta keeps the old one until Retire.
	// A truncated array is cleared first: its stale entries would pin the
	// ID buffers of roots long cut.
	if ix.inc != nil && ix.inc.ParkedNodes() > 0 {
		ix.nodes = make([]front.DeltaNode, 0, cap(ix.nodes))
	} else {
		clear(ix.nodes)
		ix.nodes = ix.nodes[:0]
	}
	for k, subs := range ix.slots {
		active := false
		for j := range subs {
			if len(subs[j].evs) > 0 {
				clear(subs[j].evs)
				subs[j].evs, subs[j].skip = subs[j].evs[:0], 0
				active = true
			}
		}
		if !active {
			delete(ix.slots, k)
		}
	}
	return roots, nodes
}

// live gauges the forest the watermarks police: the nodes filed since the
// last cut or, if more, the certifier engine's, which a cut never drops
// (the carry holds only their events): a live attempt pins them.
func (ix *execIndex) live() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.inc != nil {
		return max(len(ix.nodes), ix.inc.LiveNodes())
	}
	return len(ix.nodes)
}

// RecordedSystem assembles the committed execution into a composite-system
// model: one schedule per component that executed at least one
// transaction (a cut keeps it), conflicts derived from each component's
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
