package sched

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
)

// Commit-time certification: with EnableCertify, every root commit is
// validated against the Comp-C criterion *before* it is journaled and
// published. The certifier holds a front.Incremental over the committed
// history; at commit it derives the committing transaction's delta — the
// same nodes, conflicts and weak output orders RecordedSystem would
// derive from the staged events — and admits it. A violating interleaving
// is rejected at the commit point with the checker's violation witness,
// instead of being detected post-hoc; the transaction is rolled back like
// a client abort and the committed history stays Comp-C by construction.
//
// Certification is one critical section on the committing goroutine, and
// it never touches Runtime.mu:
//
//  1. Out of lock, the committer builds what needs no shared state: it
//     converts its stage's node declarations (written parents-first),
//     sorts its events, derives their (component, item) keys and pairs
//     the events inside the stage by a seq-ascending sweep.
//  2. It takes the certifier's mutex once. Inside, it probes the conflict
//     index for the cross-stage pairs, admits the stage, appends the
//     stage to the index, and unlocks. Lock order is admission order is
//     certified commit order; nothing about a stage is decided outside the
//     lock, so there is no snapshot to reconcile and a checkpoint fold
//     (same mutex) cannot land between a probe and its admission.
//  3. A stage with no cross-transaction pair, no new schedule and no new
//     invocation edge is parked by front.Incremental.Admit. Its events
//     still enter the conflict index, so a later pair against it makes
//     the engine absorb it.
//
// A rejection costs its delta: the engine rolls the stage back, so the
// certifier keeps closure state and the conflict index and nothing else.

// ErrCertifyViolation is the sentinel every CertifyError unwraps to.
var ErrCertifyViolation = errors.New("sched: commit rejected by certifier")

// ErrCertifyAfterWAL rejects EnableCertify on a runtime that already has
// a WAL attached: the log's metadata record was journaled without the
// certify flag, so recovering that log would silently come back
// uncertified. Enable certification first, then the WAL.
var ErrCertifyAfterWAL = errors.New("sched: EnableCertify after EnableWAL (journaled metadata would not record certify mode)")

// CertifyError reports a commit rejected by the online certifier,
// carrying the full Comp-C failure verdict as the violation witness.
type CertifyError struct {
	Root    model.NodeID   // rejected root transaction ("" for a seed history)
	Verdict *front.Verdict // failure verdict over history + rejected commit
}

func (e *CertifyError) Error() string {
	if e.Root == "" {
		return fmt.Sprintf("sched: certifier rejected seed history: %s", e.Verdict.Reason)
	}
	return fmt.Sprintf("sched: commit of %s rejected: %s", e.Root, e.Verdict.Reason)
}

func (e *CertifyError) Unwrap() error { return ErrCertifyViolation }

// certKey names one conflict-index slot: an item at a component.
type certKey struct{ comp, item string }

func keyOf(e event) certKey { return certKey{e.comp, e.item} }

// modeEvents is one key's admitted events of a single mode, in admission
// order. Segregating per mode lets a probe screen each sublist with ONE
// mode-table check and skip commuting sublists wholesale, so a
// read-mostly or counter-increment key (whose events all commute) costs
// a probing commit nothing no matter how long its history grows.
type modeEvents struct {
	mode data.Mode
	evs  []event
}

// certIndex is the per-(component, item) conflict index over the events
// admitted since the last checkpoint fold. It is touched only under the
// certifier mutex.
type certIndex map[certKey][]modeEvents

// probe calls fn for every admitted event of key whose mode conflicts
// with mode under the component's table. Commuting sublists are skipped
// after a single table check each.
func (ix certIndex) probe(key certKey, mt *data.ModeTable, mode data.Mode, fn func(event)) {
	for _, me := range ix[key] {
		if !mt.ModeConflicts(me.mode, mode) {
			continue
		}
		for _, p := range me.evs {
			fn(p)
		}
	}
}

// addStage appends one admitted stage's events, each to the sublist of
// its key and mode.
func (ix certIndex) addStage(evs []event) {
	for _, e := range evs {
		key := keyOf(e)
		entries := ix[key]
		k := 0
		for k < len(entries) && entries[k].mode != e.mode {
			k++
		}
		if k == len(entries) {
			ix[key] = append(entries, modeEvents{mode: e.mode, evs: []event{e}})
		} else {
			entries[k].evs = append(entries[k].evs, e)
		}
	}
}

// reset empties the index (checkpoint fold: conflict pairs against folded
// events must never be generated again). Sublists of keys that were
// active this window are truncated in place — their capacity is
// immediately refilled by the next window — while keys idle since the
// previous fold are dropped, so a retired item does not pin its slot
// forever.
func (ix certIndex) reset() {
	for k, entries := range ix {
		active := false
		for j := range entries {
			if len(entries[j].evs) > 0 {
				entries[j].evs = entries[j].evs[:0]
				active = true
			}
		}
		if !active {
			delete(ix, k)
		}
	}
}

// certifier is the runtime's online Comp-C certifier.
type certifier struct {
	modes map[string]*data.ModeTable // component mode tables (read-only after New)

	// mu guards index and inc. A committer holds it from its first index
	// probe to its stage's index append — the order in which committers
	// take it is the certified commit order — and CertifiedSystem, the
	// checkpoint fold and the liveNodes gauge take it too. Runtime.mu is
	// never acquired inside it.
	mu    sync.Mutex
	index certIndex
	inc   *front.Incremental

	fastPath atomic.Int64 // stages the engine parked

	tickets sync.Pool // *certTicket, recycled across commits
}

func newCertifier(r *Runtime) *certifier {
	c := &certifier{
		modes: make(map[string]*data.ModeTable, len(r.comps)),
		// PropagateInputs mirrors RecordedSystem's Definition 4 item 7
		// propagation, so the certified history matches the recorder.
		inc:   front.NewIncremental(front.IncrementalOptions{PropagateInputs: true}),
		index: certIndex{},
	}
	for name, comp := range r.comps {
		c.modes[name] = comp.modes
	}
	return c
}

// certTicket is one commit's admission request: what the committing
// goroutine builds out of lock, plus the scratch admission fills in. The
// nodes and pairs end up in the admitted delta, so they are made fresh
// per ticket; every other slice is scratch, kept across commits.
type certTicket struct {
	nodes []front.DeltaNode // node declarations, parents first

	// localPairs pairs events within the stage. Each entry is both a
	// conflict and a weak-output pair (directed by seq).
	localPairs []front.DeltaPair

	// The stage's footprint for the index probe and append: its events in
	// global seq order.
	evs []event
}

// getTicket returns a recycled (or fresh) ticket with its scratch reset;
// admit puts it back once the stage is decided.
func (c *certifier) getTicket() *certTicket {
	t, _ := c.tickets.Get().(*certTicket)
	if t == nil {
		return &certTicket{}
	}
	t.nodes = nil // retained by the admitted delta; never reused
	t.localPairs = nil
	t.evs = t.evs[:0]
	return t
}

// buildTicket derives the part of the committing stage's delta that needs
// no shared state, exactly as RecordedSystem derives it for the full
// system: the new forest nodes, the events in global sequence order, and —
// per component, per item — a conflict plus weak-output pair for every
// mode-conflicting pair of the stage's own events with distinct parent
// transactions. It runs on the committing goroutine with no lock held.
// Cross-stage pairs and schedule declarations are left to admission: they
// depend on admission order.
func (c *certifier) buildTicket(stage *stagedRecord) *certTicket {
	t := c.getTicket()
	t.nodes = make([]front.DeltaNode, len(stage.nodes))
	for i, d := range stage.nodes {
		t.nodes[i] = front.DeltaNode{ID: d.id, Parent: d.parent, Sched: model.ScheduleID(d.sched)}
	}
	t.evs = append(t.evs, stage.events...)
	// An invocation draws its seq when it takes its lock and appends its
	// event after its subtree's, so every stage with an invocation arrives
	// out of seq order. Seqs are unique: the order is total.
	slices.SortFunc(t.evs, bySeq)
	for i, e := range t.evs {
		// Intra-stage sweep: earlier events of the same key pair with e.
		for j := 0; j < i; j++ {
			if p := t.evs[j]; p.comp == e.comp && p.item == e.item && c.modes[e.comp].ModeConflicts(p.mode, e.mode) {
				pairSeq(&t.localPairs, p, e)
			}
		}
	}
	return t
}

// pairSeq appends the conflict/weak-output pair for two events already
// known to be mode-conflicting, if they belong to different parent
// transactions. The weak output order follows the global sequence,
// exactly as the recorder's assembly sorts events by seq before pairing.
func pairSeq(dst *[]front.DeltaPair, p, e event) {
	if p.parentTx == e.parentTx {
		return
	}
	a, b := p, e
	if b.seq < a.seq {
		a, b = b, a
	}
	*dst = append(*dst, front.DeltaPair{Sched: model.ScheduleID(a.comp), A: a.op, B: b.op})
}

// admit certifies one stage: build out of lock, decide under the mutex.
// A non-nil verdict is the rejection witness; an error reports a
// malformed stage (certifier state unchanged).
func (c *certifier) admit(stage *stagedRecord) (*front.Verdict, error) {
	t := c.buildTicket(stage)
	c.mu.Lock()
	v, err := c.admitLocked(t)
	c.mu.Unlock()
	c.tickets.Put(t)
	return v, err
}

// admitLocked decides one ticket against the admitted history (under
// c.mu). It probes the conflict index for the stage's cross-stage pairs,
// assembles the final delta and admits it. On a violation the engine has
// rolled the stage back, and the failure verdict is returned.
func (c *certifier) admitLocked(t *certTicket) (*front.Verdict, error) {
	var pairs []front.DeltaPair
	for _, e := range t.evs {
		c.index.probe(keyOf(e), c.modes[e.comp], e.mode, func(p event) {
			pairSeq(&pairs, p, e)
		})
	}
	pairs = append(pairs, t.localPairs...)

	// Every derived pair is both a declared conflict and a weak-output
	// pair (the engine reads both slices; sharing the backing array is
	// fine, they are never mutated).
	d := &front.Delta{Nodes: t.nodes, Conflicts: pairs, WeakOut: pairs}
	for _, n := range t.nodes {
		if n.Sched != "" && !c.inc.Declared(n.Sched) && !slices.Contains(d.Schedules, n.Sched) {
			d.Schedules = append(d.Schedules, n.Sched)
		}
	}
	parks := c.inc.Parks()
	v, err := c.inc.Admit(d)
	if v != nil || err != nil {
		return v, err
	}
	c.fastPath.Add(int64(c.inc.Parks() - parks))
	c.index.addStage(t.evs)
	return nil, nil
}

// fold runs the checkpoint fold under the certifier mutex: fold the
// committed roots out of the engine and empty the conflict index. A
// committer probes and admits inside one hold of the same mutex, so no
// stage ever carries a pair derived before the fold into an admission
// after it.
func (c *certifier) fold() (roots, nodes int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum, err := c.inc.Fold()
	if err != nil {
		return 0, 0, err
	}
	c.index.reset()
	return sum.Roots, sum.Nodes, nil
}

// liveNodes gauges the certifier's accumulated forest, parked stages
// included (the backpressure watermarks police it).
func (c *certifier) liveNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inc.LiveNodes()
}

// EnableCertify switches the runtime into live certification mode: every
// subsequent root commit is validated against Comp-C before it is
// journaled and published, and a violating commit is rejected with a
// CertifyError carrying the violation witness. An existing committed
// history is admitted as the seed (after Recover, this rebuilds the
// certifier over the recovered execution). Call before submitting
// transactions. Calling it after EnableWAL returns ErrCertifyAfterWAL:
// the journaled metadata record would not carry the certify flag, so a
// recovery of that log would silently drop certification.
func (r *Runtime) EnableCertify() error {
	if r.wal.attached() {
		return ErrCertifyAfterWAL
	}
	return r.enableCertify()
}

// enableCertify is EnableCertify without the WAL-ordering guard. Recover
// calls it after attaching the recovered log, whose metadata already
// records certify mode.
func (r *Runtime) enableCertify() error {
	c := newCertifier(r)
	r.mu.Lock()
	var seed *stagedRecord
	if len(r.rec.nodes) > 0 {
		seed = &stagedRecord{nodes: r.rec.nodes, events: r.rec.events}
	}
	r.mu.Unlock()
	if seed != nil {
		v, err := c.admit(seed)
		if err != nil {
			return err
		}
		if v != nil {
			return &CertifyError{Verdict: v}
		}
	}
	r.cert.Store(c)
	return nil
}

// certifier returns the live certifier (nil = off): one atomic load of
// the pointer enableCertify publishes once. Everything behind it has its
// own synchronization.
func (r *Runtime) certifier() *certifier { return r.cert.Load() }

// Certifying reports whether live certification is enabled.
func (r *Runtime) Certifying() bool {
	return r.certifier() != nil
}

// CertifiedSystem returns the certifier's accumulated composite system
// (nil when certification is off). It equals RecordedSystem over the
// same commits; callers must not mutate it.
func (r *Runtime) CertifiedSystem() *model.System {
	c := r.certifier()
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inc.System()
}

// certify admits a committing attempt's staged record on this goroutine,
// under the certifier's mutex — the global runtime mutex is never taken.
// A nil return admits the commit; a CertifyError rejects it.
func (r *Runtime) certify(a *attempt) error {
	c := r.certifier()
	if c == nil {
		return nil
	}
	v, err := c.admit(&a.stage)
	if err != nil {
		return err
	}
	if v != nil {
		r.certRejects.Add(1)
		return &CertifyError{Root: a.root, Verdict: v}
	}
	return nil
}
