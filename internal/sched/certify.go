package sched

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
//     orders its stage's node declarations (children-map topological
//     emit), sorts its events, derives their (component, item) keys and
//     pairs the events inside the stage by a seq-ascending sweep.
//  2. It takes the certifier's mutex once. Inside, it probes the conflict
//     index for the cross-stage pairs, admits the stage (fast path or
//     engine, below), appends the stage to the index and the delta tail,
//     and unlocks. Lock order is admission order is certified commit
//     order; nothing about a stage is decided outside the lock, so there
//     is no snapshot to reconcile and a checkpoint fold (same mutex)
//     cannot land between a probe and its admission.
//  3. Footprint-disjointness fast path. A stage with zero cross-
//     transaction conflict pairs, no new schedule and no new invocation
//     edge extends the history trivially (an empty delta is trivially
//     Comp-C — it adds only isolated vertices to every constraint
//     relation): instead of engine admission it is parked in the pending
//     set, its events entering only the conflict index. A later
//     conflicting admission flushes the parked stages its pairs
//     reference (front.Incremental.AbsorbNodes, still no admission
//     machinery); a stage that reaches the next checkpoint fold
//     unreferenced is dropped with the fold and never touches the engine
//     at all. Disjoint and read-mostly workloads pay near-zero
//     serialized certification cost.
//
// A rejection poisons the incremental engine (incorrectness is monotone);
// recovery rebuilds a fresh engine by replaying the *admitted delta tail*
// since the last checkpoint fold — no event re-sorting, no re-pairing,
// and no Runtime.mu held, so an O(history) stall per reject became
// O(tail-since-fold).

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

// addStage appends one absorbed stage's events. Events are grouped by key
// so each distinct key costs one map access instead of one per event.
func (ix certIndex) addStage(evs []event) {
	for i := range evs {
		key := keyOf(evs[i])
		first := true
		for j := 0; j < i; j++ {
			if keyOf(evs[j]) == key {
				first = false
				break
			}
		}
		if !first {
			continue
		}
		entries := ix[key]
		for j := i; j < len(evs); j++ {
			if keyOf(evs[j]) != key {
				continue
			}
			e := evs[j]
			found := false
			for k := range entries {
				if entries[k].mode == e.mode {
					entries[k].evs = append(entries[k].evs, e)
					found = true
					break
				}
			}
			if !found {
				entries = append(entries, modeEvents{mode: e.mode, evs: []event{e}})
			}
		}
		ix[key] = entries
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

	// mu guards everything below except the two counters and the ticket
	// pool. A committer holds it from its first index probe to its stage's
	// index append — the order in which committers take it is the certified
	// commit order — and CertifiedSystem, the checkpoint fold and the
	// liveNodes gauge take it too. Runtime.mu is never acquired inside it.
	mu     sync.Mutex
	index  certIndex
	inc    *front.Incremental
	scheds map[string]bool // component schedules already declared to the engine
	// tail holds the deltas admitted since the last checkpoint fold, in
	// admission order — the rejection-recovery replay source. The fold is
	// the baseline: it already re-verified everything before it.
	tail []*front.Delta

	// pending parks the stages admitted through the fast path but not yet
	// applied to the engine, keyed by root. A footprint-disjoint stage is
	// Comp-C without the engine's help — it adds only isolated vertices to
	// every constraint relation, and an isolated vertex can neither create
	// nor break a cycle — so its delta is absorbed lazily: only when a
	// later conflicting admission references one of its nodes (the probe
	// index still carries its events, so such a reference always surfaces
	// as a pair whose peer we flush first) or when a reader asks for the
	// whole certified system. A stage that reaches the next checkpoint
	// fold unreferenced is dropped with the fold and never pays engine
	// admission at all — the fold rebuild replays only the live suffix,
	// which never contained it.
	pending     map[model.NodeID]*front.Delta
	pendingNode map[model.NodeID]model.NodeID // any stage node -> its pending root
	pendingN    int                           // nodes across pending (liveNodes gauge)

	fastPath     atomic.Int64 // stages absorbed via the fast path
	rebuildNanos atomic.Int64 // total wall time spent in rejection rebuilds

	tickets sync.Pool // *certTicket, recycled across commits
}

func newCertifier(r *Runtime) *certifier {
	c := &certifier{
		modes: make(map[string]*data.ModeTable, len(r.comps)),
		// PropagateInputs mirrors RecordedSystem's Definition 4 item 7
		// propagation, so the certified history matches the recorder.
		inc:         front.NewIncremental(front.IncrementalOptions{PropagateInputs: true}),
		scheds:      map[string]bool{},
		index:       certIndex{},
		pending:     map[model.NodeID]*front.Delta{},
		pendingNode: map[model.NodeID]model.NodeID{},
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
	root  model.NodeID
	nodes []front.DeltaNode // topologically ordered node declarations

	// localPairs pairs events within the stage. Each entry is both a
	// conflict and a weak-output pair (directed by seq).
	localPairs []front.DeltaPair

	// The stage's footprint for the index probe and append: its events in
	// global seq order.
	evs []event

	// peers lists the counterpart transactions of the probe-derived pairs
	// (over-approximated, deduped against the previous entry only): the
	// admitted nodes this stage's pairs reference. Admission flushes any
	// of them still parked in the pending set before the full Admit.
	peers []model.NodeID

	// orderDecls' scratch: child lists over declaration indices and the
	// stage roots.
	head, tail, next, roots []int32
}

// notePeer records a pair counterpart for the pre-admission flush.
func (t *certTicket) notePeer(n model.NodeID) {
	if k := len(t.peers); k > 0 && t.peers[k-1] == n {
		return
	}
	t.peers = append(t.peers, n)
}

// getTicket returns a recycled (or fresh) ticket with its scratch reset;
// admit puts it back once the stage is decided.
func (c *certifier) getTicket() *certTicket {
	t, _ := c.tickets.Get().(*certTicket)
	if t == nil {
		return &certTicket{}
	}
	t.root = ""
	t.nodes = nil // retained by the admitted delta; never reused
	t.localPairs = nil
	t.evs = t.evs[:0]
	t.peers = t.peers[:0]
	return t
}

// buildTicket derives the part of the committing stage's delta that needs
// no shared state, exactly as RecordedSystem derives it for the full
// system: the new forest nodes (parents first), the events in global
// sequence order, and — per component, per item — a conflict plus
// weak-output pair for every mode-conflicting pair of the stage's own
// events with distinct parent transactions. It runs on the committing
// goroutine with no lock held. Cross-stage pairs and schedule
// declarations are left to admission: they depend on admission order.
func (c *certifier) buildTicket(root model.NodeID, stage *stagedRecord) *certTicket {
	t := c.getTicket()
	t.root = root
	t.orderDecls(stage.nodes)
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

// orderDecls fills t.nodes with a stage's node declarations parents-first
// via a children-map topological emit (the stage declares leaves and
// events as they execute but a subtransaction only after its subtree
// completes, so children can precede their parent; the delta format
// requires the opposite). One pass indexes children by parent, one
// preorder walk from the stage roots emits them — O(n), sibling order
// preserved. Unresolvable declarations are appended as-is and surface as
// delta validation errors.
func (t *certTicket) orderDecls(decls []nodeDecl) {
	n := len(decls)
	t.nodes = make([]front.DeltaNode, 0, n)
	// Child lists as linked siblings over declaration indices (head/tail
	// per node, next per child) — no per-stage maps, sibling order is
	// declaration order. Stages are small, so the parent lookup is a
	// linear scan.
	t.head = slices.Grow(t.head[:0], n)[:n]
	t.tail = slices.Grow(t.tail[:0], n)[:n]
	t.next = slices.Grow(t.next[:0], n)[:n]
	for i := range n {
		t.head[i], t.tail[i], t.next[i] = -1, -1, -1
	}
	t.roots = t.roots[:0]
	for i, d := range decls {
		p := int32(-1)
		if d.parent != "" {
			for j := 0; j < n; j++ {
				if decls[j].id == d.parent {
					p = int32(j)
					break
				}
			}
		}
		if p < 0 {
			t.roots = append(t.roots, int32(i))
			continue
		}
		if t.head[p] < 0 {
			t.head[p] = int32(i)
		} else {
			t.next[t.tail[p]] = int32(i)
		}
		t.tail[p] = int32(i)
	}
	for _, r := range t.roots {
		t.emit(decls, r)
	}
	if len(t.nodes) != n {
		emitted := make(map[model.NodeID]bool, len(t.nodes))
		for _, d := range t.nodes {
			emitted[d.ID] = true
		}
		for _, d := range decls {
			if !emitted[d.id] {
				t.nodes = append(t.nodes, front.DeltaNode{ID: d.id, Parent: d.parent, Sched: model.ScheduleID(d.sched)})
			}
		}
	}
}

// emit appends declaration i and then, in preorder, its subtree.
func (t *certTicket) emit(decls []nodeDecl, i int32) {
	d := decls[i]
	t.nodes = append(t.nodes, front.DeltaNode{ID: d.id, Parent: d.parent, Sched: model.ScheduleID(d.sched)})
	for c := t.head[i]; c >= 0; c = t.next[c] {
		t.emit(decls, c)
	}
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
func (c *certifier) admit(root model.NodeID, stage *stagedRecord) (*front.Verdict, error) {
	t := c.buildTicket(root, stage)
	c.mu.Lock()
	v, err := c.admitLocked(t)
	c.mu.Unlock()
	c.tickets.Put(t)
	return v, err
}

// admitLocked decides one ticket against the admitted history (under
// c.mu). It probes the conflict index for the stage's cross-stage pairs,
// assembles the final delta, and either fast-path absorbs it or runs the
// full engine admission. On a violation the stage is discarded, the
// engine rebuilt from the admitted tail, and the failure verdict
// returned.
func (c *certifier) admitLocked(t *certTicket) (*front.Verdict, error) {
	var pairs []front.DeltaPair
	for _, e := range t.evs {
		c.index.probe(keyOf(e), c.modes[e.comp], e.mode, func(p event) {
			t.notePeer(p.parentTx)
			pairSeq(&pairs, p, e)
		})
	}
	pairs = append(pairs, t.localPairs...)

	d := &front.Delta{Nodes: t.nodes}
	for _, n := range t.nodes {
		s := string(n.Sched)
		if s == "" || c.scheds[s] {
			continue
		}
		dup := false
		for _, sd := range d.Schedules {
			if sd == n.Sched {
				dup = true
				break
			}
		}
		if !dup {
			d.Schedules = append(d.Schedules, n.Sched)
		}
	}
	// Every derived pair is both a declared conflict and a weak-output
	// pair (the engine reads both slices; sharing the backing array is
	// fine, they are never mutated).
	d.Conflicts = pairs
	d.WeakOut = pairs

	if len(pairs) == 0 && len(d.Schedules) == 0 && c.inc.NodesOnlyEligible(d) {
		// Footprint-disjoint: park the stage for lazy absorption instead of
		// applying it. Its events still enter the conflict index (so a later
		// conflicting stage finds it and flushes it), but the engine — and
		// the next fold's rebuild — never sees it unless referenced.
		c.fastPath.Add(1)
		c.pending[t.root] = d
		for _, n := range t.nodes {
			c.pendingNode[n.ID] = t.root
		}
		c.pendingN += len(t.nodes)
		c.absorbLocked(t, d)
		return nil, nil
	}
	// Full admission references its pair counterparts: any of them still
	// parked must enter the engine first.
	if err := c.flushPeersLocked(t.peers); err != nil {
		return nil, err
	}
	v, err := c.inc.Admit(d)
	if err != nil {
		return nil, err
	}
	if v != nil {
		if rerr := c.rebuildLocked(); rerr != nil {
			return v, rerr
		}
		return v, nil
	}
	c.absorbLocked(t, d)
	return nil, nil
}

// absorbLocked commits an admitted stage into the certifier's history:
// schedules, the delta tail, and the conflict index.
func (c *certifier) absorbLocked(t *certTicket, d *front.Delta) {
	for _, n := range t.nodes {
		if n.Sched != "" {
			c.scheds[string(n.Sched)] = true
		}
	}
	c.tail = append(c.tail, d)
	c.index.addStage(t.evs)
}

// flushPeersLocked applies the pending stages owning the given nodes: a
// conflicting admission is about to reference them, so the engine must
// know them now. Unreferenced pending stages stay parked.
func (c *certifier) flushPeersLocked(peers []model.NodeID) error {
	for _, p := range peers {
		if root, ok := c.pendingNode[p]; ok {
			if err := c.flushOneLocked(root); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushAllLocked applies every pending stage — a whole-system reader
// (CertifiedSystem, the foldable-roots helper) needs the engine complete.
func (c *certifier) flushAllLocked() error {
	for root := range c.pending {
		if err := c.flushOneLocked(root); err != nil {
			return err
		}
	}
	return nil
}

// flushOneLocked unparks one pending stage and absorbs it. Eligibility
// cannot be revoked between parking and flush (the IG only grows, a
// rejection rebuild clears the pending set under this same mutex), so
// the fallback full admission is a belt-and-suspenders path.
func (c *certifier) flushOneLocked(root model.NodeID) error {
	d := c.pending[root]
	delete(c.pending, root)
	for _, n := range d.Nodes {
		delete(c.pendingNode, n.ID)
	}
	c.pendingN -= len(d.Nodes)
	if err := c.inc.AbsorbNodes(d); err != nil {
		if !errors.Is(err, front.ErrNotNodesOnly) {
			return fmt.Errorf("sched: certifier deferred absorb of %s: %w", root, err)
		}
		if _, aerr := c.inc.Admit(d); aerr != nil {
			return fmt.Errorf("sched: certifier deferred absorb of %s: %w", root, aerr)
		}
	}
	return nil
}

// rebuildLocked replaces the poisoned engine with a fresh one replayed
// from the admitted delta tail — the stages admitted since the last
// checkpoint fold (the fold already re-verified everything before it, so
// fold + tail covers the whole admitted history). The stored deltas are
// replayed verbatim: no event re-sorting, no conflict re-pairing, and no
// Runtime.mu held — committers keep building their own deltas while the
// rebuild runs.
func (c *certifier) rebuildLocked() error {
	start := time.Now()
	defer func() { c.rebuildNanos.Add(time.Since(start).Nanoseconds()) }()

	fresh := front.NewIncremental(front.IncrementalOptions{PropagateInputs: true})
	// Schedules declared before the tail window (their declaring stages
	// were folded) must be re-seeded; schedules the tail itself declares
	// must not be (a delta re-declaring one fails validation).
	inTail := map[model.ScheduleID]bool{}
	for _, d := range c.tail {
		for _, s := range d.Schedules {
			inTail[s] = true
		}
	}
	var seed []model.ScheduleID
	for s := range c.scheds {
		if !inTail[model.ScheduleID(s)] {
			seed = append(seed, model.ScheduleID(s))
		}
	}
	if len(seed) > 0 {
		slices.Sort(seed)
		if _, err := fresh.Admit(&front.Delta{Schedules: seed}); err != nil {
			return fmt.Errorf("sched: certifier rebuild: %w", err)
		}
	}
	for _, d := range c.tail {
		v, err := fresh.Admit(d)
		if err != nil {
			return fmt.Errorf("sched: certifier rebuild: %w", err)
		}
		if v != nil {
			return fmt.Errorf("sched: certifier rebuild: admitted history re-verification failed: %s", v.Reason)
		}
	}
	c.inc = fresh
	// The tail holds every admitted delta — parked ones included — so the
	// replay above already applied them; nothing is pending anymore.
	clear(c.pending)
	clear(c.pendingNode)
	c.pendingN = 0
	return nil
}

// fold runs the checkpoint fold under the certifier mutex: fold the
// committed roots out of the engine, clear the delta tail (the fold is
// the new rebuild baseline) and empty the conflict index. A committer
// probes and admits inside one hold of the same mutex, so no stage ever
// carries a pair derived before the fold into an admission after it.
func (c *certifier) fold() (roots, nodes int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.inc.System().Roots()
	if len(rs) > 0 {
		sum, err := c.inc.Checkpoint(rs)
		if err != nil {
			return 0, 0, err
		}
		roots, nodes = sum.Roots, sum.Nodes
	}
	// Pending stages are committed like everything else accumulated, so
	// they fold too — by being dropped. They never entered the engine, so
	// there is nothing to remove; this is where the deferral pays: an
	// unreferenced disjoint stage costs the engine nothing, ever.
	roots += len(c.pending)
	nodes += c.pendingN
	if len(c.pending) > 0 {
		clear(c.pending)
		clear(c.pendingNode)
		c.pendingN = 0
	}
	c.tail = nil
	c.index.reset()
	return roots, nodes, nil
}

// liveNodes gauges the certifier's accumulated forest — engine plus
// parked stages (watermark gauge; the backpressure thresholds must see
// deferred memory too).
func (c *certifier) liveNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inc.LiveNodes() + c.pendingN
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
		v, err := c.admit("", seed)
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
	// Readers see the complete history: unpark everything first. The flush
	// cannot fail for certifier-built stages (see flushOneLocked); if it
	// somehow did, the divergence surfaces in the returned system.
	_ = c.flushAllLocked()
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
	v, err := c.admit(a.root, &a.stage)
	if err != nil {
		return err
	}
	if v != nil {
		r.certRejects.Add(1)
		return &CertifyError{Root: a.root, Verdict: v}
	}
	return nil
}
