package sched

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
)

// Commit-time certification: with EnableCertify, every root commit is
// validated against the Comp-C criterion *before* it is journaled and
// published. The execution index holds a front.Incremental over the
// committed roots not yet retired; at commit the committer derives its
// transaction's delta — the same nodes, conflicts and weak output orders
// the index's delta() pairs for RecordedSystem, minus pairs with retired
// roots — and admits it. A violating interleaving is rejected at the
// commit point with the checker's violation witness, instead of being
// detected post-hoc; the transaction is rolled back like a client abort
// and the committed history stays Comp-C by construction.
//
// Certification is one critical section on the committing goroutine,
// inside publishCommit's hold of the checkpoint gate's read side, so a
// cut drops exactly the commits journaled below its marker:
//
//  1. Out of lock, the committer builds what needs no shared state. Its
//     stage is already in seq order — the driver stages each event when
//     it draws the event's seq, and a read refresh moves the re-sequenced
//     reads to the end — so it checks that order in one pass, and pairs
//     the events inside the stage by a sweep over the stage in place.
//  2. It takes the index mutex once. Inside, it probes the slots and the
//     carry for the cross-stage pairs, admits the stage over its filed
//     nodes, files its events, retires what no live attempt can still be
//     ordered before (execIndex.retire), and unlocks. Lock order is
//     admission order is certified commit order; nothing about a stage is
//     decided outside the lock, so there is no snapshot to reconcile and
//     a cut (same mutex) cannot land between a probe and its admission.
//  3. A stage with no cross-transaction pair, no new schedule and no new
//     invocation edge is parked by front.Incremental.Admit. Its events
//     are still filed, so a later pair against it makes the engine absorb
//     it; retired unabsorbed, it never reaches the engine.
//
// A rejection costs its delta: the engine rolls the stage back and
// nothing stays filed.

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

// resolvedMode is an event's mode as admission tests it: its component's
// mode table and its class among the stage's distinct modes (localPairs).
type resolvedMode struct {
	table *data.ModeTable
	class uint8
}

// localPairs derives the part of the committing stage's delta that
// needs no shared state, exactly as delta() derives it for the whole
// index: per slot, a conflict plus weak-output pair for every
// mode-conflicting pair of the stage's own events with distinct parent
// transactions. It runs on the committing goroutine with no lock held.
// The nodes, cross-stage pairs and schedule declarations are left to
// admission: they depend on admission order. The pairs end up in the
// admitted delta, so they are made fresh per commit.
//
// Each event is resolved once, appended to modes and returned with the
// pairs: its component's mode table, which admission's probes use too,
// and its mode's class among the stage's distinct modes. Which earlier
// classes conflict with an event's is asked of its table once per table
// and class, so a pair is screened by one bit test before any name is
// compared, and an event whose mode commutes with every earlier one visits
// none: a stage of commuting operations costs one pass. Modes past the
// first otherClass distinct ones share otherClass, whose pairs are tested
// in full.
func (ix *execIndex) localPairs(evs []event, modes []resolvedMode) ([]front.DeltaPair, []resolvedMode) {
	const otherClass = 15
	var classes [otherClass]data.Mode
	n, others := 0, false
	// rows remembers, per table and class, which classes conflict with
	// it, until a new class appears.
	var rows [8]struct {
		table *data.ModeTable
		class int
		row   uint64
	}
	nrows := 0
	var pairs []front.DeltaPair
	for i := range evs {
		e := &evs[i]
		mt := ix.comps[e.comp].modes
		c := slices.Index(classes[:n], e.mode)
		if c < 0 {
			c = otherClass
			if n < otherClass {
				classes[n], c = e.mode, n
				n++
				nrows = 0
			}
		}
		modes = append(modes, resolvedMode{table: mt, class: uint8(c)})
		row, known := uint64(0), false
		for _, r := range rows[:nrows] {
			if r.table == mt && r.class == c {
				row, known = r.row, true
				break
			}
		}
		if !known {
			for k, m := range classes[:n] {
				if mt.ModeConflicts(m, e.mode) {
					row |= 1 << k
				}
			}
			if c != otherClass && nrows < len(rows) {
				rows[nrows].table, rows[nrows].class, rows[nrows].row = mt, c, row
				nrows++
			}
		}
		conflicts := row // bit k: an earlier event of class k may conflict with e
		if others {
			conflicts |= 1 << otherClass
		}
		others = others || c == otherClass
		if conflicts == 0 {
			continue
		}
		// Earlier events of the same key pair with e.
		for j := range i {
			pc := modes[j].class
			if p := &evs[j]; conflicts>>pc&1 != 0 && p.item == e.item && p.comp == e.comp &&
				(pc != otherClass || mt.ModeConflicts(p.mode, e.mode)) {
				pairSeq(&pairs, e.comp, p.filed(), e.filed())
			}
		}
	}
	return pairs, modes
}

// inSeqOrder checks that a stage's events strictly ascend in seq, as the
// driver stages them: an attempt draws its seqs in the order it stages
// their events.
func inSeqOrder(stage *stagedRecord) error {
	for i := 1; i < len(stage.events); i++ {
		if stage.events[i].seq <= stage.events[i-1].seq {
			root := model.NodeID("")
			if len(stage.nodes) > 0 {
				root = stage.nodes[0].ID
			}
			return fmt.Errorf("sched: stage of %s out of seq order: event %s (seq %d) follows %s (seq %d)",
				root, stage.events[i].op, stage.events[i].seq, stage.events[i-1].op, stage.events[i-1].seq)
		}
	}
	return nil
}

// pairSeq appends the conflict/weak-output pair for two events of
// component comp already known to be mode-conflicting, if they belong to
// different parent transactions. The weak output order follows the
// global sequence.
func pairSeq(dst *[]front.DeltaPair, comp string, p, e filed) {
	if p.parentTx == e.parentTx {
		return
	}
	if e.seq < p.seq {
		p, e = e, p
	}
	*dst = append(*dst, front.DeltaPair{Sched: model.ScheduleID(comp), A: p.op, B: e.op})
}

// admit certifies one stage, whose events are in seq order (inSeqOrder):
// it derives the local pairs out of lock, then, under the mutex, probes
// the slots for the stage's cross-stage pairs, files the nodes, admits
// the final delta over them (see cut), files the events and retires up
// to w (see retire). A non-nil verdict is the rejection witness (the
// engine has rolled the stage back); an error reports a malformed stage
// or a broken engine. Either way nothing stays filed. A failed retire (an
// engine bug) keeps the stage admitted and fails every later admission.
func (ix *execIndex) admit(stage *stagedRecord, w uint64) (*front.Verdict, error) {
	if err := inSeqOrder(stage); err != nil {
		return nil, err
	}
	evs := stage.events
	var onStack [64]resolvedMode // a stage of up to 64 events resolves without allocating
	local, modes := ix.localPairs(evs, onStack[:0])
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.broken != nil {
		return nil, ix.broken
	}
	var pairs []front.DeltaPair
	for i := range evs {
		e := &evs[i]
		f := e.filed()
		ix.probe(slotKey{e.comp, e.item}, modes[i].table, e.mode, func(p filed) {
			pairSeq(&pairs, e.comp, p, f)
		})
	}
	pairs = append(pairs, local...)

	// Every derived pair is both a declared conflict and a weak-output
	// pair (the engine reads both slices; sharing the backing array is
	// fine, they are never mutated).
	n0 := len(ix.nodes)
	ix.nodes = append(ix.nodes, stage.nodes...)
	d := &front.Delta{Nodes: slices.Clip(ix.nodes[n0:]), Conflicts: pairs, WeakOut: pairs}
	for _, n := range d.Nodes {
		if n.Sched != "" && !ix.inc.Declared(n.Sched) && !slices.Contains(d.Schedules, n.Sched) {
			d.Schedules = append(d.Schedules, n.Sched)
		}
	}
	parks := ix.inc.Parks()
	v, err := ix.inc.Admit(d)
	if v != nil || err != nil {
		ix.nodes = ix.nodes[:n0]
		return v, err
	}
	ix.fastPath.Add(int64(ix.inc.Parks() - parks))
	ix.fileLocked(d.Nodes, evs)
	if ix.observe != nil {
		ix.observe(d, evs)
	}
	o := openRoot{id: d.Nodes[0].ID}
	if n := len(evs); n > 0 {
		o.first, o.last = evs[0].seq, evs[n-1].seq
	}
	i, _ := slices.BinarySearchFunc(ix.open, o.first, func(x openRoot, f uint64) int { return cmp.Compare(x.first, f) })
	ix.open = slices.Insert(ix.open, i, o)
	if err := ix.retire(w); err != nil {
		ix.broken = fmt.Errorf("sched: certifier retire: %w", err)
	}
	return nil, nil
}

// EnableCertify switches the runtime into live certification mode: every
// subsequent root commit is validated against Comp-C before it is
// journaled and published, and a violating commit is rejected with a
// CertifyError carrying the violation witness. An existing committed
// history is checked once (front.Check); a violating one is refused with
// a CertifyError whose Root is empty, and certification stays off. Call
// before submitting transactions. Calling it after EnableWAL returns
// ErrCertifyAfterWAL: the journaled metadata record would not carry the
// certify flag, so a recovery of that log would silently drop
// certification.
func (r *Runtime) EnableCertify() error {
	if r.wal.attached() {
		return ErrCertifyAfterWAL
	}
	sys := r.RecordedSystem()
	if v, err := front.Check(sys, front.Options{}); err != nil {
		return err
	} else if !v.Correct {
		return &CertifyError{Verdict: v}
	}
	return r.enableCertify(sys)
}

// enableCertify is EnableCertify without the WAL-ordering guard, over sys,
// the committed history already checked correct. Recover calls it after
// attaching the recovered log, whose metadata already records certify
// mode. No attempt is live, so every root of sys would retire at its
// admission: the engine is seeded with what that leaves (front.Seed).
func (r *Runtime) enableCertify(sys *model.System) error {
	// PropagateInputs mirrors RecordedSystem's Definition 4 item 7
	// propagation, so the certified history matches the recorded one.
	inc, err := front.Seed(sys, front.IncrementalOptions{PropagateInputs: true})
	if err != nil {
		return err
	}
	r.ix.mu.Lock()
	r.ix.inc, r.ix.retiredTo = inc, r.seq.Load()
	r.ix.mu.Unlock()
	r.certifying.Store(true)
	return nil
}

// Certifying reports whether live certification is enabled.
func (r *Runtime) Certifying() bool { return r.certifying.Load() }

// CertifiedSystem returns the certified commits since the last
// checkpoint cut (nil when certification is off): the index's system,
// which RecordedSystem returns too. The engine itself holds only the
// roots it has not retired.
func (r *Runtime) CertifiedSystem() *model.System {
	if !r.Certifying() {
		return nil
	}
	return r.ix.system()
}

// certify admits a committing attempt's staged record on this goroutine,
// under the index mutex, and files it. A nil return admits the commit; a
// CertifyError rejects it.
func (r *Runtime) certify(a *attempt) error {
	v, err := r.ix.admit(&a.stage, r.ck.low(a, &r.seq))
	if err != nil {
		return err
	}
	if v != nil {
		r.certRejects.Add(1)
		return &CertifyError{Root: a.root, Verdict: v}
	}
	return nil
}
