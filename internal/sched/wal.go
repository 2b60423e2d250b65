package sched

import (
	"encoding/json"
	"errors"
	"fmt"

	"compositetx/internal/wal"
)

// Durability wiring: with a WAL attached (EnableWAL), the runtime journals
// every state mutation *before* performing it — write-ahead applies with
// their undo values, write-ahead compensations, and at root commit the
// whole staged record (nodes, events, commit marker) as one contiguous
// batch. The in-memory stores and execution index stay volatile; the log
// is the single source of truth a crash leaves behind, and Recover
// (recover.go) rebuilds both halves from it.

// WALConfig configures the runtime's write-ahead log.
type WALConfig struct {
	// Dir is the log directory (created if absent). An existing non-empty
	// log is rejected with ErrWALExists: a runtime only ever appends to a
	// log it started, and Recover owns reopening.
	Dir string
	// SyncEvery is the group-commit knob (see wal.Options.SyncEvery):
	// 0/1 fsync every record, N>1 every Nth, negative never.
	SyncEvery int
	// SegmentBytes rotates segment files at this size (0 = 8 MiB).
	SegmentBytes int64
}

// Typed durability errors.
var (
	// ErrCrashed is returned by Submit (and drained lock waits) after a
	// simulated process crash (FaultCrash): the attempt is abandoned
	// without rollback, exactly as a real crash would leave it, and the
	// WAL is the only surviving state.
	ErrCrashed = errors.New("sched: runtime crashed")
	// ErrWALExists rejects EnableWAL on a directory that already holds
	// records; recover it instead of appending to it blind.
	ErrWALExists = errors.New("sched: WAL directory already holds a log")
)

// walMeta is the TypeMeta payload: enough configuration to rebuild the
// runtime at recovery without any state beside the log directory.
type walMeta struct {
	Version  int          `json:"version"`
	Protocol string       `json:"protocol"`
	Topology topologyJSON `json:"topology"`
	// Certify records live-certification mode (EnableCertify before
	// EnableWAL), so Recover turns certification back on, seeded from the
	// recovered history it has just checked.
	Certify bool `json:"certify,omitempty"`
	// Dist marks a distributed coordinator log (2PC decisions instead of
	// commit markers): recover it with RecoverCoordinator, not Recover.
	Dist bool `json:"dist,omitempty"`
}

// EnableWAL attaches a fresh write-ahead log to the runtime: a metadata
// record (protocol + topology) followed by one seed record per existing
// store item, fsynced before the first transaction can touch it. Call
// after seeding stores and before submitting transactions.
func (r *Runtime) EnableWAL(cfg WALConfig) error {
	meta := walMeta{Version: 1, Protocol: r.protocol.String(), Topology: topologyToDoc(r.topo), Certify: r.Certifying()}
	blob, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	// Seed baseline: what a base checkpoint batch would hold, in the same
	// deterministic order, so identical setups produce identical logs.
	seeds := r.checkpointItems(true)
	for i := range seeds {
		seeds[i].Type = wal.TypeSeed
	}
	j, err := attachFresh(cfg.Dir, wal.Options{SyncEvery: cfg.SyncEvery, SegmentBytes: cfg.SegmentBytes}, blob, seeds)
	if err != nil {
		return err
	}
	r.wal, r.walMetaJSON = j, blob
	return nil
}

// CloseWAL shuts the runtime down cleanly: the log is flushed and closed,
// and stays recoverable and replayable.
func (r *Runtime) CloseWAL() error { return r.close() }

// WALRecords returns the number of records journaled so far (0 without a
// WAL).
func (r *Runtime) WALRecords() uint64 { return r.wal.records() }

// noteWALErr records the first filesystem error hit while staging a
// simulated crash image (wal.Abandon). The crash itself proceeds — a real
// crash gets no error handling either — but the error is retained so
// tests and operators can tell a clean simulation from a broken disk.
func (r *Runtime) noteWALErr(err error) {
	r.walErrMu.Lock()
	if r.walErr == nil {
		r.walErr = err
	}
	r.walErrMu.Unlock()
}

// WALError reports the first filesystem error recorded against the WAL
// (nil in a healthy run).
func (r *Runtime) WALError() error {
	r.walErrMu.Lock()
	defer r.walErrMu.Unlock()
	return r.walErr
}

// crashPanic unwinds the crashing attempt's stack; Submit's deferred
// recover converts it to ErrCrashed. Any other panic value keeps
// propagating.
type crashPanic struct{}

// crashNow simulates a process crash at the current point (see
// lifecycle.abandon: every other Submit drains via lock-wait and
// step-loop checks; torn, when non-nil, remains as a half-written record),
// and the calling attempt unwinds without any rollback — its locks stay
// abandoned, its applied operations stay in the stores, just like a real
// crash. Never returns.
func (r *Runtime) crashNow(torn *wal.Record) {
	if first, err := r.abandon(torn); first {
		r.crashes.Add(1)
		if err != nil {
			// A real crash gets no error handling either; record the
			// staging failure so tests surface filesystem problems.
			r.noteWALErr(err)
		}
	}
	panic(crashPanic{})
}

// fireCrash checks the crash fault site (comp, txn, step) and, when it
// fires, crashes the runtime. tearing selects the mid-WAL-append variant:
// rec is left half-written at the log tail.
func (r *Runtime) fireCrash(comp, txn, step string, rec *wal.Record) {
	if r.inj == nil || !r.inj.fire(FaultCrash, comp, txn, step) {
		return
	}
	if rec != nil && r.inj.tear() {
		r.crashNow(rec)
	}
	r.crashNow(nil)
}

// topologyToDoc serializes the runtime's topology for the WAL metadata
// record. Mode tables are written as explicit conflict pairs (the custom
// form), which decode to behaviorally identical tables.
func topologyToDoc(t *Topology) topologyJSON {
	var doc topologyJSON
	if t == nil {
		return doc
	}
	for _, s := range t.Specs {
		cj := componentJSON{Name: s.Name, Store: s.HasStore}
		if s.Modes != nil {
			pairs := s.Modes.Pairs()
			conflicts := make([][2]string, len(pairs))
			for i, p := range pairs {
				conflicts[i] = [2]string{string(p[0]), string(p[1])}
			}
			raw, err := json.Marshal(customModesJSON{Conflicts: conflicts})
			if err != nil {
				panic(fmt.Sprintf("sched: encoding modes of %q: %v", s.Name, err))
			}
			cj.Modes = raw
		}
		doc.Components = append(doc.Components, cj)
	}
	doc.Children = t.Children
	doc.Entries = t.Entries
	return doc
}
