package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// A component is the paper's unit: a scheduler — its semantic lock
// manager over its own conflict declaration — and, when it owns data, a
// store. Its leaf path lives here: the lock space an operation is locked
// under, the write-ahead apply, and the undo step with its retry and
// quarantine. The path has two callers. The Runtime's scheduler (tx.go)
// adds the checkpoint gate, the crash sites, fault injection and MVCC
// owner tags; a cluster Participant's message handlers (participant.go)
// add dedup, staleness and two-phase commit. Both nodes' recoveries run
// the undo step too (storeLog.undo). The Coordinator keeps only the
// stateless view newComponent builds: name, modes and whether a store
// exists.
type component struct {
	name     string
	modes    *data.ModeTable
	hasStore bool
	store    *data.Store  // nil without a store, and in the coordinator's view
	lm       *lockManager // nil in the coordinator's view

	// holdToRoot marks a join point: under the Hybrid protocol, locks at
	// this component are owned by the root and held to root commit.
	holdToRoot bool
}

// newComponent builds the component spec declares, without state; nil
// Modes means data.SemanticTable.
func newComponent(spec ComponentSpec) *component {
	modes := spec.Modes
	if modes == nil {
		modes = data.SemanticTable()
	}
	return &component{name: spec.Name, modes: modes, hasStore: spec.HasStore}
}

// local gives c what a component running on this node owns: its lock
// manager, whose waiters drain once crashed is set, and its store.
func (c *component) local(crashed *atomic.Bool) *component {
	c.lm = newLockManager()
	c.lm.crashed = crashed
	if c.hasStore {
		c.store = data.NewStore()
	}
	return c
}

// rwTable is the classical read/write conflict declaration Global2PL
// locks under (read-only after construction, so shared).
var rwTable = data.RWTable()

// lockSpace picks the table and mode a store operation is locked under
// at c (a nil table takes no lock): c's semantic table for the nested
// protocols, physical read/write locks under Global2PL (an increment, like
// any mode that is not physically a read, is a read-modify-write), and
// nothing under NoCC.
func (c *component) lockSpace(protocol Protocol, op data.Op) (*data.ModeTable, data.Mode) {
	switch protocol {
	case Global2PL:
		if op.Physical() == data.ModeRead {
			return rwTable, data.ModeRead
		}
		return rwTable, data.ModeWrite
	case NoCC:
		return nil, op.Mode
	}
	return c.modes, op.Mode
}

// writeAhead applies mutation op to c's store, write-ahead: rec, its
// apply record with the before-value recovery inverts it by, is journaled
// through j first, and a store refusal appends the TypeApplyFail that
// cancels it, so recovery never replays an apply that did not happen.
// owner tags the installed version ("" installs it final). lsn is rec's
// position, 0 when j is volatile; a journal failure returns lsn 0 with
// nothing applied.
func (c *component) writeAhead(j journal, rec *wal.Record, op data.Op, owner string) (lsn uint64, res data.Result, err error) {
	if lsn, err = j.append(*rec); err != nil {
		return 0, res, err
	}
	if res, err = c.store.ApplyAs(op, owner); err != nil && lsn != 0 {
		// The store's refusal is what the caller reports; a log that
		// cannot take the cancellation is dead, and recovery's problem.
		_, _ = j.append(wal.Record{Type: wal.TypeApplyFail, Txn: rec.Txn, Ref: lsn})
	}
	return lsn, res, err
}

// compensationRetries bounds the re-attempts of one failing compensation
// before the operation is quarantined.
const compensationRetries = 3

// undoEntry is one operation an attempt applied at a component, with what
// Inverse needs and the LSN of its apply record (0 = not journaled).
type undoEntry struct {
	comp *component
	op   data.Op
	res  data.Result
	lsn  uint64
}

// compRecord is the record journaling u's compensation; false when the
// operation has no inverse (a read).
func (u *undoEntry) compRecord(txn string) (wal.Record, bool) {
	inv, ok := data.Inverse(u.op, u.res)
	return compRecord(txn, u.comp.name, inv, u.lsn), ok
}

// revert is the undo step, after the caller has journaled the
// compensation: u's inverse is applied at its component (owner tags it),
// and a failing one is retried with backoff up to compensationRetries
// times — inj, when set, may fail each try at the FaultCompensation site.
// One that still fails is quarantined: a TypeQuarantine record (for a
// journaled apply) supersedes the journaled compensation, so recovery
// keeps the forward effect and re-reports it, and lk reports the leak.
// Never panics: a faulted rollback must not take the node down with it.
func (u *undoEntry) revert(txn, owner string, j journal, inj *injector, lk *leaks) {
	inv, ok := data.Inverse(u.op, u.res)
	if !ok {
		return
	}
	var err error
	for try := 0; try <= compensationRetries; try++ {
		if try > 0 {
			time.Sleep(time.Duration(try) * 50 * time.Microsecond)
		}
		if inj.fire(FaultCompensation, u.comp.name, txn, "") {
			err = fmt.Errorf("sched: compensation fault at %q: %w", u.comp.name, ErrInjected)
			continue
		}
		if _, err = u.comp.store.ApplyUndo(inv, owner, u.res.TS); err == nil {
			return
		}
	}
	if u.lsn != 0 {
		// Best effort, like the rollback it ends: the leak is reported
		// whether or not the log still takes records.
		_, _ = j.append(wal.Record{Type: wal.TypeQuarantine, Txn: txn, Ref: u.lsn})
	}
	lk.report(Quarantine{Component: u.comp.name, Txn: txn, Op: u.op, Err: err})
}

// leaks is a node's report of its quarantined compensations, in the order
// they leaked (recovery re-reports the logged ones first).
type leaks struct {
	mu   sync.Mutex
	list []Quarantine
}

func (l *leaks) report(q Quarantine) {
	l.mu.Lock()
	l.list = append(l.list, q)
	l.mu.Unlock()
}

// all returns the report so far. Entries are never rewritten and the
// slice is capped at its length, so a later report never shows through.
func (l *leaks) all() []Quarantine {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.list[:len(l.list):len(l.list)]
}
