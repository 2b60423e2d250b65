package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"compositetx/internal/model"
	"compositetx/internal/wal"
)

// Checkpointing keeps a long-running runtime's memory and recovery time
// flat: at a *cut* — a moment with no mutation half-journaled and no
// commit half-published — the runtime (1) journals the store items
// mutated since the previous cut as a checkpoint batch (TypeCkItem items
// + self-anchoring TypeCheckpoint marker), (2) empties the execution
// index's record — the certifier's engine is not touched: it drops roots
// at admission, as they retire — (3) compacts the MVCC version chains
// below the oldest active snapshot frontier, and (4) deletes WAL
// segments wholly older than the truncation barrier. Recovery (sched.Recover) then replays only the
// tail since the marker. Steps (1) and (3) walk only the stores' dirty
// sets (data.Store.DirtySnapshot), so a cut costs O(items mutated since
// the previous one), not O(items stored).
//
// The cut is a sync.RWMutex (ckState.gate): every journal-then-mutate
// window — a leaf apply, a compensation, a whole commit publication, and
// the taking of an optimistic snapshot — holds the read side, and the
// checkpoint holds the write side across [store snapshot, marker
// append, index cut]. With the gate held exclusively, every journaled
// mutation's effect is either fully in the snapshot (record LSN below
// the marker) or fully after it (LSN above) — never half of each — which
// is exactly the invariant that lets redo skip everything at or below
// the marker. Lock order: gate before the index mutex, everywhere.
//
// Base and delta batches. A batch is a *base* — every item of every
// store — when it is the first of its log (fresh, or re-attached by
// Recover), or when this cut's items together with the delta items
// journaled since the last base would reach the stores' item count;
// otherwise it is a *delta*, the dirty items only. Recovery's baseline
// is the seeds overlaid, in log order, by every ck-item below the last
// marker, so base ⊕ deltas restores what one full snapshot would; the
// amortisation rule keeps the ck-items a log retains below twice the
// item count without a tuning knob. A dirty mark is cleared only by the
// compaction that follows a durable marker (and only once the chain is
// fully compacted), so a cut that fails or crashes between batch and
// marker leaves every mark set and the next cut journals a superset.
//
// The truncation barrier protects two things the tail replay still
// needs: the last base batch with every delta after it, and the
// journaled applies of attempts that were in flight at the cut (their
// undo information; the batch contains their un-committed effects, so
// recovery must be able to invert them). The barrier is the minimum of
// the last base's first LSN and every in-flight attempt's first apply
// LSN.

// ErrOverload rejects a Submit at the admission gate while the runtime
// is above its high memory watermark; the caller should back off and
// retry once the triggered checkpoint has drained the backlog.
var ErrOverload = errors.New("sched: runtime overloaded, admission throttled")

// CheckpointConfig tunes automatic checkpointing and overload
// backpressure. The zero value disables both (manual Checkpoint calls
// still work).
type CheckpointConfig struct {
	// Every takes a checkpoint after every N commits (0 = no cadence).
	Every int
	// HighWater throttles new root admission with ErrOverload — and
	// triggers an early checkpoint — once the execution index's record or
	// the certifier's engine holds this many forest nodes (0 = none).
	// Admission re-opens once the live node count falls below HighWater/2.
	HighWater int
}

// CheckpointStats reports one completed checkpoint.
type CheckpointStats struct {
	LSN             uint64 // LSN of the checkpoint marker (0 without a WAL)
	Items           int    // TypeCkItem records journaled before the marker
	Base            bool   // the batch holds every store item, not just the dirty ones
	Roots           int    // committed roots cut from the execution index's record
	Nodes           int    // forest nodes cut from the execution index's record
	SegmentsDeleted int    // WAL segments removed by TruncateBefore
	VersionsDropped int    // MVCC versions compacted out of the stores
}

// ckGate is the consistency cut, sharded big-reader style: a reader (a
// journal+apply pair on some attempt's hot path) takes one of gateShards
// cache-line-padded RWMutexes — picked by the attempt's timestamp, so
// concurrent clients land on different lines — and the checkpoint writer
// takes them all. The happens-before structure is exactly a single
// RWMutex's; sharding only removes the reader-reader contention that a
// shared readerCount word costs on the optimistic read path.
type ckGate struct {
	shards [gateShards]paddedRWMutex
}

const gateShards = 16

type paddedRWMutex struct {
	sync.RWMutex
	_ [40]byte // pad the 24-byte RWMutex to a cache line
}

func (g *ckGate) RLock(key uint64)   { g.shards[key%gateShards].RLock() }
func (g *ckGate) RUnlock(key uint64) { g.shards[key%gateShards].RUnlock() }

// Lock acquires every shard in index order (the only writer is the
// checkpoint, serialized by ck.running, so the fixed order is deadlock-
// free against single-shard readers).
func (g *ckGate) Lock() {
	for i := range g.shards {
		g.shards[i].Lock()
	}
}

func (g *ckGate) Unlock() {
	for i := range g.shards {
		g.shards[i].Unlock()
	}
}

// ckState is the runtime's checkpoint machinery; always allocated (New),
// inert until EnableCheckpoints or an explicit Checkpoint call.
type ckState struct {
	gate ckGate // the consistency cut (see package comment above)

	cfg CheckpointConfig

	mu       sync.Mutex
	inflight map[*attempt]liveAttempt // every live attempt, from begin to finish
	snaps    map[*attempt]struct{}    // active attempts with a registered snapshot (oldest stamp in attempt.snapLow)

	// Base/delta bookkeeping, touched only inside the cut (gate.Lock).
	baseFirst uint64 // first LSN of this log's last complete base batch (0 = none yet)
	sinceBase int    // delta ck-items journaled since that base

	sinceCk  atomic.Int64 // commits since the last checkpoint
	running  atomic.Bool  // a checkpoint is in progress
	throttle atomic.Bool  // high watermark tripped; Submit rejects with ErrOverload
}

// liveAttempt is what the runtime knows of a live attempt: the clock when
// it began, below every seq it draws (the certifier's retirement
// watermark), and its first journaled-apply LSN (the truncation barrier).
type liveAttempt struct {
	lo, lsn uint64
}

func newCkState() *ckState {
	return &ckState{
		inflight: map[*attempt]liveAttempt{},
		snaps:    map[*attempt]struct{}{},
	}
}

// noteApply registers an attempt's first journaled apply; the truncation
// barrier never passes it while the attempt is live.
func (ck *ckState) noteApply(a *attempt, lsn uint64) {
	ck.mu.Lock()
	if l := ck.inflight[a]; l.lsn == 0 {
		l.lsn = lsn
		ck.inflight[a] = l
	}
	ck.mu.Unlock()
}

// low returns a seq that no live attempt but self can draw at or below:
// the clock, or the lowest begin-time clock of the others. Read under
// ck.mu, as Runtime.begin reads the clock, it stays so for every attempt
// that begins later.
func (ck *ckState) low(self *attempt, clock *atomic.Uint64) uint64 {
	ck.mu.Lock()
	w := clock.Load()
	for a, l := range ck.inflight {
		if a != self && l.lo < w {
			w = l.lo
		}
	}
	ck.mu.Unlock()
	return w
}

// noteSnap registers an optimistic attempt's snapshot stamp (keeping the
// oldest); Store.Compact never drops a version a registered snapshot may
// still need to validate against. Called under gate.RLock, so no
// snapshot can be taken while a checkpoint computes the frontier. Only
// the attempt's first snapshot read touches the shared registry — the
// running minimum lives on the attempt itself (a.snapLow, ordered by the
// gate), keeping the per-read cost off the optimistic hot path.
func (ck *ckState) noteSnap(a *attempt, ts uint64) {
	if a.snapReg {
		if ts < a.snapLow {
			a.snapLow = ts
		}
		return
	}
	a.snapReg, a.snapLow = true, ts
	ck.mu.Lock()
	ck.snaps[a] = struct{}{}
	ck.mu.Unlock()
}

// drop deregisters a finished attempt (committed or fully rolled back).
func (ck *ckState) drop(a *attempt) {
	ck.mu.Lock()
	delete(ck.inflight, a)
	delete(ck.snaps, a)
	ck.mu.Unlock()
}

// barrier returns the truncation barrier: no WAL record at or above it
// may be deleted. Called inside the cut, after a durable marker.
func (ck *ckState) barrier() uint64 {
	b := ck.baseFirst
	ck.mu.Lock()
	for _, l := range ck.inflight {
		if l.lsn != 0 && l.lsn < b {
			b = l.lsn
		}
	}
	ck.mu.Unlock()
	return b
}

// frontier returns the oldest stamp an active snapshot may still
// validate at, or def when no snapshot is registered. Called under
// gate.Lock, so the registry is complete and every registered attempt's
// snapLow is visible.
func (ck *ckState) frontier(def uint64) uint64 {
	f := def
	ck.mu.Lock()
	for a := range ck.snaps {
		if a.snapLow < f {
			f = a.snapLow
		}
	}
	ck.mu.Unlock()
	return f
}

// EnableCheckpoints installs the automatic checkpoint cadence and
// overload watermarks. Call before submitting transactions.
func (r *Runtime) EnableCheckpoints(cfg CheckpointConfig) {
	r.ck.cfg = cfg
}

// ckMeta is the TypeCheckpoint marker's Meta payload: the full runtime
// configuration (the TypeMeta record may live in a truncated segment)
// plus the cumulative state a tail replay cannot reconstruct.
type ckMeta struct {
	walMeta
	Seq         uint64         `json:"seq"`       // global clock at the cut
	Committed   int64          `json:"committed"` // cumulative commits at the cut
	Quarantines []ckQuarantine `json:"quarantines,omitempty"`
	// Schedules are those the execution index declared at the cut, which
	// the cut keeps: the recovered execution declares them too.
	Schedules []model.ScheduleID `json:"schedules,omitempty"`
}

// ckQuarantine serializes a leaked compensation for the marker, so
// pre-checkpoint quarantines survive segment truncation.
type ckQuarantine struct {
	Component string `json:"component"`
	Txn       string `json:"txn"`
	Item      string `json:"item"`
	Mode      string `json:"mode"`
	Impl      string `json:"impl,omitempty"`
	Arg       int64  `json:"arg"`
	Err       string `json:"err"`
}

// Checkpoint takes one checkpoint now: the stores' dirty items (or, for
// a base, all items) journaled as a WAL checkpoint batch, the execution
// index's record cut, MVCC chains compacted at the active-snapshot
// frontier, and segments wholly behind the truncation barrier deleted. Concurrent
// Submits keep running; they only pause for the cut itself. Returns
// (nil, nil) when another checkpoint is already in progress. A crash
// injected at the "checkpoint" fault sites surfaces as ErrCrashed, like
// any other simulated crash.
func (r *Runtime) Checkpoint() (st *CheckpointStats, err error) {
	if !r.ck.running.CompareAndSwap(false, true) {
		return nil, nil
	}
	defer r.ck.running.Store(false)
	// A FaultCrash at a checkpoint site unwinds with crashPanic (there is
	// no Submit above us to convert it).
	defer func() {
		if p := recover(); p != nil {
			if _, ok := p.(crashPanic); ok {
				st, err = nil, ErrCrashed
				return
			}
			panic(p)
		}
	}()
	if r.crashed.Load() {
		return nil, ErrCrashed
	}
	// Crash site "checkpoint:begin": before anything — recovery sees the
	// previous checkpoint (or none) untouched.
	r.fireCrash("", "checkpoint", "begin", nil)

	st = &CheckpointStats{}
	if err := r.checkpointCut(st); err != nil {
		return nil, err
	}
	// Crash site "checkpoint:end": the marker is durable, truncation has
	// happened — recovery must start from the new checkpoint.
	r.fireCrash("", "checkpoint", "end", nil)

	r.ckTaken.Add(1)
	r.ckNodesPruned.Add(int64(st.Nodes))
	r.ckSegsTruncated.Add(int64(st.SegmentsDeleted))
	r.ckVersionsDropped.Add(int64(st.VersionsDropped))
	r.ckItems.Add(int64(st.Items))
	if st.Base {
		r.ckBases.Add(1)
	}
	r.ck.sinceCk.Store(0)
	r.relieveOverload()
	return st, nil
}

// checkpointCut performs the gated section of a checkpoint. It holds the
// cut (gate.Lock) across store snapshots, the marker append, the index
// cut, and the store compaction, then truncates the log.
func (r *Runtime) checkpointCut(st *CheckpointStats) error {
	r.ck.gate.Lock()
	defer r.ck.gate.Unlock()

	// 1. Journal the batch. With the gate held exclusively no mutation is
	// half-journaled: everything already in the log is fully reflected in
	// these values, everything after the marker is not at all.
	if r.wal.attached() {
		base := r.ck.baseFirst == 0
		var items []wal.Record
		if !base {
			items = r.checkpointItems(false)
			base = r.ck.sinceBase+len(items) >= r.storeItems()
		}
		if base {
			items = r.checkpointItems(true)
		}
		blob, err := r.ckMetaBlob()
		if err != nil {
			return err
		}
		var batchFirst uint64
		if len(items) > 0 {
			if batchFirst, err = r.wal.appendBatch(items); err != nil {
				return err
			}
			if !base {
				// Counted even if the marker below fails: the records are
				// in the log and the retention bound is about the log.
				r.ck.sinceBase += len(items)
			}
		}
		// Crash site "checkpoint:marker": the items are journaled but the
		// marker is not — an incomplete checkpoint recovery must ignore.
		r.fireCrash("", "checkpoint", "marker", nil)
		markerLSN, err := r.wal.log.AppendCheckpoint(nil, wal.Record{Meta: blob})
		if err != nil {
			return crashErr(err)
		}
		if base {
			if batchFirst == 0 {
				batchFirst = markerLSN
			}
			r.ck.baseFirst, r.ck.sinceBase = batchFirst, 0
		}
		st.LSN, st.Items, st.Base = markerLSN, len(items), base
	}

	// 2. Cut the execution index's record. Everything filed is committed,
	// and every filer holds the gate's read side, so the record holds
	// exactly the commits journaled below the marker and the whole of it
	// goes. The certifier keeps the roots it has not retired.
	st.Roots, st.Nodes = r.ix.cut()

	// 3. Compact the MVCC chains. The frontier is the oldest snapshot an
	// active optimistic attempt may still validate at (snapshots register
	// under the gate's read side, so the registry is complete here); with
	// no snapshot outstanding, everything below the clock is fair game.
	// This is also where dirty marks are cleared — after the marker, so
	// an early return above leaves every journaled item marked.
	frontier := r.ck.frontier(r.seq.Load() + 1)
	for _, c := range r.comps {
		if c.store != nil {
			st.VersionsDropped += c.store.Compact(frontier)
		}
	}

	// 4. Truncate the log behind the barrier.
	if r.wal.attached() {
		n, err := r.wal.log.TruncateBefore(r.ck.barrier())
		if err != nil {
			return crashErr(err)
		}
		st.SegmentsDeleted = n
	}
	return nil
}

// checkpointItems snapshots the stores as TypeCkItem records, in
// deterministic (component, item) order: every item for a base batch,
// the dirty items for a delta.
func (r *Runtime) checkpointItems(base bool) []wal.Record {
	names := make([]string, 0, len(r.comps))
	for n, c := range r.comps {
		if c.store != nil {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	var items []wal.Record
	for _, n := range names {
		store := r.comps[n].store
		snap := store.DirtySnapshot()
		if base {
			snap = store.Snapshot()
		}
		items = itemRecords(items, wal.TypeCkItem, n, snap)
	}
	return items
}

// storeItems is the item count a base batch would journal.
func (r *Runtime) storeItems() int {
	n := 0
	for _, c := range r.comps {
		if c.store != nil {
			n += c.store.Len()
		}
	}
	return n
}

// ckMetaBlob encodes the marker's ckMeta: the static walMeta document
// built once at EnableWAL/Recover, with the cut's clock, commit count,
// quarantines and schedules spliced in as its trailing fields — byte for
// byte what json.Marshal(ckMeta{...}) writes, without re-encoding the
// topology inside the cut.
func (r *Runtime) ckMetaBlob() ([]byte, error) {
	b := make([]byte, 0, len(r.walMetaJSON)+64)
	b = append(b, r.walMetaJSON[:len(r.walMetaJSON)-1]...)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, r.seq.Load(), 10)
	b = append(b, `,"committed":`...)
	b = strconv.AppendInt(b, r.commits.Load(), 10)
	leaked := r.leaks.all()
	qs := make([]ckQuarantine, 0, len(leaked))
	for _, q := range leaked {
		qs = append(qs, ckQuarantine{
			Component: q.Component, Txn: q.Txn,
			Item: q.Op.Item, Mode: string(q.Op.Mode), Impl: string(q.Op.Impl),
			Arg: q.Op.Arg, Err: q.Err.Error(),
		})
	}
	if len(qs) > 0 {
		qb, err := json.Marshal(qs)
		if err != nil {
			return nil, err
		}
		b = append(b, `,"quarantines":`...)
		b = append(b, qb...)
	}
	r.ix.mu.Lock()
	if len(r.ix.scheds) > 0 {
		sb, _ := json.Marshal(r.ix.scheds) // a string slice always encodes
		b = append(append(b, `,"schedules":`...), sb...)
	}
	r.ix.mu.Unlock()
	return append(b, '}'), nil
}

// maybeCheckpoint runs the automatic cadence after a commit: a
// checkpoint every cfg.Every commits, or immediately when a watermark
// trips. Runs on the committing goroutine; concurrent commits skip out
// via the running flag.
func (r *Runtime) maybeCheckpoint() {
	cfg := r.ck.cfg
	if cfg.Every <= 0 && cfg.HighWater <= 0 {
		return
	}
	n := r.ck.sinceCk.Add(1)
	due := cfg.Every > 0 && n >= int64(cfg.Every)
	if !due && cfg.HighWater > 0 && r.ix.live() >= cfg.HighWater {
		r.ck.throttle.Store(true)
		due = true
	}
	if !due {
		// The certifier's engine drops roots at admission, between cuts.
		r.relieveOverload()
		return
	}
	// Checkpoint handles its own crash conversion; an error here is
	// recorded (the cadence retries at the next commit).
	if _, err := r.Checkpoint(); err != nil && !errors.Is(err, ErrCrashed) {
		r.noteWALErr(err)
	}
}

// relieveOverload re-checks the watermark after a commit or checkpoint
// and lifts the admission throttle once the backlog has drained below
// HighWater/2.
func (r *Runtime) relieveOverload() {
	if !r.ck.throttle.Load() {
		return
	}
	cfg := r.ck.cfg
	if cfg.HighWater > 0 && r.ix.live() >= cfg.HighWater/2 {
		return
	}
	r.ck.throttle.Store(false)
}

// admit is Submit's backpressure gate: above the high watermark new
// roots are rejected with ErrOverload until a checkpoint drains the
// backlog below HighWater/2.
func (r *Runtime) admit() error {
	if r.ck.throttle.Load() {
		r.overloadThrottles.Add(1)
		return fmt.Errorf("sched: admission of new roots suspended above the high watermark: %w", ErrOverload)
	}
	return nil
}

// Checkpoints returns the number of completed checkpoints.
func (r *Runtime) Checkpoints() int64 { return r.ckTaken.Load() }

// Throttled reports whether the overload gate is currently rejecting new
// roots.
func (r *Runtime) Throttled() bool { return r.ck.throttle.Load() }
