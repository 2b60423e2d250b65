// Package data provides the semantic data stores the runtime components
// operate on: an in-memory multi-version map of named 64-bit integers
// supporting read, write, increment and bounded escrow reserve/release,
// together with commutativity specifications (mode tables) and inverse
// operations for compensation.
//
// Semantic commutativity is the lever the composite model exploits: a
// schedule that knows two of its operations commute (e.g. two increments)
// may interleave them freely and vouches for that commutativity upward
// (Definition 10). The mode tables here define exactly which operations a
// component declares as conflicting.
//
// Each item keeps a chain of committed versions stamped with a store-wide
// commit timestamp (O(1) append, binary-search read-at-timestamp), so a
// snapshot reader can observe a consistent committed prefix without ever
// blocking a writer; the optimistic scheduler (internal/sched) validates
// such reads at commit time with ConflictSince.
package data

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Mode names the semantic class of an operation; components use modes for
// conflict declaration and locking.
type Mode string

// The built-in modes of the integer store.
const (
	ModeRead  Mode = "read"
	ModeWrite Mode = "write"
	ModeIncr  Mode = "incr" // increment/decrement by a delta
	// ModeReserve is the escrow-counter decrement: it subtracts Arg from
	// the item but fails with ErrInsufficient (mutating nothing) if the
	// result would go negative. Successful reserves commute with each
	// other — see EscrowCounterTable for the derived conflict table.
	ModeReserve Mode = "reserve"
	// ModeRelease returns Arg units to an escrow counter (the inverse of
	// a successful reserve). Releases commute with each other.
	ModeRelease Mode = "release"
)

// ErrInsufficient rejects a reserve that would drive an escrow counter
// below zero. The store state is untouched; the scheduler surfaces it to
// the client as an application-level failure, not a retryable fault.
var ErrInsufficient = errors.New("data: insufficient escrow balance")

// Op is one operation against a store.
//
// Mode is the operation's *semantic* class — what the component's conflict
// table and lock manager see. Impl, when set, is the physical
// implementation the store executes (one of the built-in modes); this is
// how domain-specific modes work: a "deposit" and a "withdraw" can both be
// implemented as increments while carrying different conflict semantics
// (see EscrowTable).
type Op struct {
	Mode Mode
	Item string
	Arg  int64 // write value, increment delta, or escrow amount
	Impl Mode  // physical implementation; empty means Mode itself
}

// Physical returns the mode the store executes: Impl when set, otherwise
// Mode itself.
func (o Op) Physical() Mode {
	if o.Impl != "" {
		return o.Impl
	}
	return o.Mode
}

func (o Op) String() string {
	switch o.Mode {
	case ModeRead:
		return fmt.Sprintf("read(%s)", o.Item)
	case ModeWrite:
		return fmt.Sprintf("write(%s,%d)", o.Item, o.Arg)
	case ModeIncr:
		return fmt.Sprintf("incr(%s,%+d)", o.Item, o.Arg)
	case ModeReserve:
		return fmt.Sprintf("reserve(%s,%d)", o.Item, o.Arg)
	case ModeRelease:
		return fmt.Sprintf("release(%s,%d)", o.Item, o.Arg)
	default:
		return fmt.Sprintf("%s(%s,%d)", o.Mode, o.Item, o.Arg)
	}
}

// Result is the outcome of applying an operation.
type Result struct {
	Value int64  // value read, written, or the post-mutation value
	Prev  int64  // value before the operation (for compensation)
	TS    uint64 // version stamp of the installed version (0 for reads)
}

// version is one value of an item, stamped with the store-wide timestamp
// allocated when it was installed. Mode is the semantic class of the
// creating operation — what validation checks a snapshot read against —
// and owner tags it with the root transaction that installed it until the
// owner's attempt resolves (Retire); "" = final, e.g. setup, recovery, or
// a resolved attempt. Versions are installed eagerly at apply time, so a
// snapshot is only a *committed* prefix once validation confirms no
// conflicting version in it is still tagged.
type version struct {
	ts    uint64
	val   int64
	mode  Mode
	owner string

	// retired is the stamp at which the installing attempt resolved:
	// allocated by Retire from the same counter as version stamps, or
	// equal to ts for versions installed with no owner (immediately
	// final). 0 means the attempt is still unresolved. Because an attempt
	// installs nothing after it retires, retired upper-bounds every stamp
	// the owner ever allocated — the fact CheckRead's validation-point
	// rule is built on.
	retired uint64

	// pair and undone link a compensation to the version it undoes (set
	// by ApplyUndo): on the compensation, pair is the undone version's
	// stamp; on the undone version, undone is the compensation's stamp.
	// A netted pair has no recorded events and no net effect, so it only
	// invalidates a snapshot it straddles.
	pair   uint64
	undone uint64
}

// Store is a concurrency-safe multi-version map of named integers. Every
// mutation appends a version stamped from the store's clock; readers can
// either read the latest value (Apply with a read op, Get) or a consistent
// committed prefix as of an earlier stamp (Clock + ReadAt). The store
// itself only guarantees per-operation atomicity; transactional isolation
// is the scheduler's job (internal/sched).
type Store struct {
	mu     sync.RWMutex
	chains map[string][]version

	// tagged indexes, per owner, the versions still tagged as in-flight
	// (installed by ApplyAs, not yet Retired) so Retire need not scan
	// every chain. A list Retire empties goes to spare and serves the next
	// owner's first install, so a warm store tags without allocating. The
	// spares sit in a fixed array, so keeping one never allocates either;
	// a list past the array, or longer than maxSpareTags, is dropped. Four
	// cover as many roots retiring between two first installs.
	tagged map[string][]chainRef
	spare  [4][]chainRef
	spares int

	// dirty marks the items whose chain grew since Compact last left it
	// fully compacted (a single resolved version). Every installing
	// applyVersion and Set marks; only Compact clears. The runtime's
	// checkpoint reads the set twice under one cut: DirtySnapshot names
	// the items a delta batch must journal, and Compact walks the same
	// items — so a checkpoint costs O(items mutated since the previous
	// one), not O(items stored).
	dirty map[string]struct{}

	// clock is the stamp of the newest installed version. It is updated
	// under mu *after* the version is in its chain, so a reader that
	// loads clock=T without the mutex is guaranteed every version with
	// stamp <= T is visible under RLock — the consistent-prefix
	// invariant snapshot reads rely on.
	clock atomic.Uint64

	// stamps allocates version stamps, always inside the write critical
	// section so per-store stamp order equals install order. It defaults
	// to the private counter below; UseClock points it at a shared
	// counter (the runtime's global event sequence) so version stamps
	// and recorded conflict order are measured on one clock.
	stamps *atomic.Uint64
	local  atomic.Uint64

	// applied counts operations, for tests and metrics.
	applied atomic.Int64

	// hook, when set, runs before every Apply and may veto it with an
	// error (the fault-injection seam; see SetApplyHook).
	hook atomic.Pointer[func(Op) error]

	// resolve is the channel ResolveWait handed out since the last Retire
	// (nil = none): a validator blocked on an in-flight writer parks on it
	// instead of polling, and the next Retire closes it. A Retire nobody
	// waits on makes no channel.
	resolve chan struct{}
}

// chainRef locates a tagged version by item and stamp (stamps are stable
// across Compact; indexes are not).
type chainRef struct {
	item string
	ts   uint64
}

// maxSpareTags bounds the length of a tag list Store keeps for reuse, so
// one large transaction does not pin its list for the store's lifetime.
const maxSpareTags = 256

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{
		chains: make(map[string][]version),
		tagged: make(map[string][]chainRef),
		dirty:  make(map[string]struct{}),
	}
	s.stamps = &s.local
	return s
}

// UseClock makes the store allocate version stamps from c instead of its
// private counter. The runtime points every component store at its global
// event-sequence counter, so a version's stamp doubles as the conflict
// sequence number of the event that installed it — validation (version
// order) and certification (event order) then agree by construction.
// Must be called before the store's first Apply.
func (s *Store) UseClock(c *atomic.Uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stamps = c
}

// SetApplyHook installs h to run before every Apply; a non-nil error
// from h fails the Apply without touching the store. This is the
// fault-injection seam: the scheduler's chaos layer (and tests) use it
// to make the store behave like a backend that can fail any call.
// Pass nil to remove the hook.
//
// h runs *outside* the store mutex (before it is taken), so a hook may
// call back into the store — and, crucially, a slow or wedged hook never
// blocks concurrent snapshot reads or other appliers.
func (s *Store) SetApplyHook(h func(Op) error) {
	if h == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&h)
}

// Apply executes the operation atomically and returns its result. For
// mutations the result carries the stamp of the version installed. The
// version is owned by nobody — it is immediately final to snapshot
// readers; transactional appliers use ApplyAs.
func (s *Store) Apply(op Op) (Result, error) { return s.ApplyAs(op, "") }

// ApplyAs is Apply with the installed version tagged by the root
// transaction executing it. Validation (CheckRead) treats a conflicting
// version whose tag has not been Retired as a dirty read — the tag is
// what lets a snapshot be certified as a committed prefix.
func (s *Store) ApplyAs(op Op, owner string) (Result, error) {
	return s.applyVersion(op, owner, 0)
}

// ApplyUndo applies a compensating operation and links the installed
// version to the version (stamp `undoes`) it compensates. CheckRead uses
// the link to recognize netted pairs: a rolled-back operation and its
// compensation cancel out and contribute no recorded events, so together
// they only invalidate a snapshot taken strictly between them.
func (s *Store) ApplyUndo(op Op, owner string, undoes uint64) (Result, error) {
	res, err := s.applyVersion(op, owner, undoes)
	if err != nil || undoes == 0 {
		return res, err
	}
	s.mu.Lock()
	chain := s.chains[op.Item]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].ts >= undoes })
	if i < len(chain) && chain[i].ts == undoes {
		chain[i].undone = res.TS
	}
	s.mu.Unlock()
	return res, err
}

func (s *Store) applyVersion(op Op, owner string, pair uint64) (Result, error) {
	if h := s.hook.Load(); h != nil {
		if err := (*h)(op); err != nil {
			return Result{}, err
		}
	}
	if op.Physical() == ModeRead {
		s.mu.RLock()
		prev := tailVal(s.chains[op.Item])
		s.mu.RUnlock()
		s.applied.Add(1)
		return Result{Value: prev, Prev: prev}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	chain := s.chains[op.Item]
	prev := tailVal(chain)
	next := prev
	switch op.Physical() {
	case ModeWrite:
		next = op.Arg
	case ModeIncr:
		next = prev + op.Arg
	case ModeReserve:
		if op.Arg < 0 {
			return Result{}, fmt.Errorf("data: negative reserve amount %d", op.Arg)
		}
		if prev-op.Arg < 0 {
			return Result{}, fmt.Errorf("data: reserve(%s,%d) over balance %d: %w",
				op.Item, op.Arg, prev, ErrInsufficient)
		}
		next = prev - op.Arg
	case ModeRelease:
		if op.Arg < 0 {
			return Result{}, fmt.Errorf("data: negative release amount %d", op.Arg)
		}
		next = prev + op.Arg
	default:
		return Result{}, fmt.Errorf("data: unknown mode %q", op.Physical())
	}
	ts := s.stamps.Add(1)
	v := version{ts: ts, val: next, mode: op.Mode, owner: owner, pair: pair}
	if owner == "" {
		v.retired = ts // no attempt to wait for: final on arrival
	} else {
		refs := s.tagged[owner]
		if len(refs) == 0 && s.spares > 0 {
			s.spares--
			refs, s.spare[s.spares] = s.spare[s.spares], nil
		}
		s.tagged[owner] = append(refs, chainRef{item: op.Item, ts: ts})
	}
	s.chains[op.Item] = append(chain, v)
	s.dirty[op.Item] = struct{}{}
	s.clock.Store(ts)
	s.applied.Add(1)
	return Result{Value: next, Prev: prev, TS: ts}, nil
}

// Retire finalizes every version owner installed since its last Retire:
// the owner's attempt has committed, or has fully rolled back (in which
// case its versions and their compensations net out and none of its
// events will be recorded) — either way the owner issues no further
// operations under that attempt, so its versions stop counting as dirty
// to snapshot validation. The scheduler calls this at root commit and
// after root-level compensation.
//
// Retirement is *stamped* from the same counter as version stamps, so
// "did this writer resolve before my validation point" is a pure stamp
// comparison — a fact that cannot change between one chain scan and the
// next. That is what makes a per-read validation pass sound without
// freezing the store: the pass's verdicts reference stamps, not wall
// clocks, so a writer resolving mid-pass cannot slip one operation
// before an already-checked read and another after it.
func (s *Store) Retire(owner string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs := s.tagged[owner]
	if len(refs) == 0 {
		delete(s.tagged, owner)
		return
	}
	rts := s.stamps.Add(1)
	for _, ref := range refs {
		chain := s.chains[ref.item]
		i := sort.Search(len(chain), func(i int) bool { return chain[i].ts >= ref.ts })
		if i < len(chain) && chain[i].ts == ref.ts {
			chain[i].owner = ""
			chain[i].retired = rts
		}
	}
	delete(s.tagged, owner)
	if s.spares < len(s.spare) && cap(refs) <= maxSpareTags {
		clear(refs) // the kept list pins no item name
		s.spare[s.spares] = refs[:0]
		s.spares++
	}
	if s.resolve != nil {
		close(s.resolve)
		s.resolve = nil
	}
}

// ResolveWait returns a channel closed at the next Retire. A validator
// that found a dirty read re-checks after obtaining the channel (so a
// resolution between check and wait is not lost) and then parks on it
// instead of polling.
func (s *Store) ResolveWait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resolve == nil {
		s.resolve = make(chan struct{})
	}
	return s.resolve
}

// Clock returns the stamp of the newest installed version. Lock-free.
func (s *Store) Clock() uint64 { return s.clock.Load() }

// StableRead returns item's value at its *stable frontier* — the largest
// stamp S such that every version of item with stamp <= S is resolved
// (retired, or installed ownerless) — together with S itself, ignoring
// versions tagged by exclude. This is the snapshot an optimistic reader
// takes. Versions install eagerly at apply time, so the raw Clock may sit
// above uncommitted effects; reading at the per-item frontier instead
// means a snapshot never contains an unresolved version, so
// validate-at-commit only ever waits on writers of *this* item — at
// worst the snapshot is stale (a commit landed above the frontier),
// which a refresh repairs for the cost of a re-read. The frontier is
// per-item, not store-wide: a writer parked on one item must not freeze
// readers of every other item below commits they could otherwise absorb.
// Excluding the reader's own tag keeps a mixed read/write transaction's
// own in-flight installs from dragging its read frontier backwards.
func (s *Store) StableRead(item, exclude string) (int64, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.chains[item]
	for i := range chain {
		v := chain[i]
		if v.retired == 0 && v.owner != exclude {
			// First unresolved foreign version: the frontier sits just
			// below it. Everything before it in the chain is resolved (or
			// the reader's own), so chain[i-1] is the frontier value.
			if i == 0 {
				return 0, v.ts - 1
			}
			return chain[i-1].val, v.ts - 1
		}
	}
	// Fully resolved chain: the store clock is a valid frontier for this
	// item (every version of it is <= clock and resolved).
	return tailVal(chain), s.clock.Load()
}

// ReadAt returns the value of item as of stamp ts: the newest version
// with stamp <= ts, or 0 if the item had no version yet. It takes only
// the read lock and never blocks on (or is blocked by) version installs
// beyond the append itself.
func (s *Store) ReadAt(item string, ts uint64) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.chains[item]
	i := sort.Search(len(chain), func(i int) bool { return chain[i].ts > ts })
	if i == 0 {
		return 0
	}
	return chain[i-1].val
}

// Validity classifies a snapshot read at validate-at-commit time.
type Validity int

const (
	// ReadValid: the snapshot read is indistinguishable from a locked
	// read — no conflicting version after the snapshot, nothing dirty
	// inside it.
	ReadValid Validity = iota
	// ReadStale: a resolved conflicting version exists after the
	// snapshot (or a netted pair straddles it); the read can never
	// become valid again — abort and retry with a fresh snapshot.
	ReadStale
	// ReadDirty: the only problem is a conflicting version still tagged
	// by an unresolved attempt. Its owner will shortly commit (turning
	// the read stale or leaving it valid, depending on where the version
	// sits) or roll back (netting the version out); the caller may wait
	// briefly and re-check instead of burning a full re-execution.
	ReadDirty
)

// ConflictSince reports whether any version of item with stamp > since
// was created by an operation whose semantic mode conflicts with mode
// under t, skipping stamps in skip (the validating transaction's own
// installs). This is the classic validate-at-commit primitive; CheckRead
// is the full verdict the optimistic scheduler uses (ConflictSince checks
// at an unbounded validation point, so every installed version counts).
func (s *Store) ConflictSince(item string, since uint64, mode Mode, t *ModeTable, skip map[uint64]bool) bool {
	v, _ := s.CheckRead(item, since, ^uint64(0), 0, mode, t, skip, "", nil)
	return v != ReadValid
}

// CheckRead is the validate-at-commit check for a snapshot read of item
// at stamp since in semantic mode under table t, on behalf of root self,
// against validation point vpoint (a stamp the validator allocated from
// the shared counter before the pass; every stamp the validating
// transaction's recorded read events carry is below it). The read is
// ReadValid exactly when, considering only versions conflicting with mode
// (per t) and stamped <= vpoint, every one of them either
//
//   - sits inside the snapshot (stamp <= since) with retired <= vpoint:
//     the read saw it and its writer fully resolved before the validation
//     point, so no later operation of that writer can land behind this
//     reader; or
//   - belongs to a netted pair (a rolled-back operation and its linked
//     compensation, see ApplyUndo) that does not straddle the snapshot: no
//     net effect, no recorded events, invisible to the read.
//
// Otherwise the read is
//
//   - ReadDirty if the offending version is still unresolved (retired ==
//     0): its owner may yet commit or roll back, so the verdict can still
//     improve — the caller may briefly wait it out; or
//   - ReadStale: a resolved conflicting version landed after the snapshot,
//     a netted pair straddles it (the read saw an effect that was rolled
//     back out from under it), or a version the read *did* see retired
//     after vpoint — the snapshot cannot be serialized at this validation
//     point, and the caller must take a fresh snapshot (and a fresh
//     vpoint) or abort. Stale takes precedence over dirty.
//
// Versions stamped above vpoint are ignored entirely: they are ordered
// after the validation point on the shared clock, hence after every read
// event of the validating transaction — an order consistent with the read
// not having seen them.
//
// The retired-<=-vpoint rule on *seen* versions is what closes the
// spanning-writer hole that per-read checks are classically blind to: a
// writer with one conflicting operation inside the snapshot and another
// on a different item after it would serialize the reader strictly
// between two operations of one transaction. Because retirement is
// stamped after a writer's every install, such a writer either retired
// <= vpoint (then its other operation is also < vpoint and the rule for
// that item's read catches it) or retired after vpoint — caught here.
// All verdict-relevant facts (stamps, retirement stamps, pair links) are
// immutable once set, so a ReadValid verdict cannot be invalidated by
// anything that happens after the scan — per-read passes compose into a
// sound whole without freezing the store.
//
// readSeq, when non-zero, is the recorded sequence number of the read
// event and enables the *serialize-before claim*: the validator may
// commit past an unresolved conflicting version stamped above readSeq —
// the recorded order (read before write) already matches the read not
// having seen it, and the claimed-past writer's every later operation
// gets a larger stamp still. Whether a particular claim is sound depends
// on state the store cannot see (the scheduler's commit seal order, see
// sched.Runtime.validate), so the caller supplies it as the claim
// callback: a claim is taken only when claim(owner) allows it. claim is
// invoked under the store's read lock — it must not call back into the
// store. A nil claim disables claiming entirely.
//
// Stamps in skip and versions owned by self (the validating transaction's
// own installs) never invalidate. The scan covers the whole chain because
// commuting writers (e.g. two increments) are not serialized against each
// other, so a tagged conflicting version can sit beneath resolved ones.
//
// On ReadDirty the second return value names the unresolved owner the
// verdict is waiting on (callers use it to orient bounded waits); it is
// "" otherwise.
func (s *Store) CheckRead(item string, since, vpoint, readSeq uint64, mode Mode, t *ModeTable, skip map[uint64]bool, self string, claim func(owner string) bool) (Validity, string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	verdict := ReadValid
	blocker := ""
	chain := s.chains[item]
	for i := len(chain) - 1; i >= 0; i-- {
		v := chain[i]
		if v.ts > vpoint {
			continue // ordered after the validation point
		}
		if skip[v.ts] || (self != "" && v.owner == self) || !t.ModeConflicts(v.mode, mode) {
			continue
		}
		if v.pair != 0 {
			// A compensation: stale only if the netted pair straddles the
			// snapshot (the read saw the undone effect but not the undo).
			if v.pair <= since && v.ts > since {
				return ReadStale, ""
			}
			continue
		}
		if v.undone != 0 {
			// The rolled-back half of a netted pair. The straddle check
			// repeats here because the compensation itself may be stamped
			// above vpoint and skipped by the first rule.
			if v.ts <= since && v.undone > since {
				return ReadStale, ""
			}
			continue
		}
		if v.retired == 0 {
			if readSeq != 0 && v.ts > readSeq && claim != nil && claim(v.owner) {
				// Serialize-before claim: the version (and every later
				// operation of its owner) is recorded after the read.
				continue
			}
			// In flight: may yet commit (stale) or roll back (netted).
			verdict, blocker = ReadDirty, v.owner
			continue
		}
		if v.ts > since {
			return ReadStale, "" // resolved conflicting effect the snapshot missed
		}
		if v.retired > vpoint {
			return ReadStale, "" // seen, but its writer resolved after the validation point
		}
	}
	return verdict, blocker
}

// VersionCount returns the number of versions item currently retains.
func (s *Store) VersionCount(item string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chains[item])
}

// Compact garbage-collects the version chains of the dirty items below
// keepFrom, returning the number of versions dropped. A clean item's
// chain is a single resolved version already, so walking the dirty set
// drops exactly what a walk over every chain would. Safe to run
// concurrently with readers and writers; callers must not hold snapshots
// older than keepFrom (the runtime derives keepFrom from its
// active-snapshot frontier).
//
// Only a *prefix* of each chain is dropped, and a version is droppable
// only when both its install stamp and its retirement stamp sit strictly
// below keepFrom. That preserves every fact a concurrent validation pass
// can still reach: an unresolved version (retired == 0) survives, as
// does one whose writer resolved late (CheckRead's retired-after-vpoint
// staleness rule needs it — every active validator's vpoint is at least
// its snapshot stamp, hence at least keepFrom), and everything above the
// first such version survives with it because dropping stops there. The
// newest droppable version is retained as the chain base: it carries the
// value StableRead reports just below an unresolved version and the
// value ReadAt falls back to at the frontier.
//
// The survivors shift down inside the chain's own backing array, so the
// chain keeps its capacity for the versions the next commits append.
//
// An item's mark is cleared once its chain is down to one resolved
// version: nothing is left to drop until the next mutation marks it
// again. An item a live attempt or an old snapshot still pins stays
// marked, and a later Compact (and DirtySnapshot) revisits it.
func (s *Store) Compact(keepFrom uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for item := range s.dirty {
		chain := s.chains[item]
		cut := 0
		for cut < len(chain) {
			v := chain[cut]
			if v.ts >= keepFrom || v.retired == 0 || v.retired >= keepFrom {
				break
			}
			cut++
		}
		// Keep the newest droppable version as the chain base.
		cut--
		if cut > 0 {
			n := copy(chain, chain[cut:])
			clear(chain[n:])
			chain = chain[:n]
			s.chains[item] = chain
			dropped += cut
		}
		if len(chain) == 1 && chain[0].retired != 0 {
			delete(s.dirty, item)
		}
	}
	return dropped
}

// Get reads an item without counting as an operation (for tests/metrics).
func (s *Store) Get(item string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return tailVal(s.chains[item])
}

// Set overwrites an item without counting as an operation (for setup).
// The new value is installed as a regular stamped version.
func (s *Store) Set(item string, v int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.stamps.Add(1)
	s.chains[item] = append(s.chains[item], version{ts: ts, val: v, mode: ModeWrite, retired: ts})
	s.dirty[item] = struct{}{}
	s.clock.Store(ts)
}

// Snapshot copies the store's current contents (for WAL baselines and
// conservation assertions).
func (s *Store) Snapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.chains))
	for k, chain := range s.chains {
		out[k] = tailVal(chain)
	}
	return out
}

// DirtySnapshot copies the current values of the dirty items: those
// mutated since Compact last left their chain fully compacted. It is the
// delta a checkpoint journals; the caller excludes mutators (the
// runtime's cut) from here until the Compact that clears the marks, so
// no value changes between being journaled and being unmarked.
func (s *Store) DirtySnapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.dirty))
	for k := range s.dirty {
		out[k] = tailVal(s.chains[k])
	}
	return out
}

// Len returns the number of items the store holds.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chains)
}

// Applied returns the number of operations applied.
func (s *Store) Applied() int64 { return s.applied.Load() }

func tailVal(chain []version) int64 {
	if n := len(chain); n > 0 {
		return chain[n-1].val
	}
	return 0
}

// Inverse returns the compensating operation that undoes op given its
// result, or ok=false when no compensation is needed (reads).
//
// The inverse preserves the original operation's semantic Mode (and its
// Impl, adjusted where the physical action itself must flip): a
// compensated deposit is still a deposit to the lock manager, the
// certifier and the version chain — not a bare increment — so conflict
// classification of the compensation matches the operation it undoes.
//
// Increments are compensated by the opposite increment — the open-nested
// commutative undo — while writes are compensated by restoring the
// previous value, which is only correct if no later write intervened;
// write modes therefore must be declared conflicting in every mode table.
// A reserve is undone by releasing the same amount; a release is undone
// by re-reserving it, which can fail with ErrInsufficient if the funds
// were consumed in between — the compensation ladder's quarantine path
// handles that leak.
func Inverse(op Op, res Result) (Op, bool) {
	inv := Op{Mode: op.Mode, Item: op.Item, Impl: op.Impl}
	switch op.Physical() {
	case ModeRead:
		return Op{}, false
	case ModeWrite:
		inv.Arg = res.Prev
	case ModeIncr:
		inv.Arg = -op.Arg
	case ModeReserve:
		inv.Arg = op.Arg
		inv.Impl = ModeRelease
	case ModeRelease:
		inv.Arg = op.Arg
		inv.Impl = ModeReserve
	default:
		return Op{}, false
	}
	return inv, true
}
