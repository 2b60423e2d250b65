// Package sched is the prototype composite system the paper announces: a
// runtime of transactional components, each with its own scheduler,
// connected in an arbitrary acyclic invocation graph and exercised by
// concurrent client transactions (goroutines).
//
// Each component owns a semantic lock manager (its local scheduler) and
// optionally a data store. A transaction is a tree-shaped program: leaf
// operations execute on the component's store, invocation steps delegate a
// subtransaction to a child component (Definition 4's delegation). Three
// concurrency-control disciplines from the paper's implementation-strategy
// discussion are provided, plus an intentionally broken one:
//
//   - OpenNested — CC scheduling [ABFS97, AFPS99] / open nested
//     transactions [BSW88, Sch96]: each component serializes its own
//     operations with semantic locks; a subtransaction's locks are
//     released when it commits at its component, and the caller retains
//     only its own semantic lock on the operation. Maximum concurrency.
//   - ClosedNested — Moss-style closed nesting [Mos88, GR93]: all locks
//     are inherited upward and held until the root commits.
//   - Global2PL — the monolithic baseline: a single global strict-2PL
//     lock manager over leaf items with read/write modes only; component
//     structure and semantic commutativity are ignored.
//   - NoCC — no concurrency control at all; used to demonstrate that the
//     checker (internal/front) detects the resulting incorrect executions.
//
// Every run records the committed execution and can assemble it into a
// model.System for the Comp-C checker; the integration tests assert that
// the three real protocols only produce correct composite executions.
package sched

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compositetx/internal/data"
)

// Protocol selects the concurrency-control discipline.
type Protocol int

const (
	// OpenNested is semantic locking with early release (CC scheduling).
	OpenNested Protocol = iota
	// ClosedNested holds all locks to root commit.
	ClosedNested
	// Global2PL is flat strict two-phase locking over leaf items.
	Global2PL
	// Hybrid is open nesting with closed-nested (root-held) locks at join
	// points — components invoked by more than one client component. Pure
	// open nesting is unsound in general configurations (transactions
	// sharing no schedule can interfere through a shared component, the
	// paper's Figure 3 situation); holding locks to root commit exactly at
	// the join points restores soundness while keeping early release on
	// single-caller chains.
	Hybrid
	// NoCC applies operations without any isolation.
	NoCC
)

// ParseProtocol inverts Protocol.String — the form protocols take in
// compsim flags and WAL metadata.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range []Protocol{OpenNested, ClosedNested, Global2PL, Hybrid, NoCC} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown protocol %q", s)
}

func (p Protocol) String() string {
	switch p {
	case OpenNested:
		return "open-nested"
	case ClosedNested:
		return "closed-nested"
	case Global2PL:
		return "global-2pl"
	case Hybrid:
		return "hybrid"
	case NoCC:
		return "nocc"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ComponentSpec declares one component of the topology.
type ComponentSpec struct {
	Name string
	// Modes is the component's conflict declaration over operation modes;
	// nil means data.SemanticTable.
	Modes *data.ModeTable
	// HasStore gives the component a local data store (components may own
	// data and invoke children at the same time, like the schedules of
	// Figure 1 that have both leaf and transaction operations).
	HasStore bool
}

// Metrics aggregates runtime counters.
type Metrics struct {
	Commits      int64
	Aborts       int64 // deadlock-policy sacrifices (each followed by a retry)
	ClientAborts int64 // application-initiated aborts (rolled back, not retried)
	LeafOps      int64
	Invokes      int64
	LockWaits    int64

	// Fault/recovery counters (zero unless faults, deadlines, or
	// compensation failures occur).
	Timeouts             int64 // deadline expiries (ErrTimeout), each followed by a fresh-window retry
	InjectedFaults       int64 // faults fired by the injector across all sites
	SubRetries           int64 // subtransaction-scoped local re-runs (OpenNested/Hybrid)
	CompensationFailures int64 // compensations quarantined after the retry budget

	// Durability counters (zero unless a WAL is attached / a crash fired).
	WALRecords int64 // records journaled (including those recovered at open)
	Crashes    int64 // simulated crashes (FaultCrash); at most 1 per runtime

	// CertifyRejects counts commits rejected by the live certifier (zero
	// unless EnableCertify is on and a violation was attempted).
	CertifyRejects int64

	// CertifyFastPath counts certified commits whose stages the engine
	// parked (see front.Incremental.Admit).
	CertifyFastPath int64

	// ValidationAborts counts optimistic attempts whose snapshot reads
	// were invalidated by conflicting commits (each followed by a retry
	// with a fresh snapshot; zero unless ExecOptimistic/SnapshotRead).
	ValidationAborts int64

	// ValidationRefreshes counts commit-time read refreshes: validation
	// passes that moved the attempt's snapshot reads forward to a newer
	// stamp instead of aborting (see Runtime.RefreshRetries).
	ValidationRefreshes int64

	// Checkpoint/GC counters (zero unless EnableCheckpoints is on or
	// Checkpoint was called explicitly).
	CheckpointsTaken  int64 // completed checkpoint cuts
	CheckpointItems   int64 // TypeCkItem records those cuts journaled (base and delta batches)
	CheckpointBases   int64 // cuts whose batch was a base (every store item)
	NodesPruned       int64 // forest nodes cut from the execution index's record
	SegmentsTruncated int64 // WAL segments deleted by TruncateBefore
	VersionsCompacted int64 // MVCC versions dropped by Store.Compact at checkpoints
	OverloadThrottles int64 // Submits rejected with ErrOverload at the high watermark
}

// String renders the metrics as one key=value line (compsim's summary
// format). Fault and durability counters appear only when nonzero.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "commits=%d aborts=%d client-aborts=%d leaf-ops=%d invokes=%d lock-waits=%d",
		m.Commits, m.Aborts, m.ClientAborts, m.LeafOps, m.Invokes, m.LockWaits)
	if m.Timeouts+m.InjectedFaults+m.SubRetries+m.CompensationFailures > 0 {
		fmt.Fprintf(&b, " timeouts=%d injected=%d sub-retries=%d comp-failures=%d",
			m.Timeouts, m.InjectedFaults, m.SubRetries, m.CompensationFailures)
	}
	if m.WALRecords+m.Crashes > 0 {
		fmt.Fprintf(&b, " wal-records=%d crashes=%d", m.WALRecords, m.Crashes)
	}
	if m.CertifyRejects+m.CertifyFastPath > 0 {
		fmt.Fprintf(&b, " certify-rejects=%d certify-fastpath=%d", m.CertifyRejects, m.CertifyFastPath)
	}
	if m.ValidationAborts+m.ValidationRefreshes > 0 {
		fmt.Fprintf(&b, " validation-aborts=%d validation-refreshes=%d",
			m.ValidationAborts, m.ValidationRefreshes)
	}
	if m.CheckpointsTaken+m.OverloadThrottles > 0 {
		fmt.Fprintf(&b, " checkpoints=%d nodes-pruned=%d segments-truncated=%d versions-compacted=%d overload-throttles=%d",
			m.CheckpointsTaken, m.NodesPruned, m.SegmentsTruncated, m.VersionsCompacted, m.OverloadThrottles)
	}
	if m.CheckpointItems+m.CheckpointBases > 0 {
		fmt.Fprintf(&b, " checkpoint-items=%d checkpoint-bases=%d", m.CheckpointItems, m.CheckpointBases)
	}
	return b.String()
}

// Runtime is a running composite system.
type Runtime struct {
	driver
	globalLM *lockManager

	seq atomic.Uint64 // global event sequence (conflict-order recording)

	commits    atomic.Int64
	leafOps    atomic.Int64
	subRetries atomic.Int64

	ix *execIndex // the committed execution (and the certifier's engine)

	// certifying is set once, by EnableCertify, after it has given ix its
	// engine; a commit reads it with one atomic load.
	certifying   atomic.Bool
	certRejects  atomic.Int64
	valRefreshes atomic.Int64

	// seals orders optimistic commits: each validation pass registers its
	// validation point here before checking any read, and serialize-before
	// claims are granted only against owners whose seal is absent or above
	// the claimant's own validation point (see Runtime.validate).
	sealMu sync.Mutex
	sealM  map[string]uint64

	// skipValidation disables the optimistic commit gate (tests only: it
	// lets an invalidated snapshot read reach the certifier, proving the
	// certifier independently rejects the resulting violation).
	skipValidation bool

	wfg *waitGraph

	inj *injector // fault injection (nil = off); see SetFaults

	leaks leaks // quarantined compensations

	// Durability (a zero journal = volatile runtime; see EnableWAL, Recover).
	topo    *Topology // retained for WAL metadata; nil when built via New with bare specs
	crashes atomic.Int64

	// walMetaJSON is the encoded walMeta document of the attached log,
	// built once (EnableWAL, Recover) and spliced into every checkpoint
	// marker (ckMetaBlob).
	walMetaJSON []byte

	walErrMu sync.Mutex
	walErr   error // first filesystem error recorded while staging a simulated crash

	// Checkpointing (see EnableCheckpoints, Checkpoint in checkpoint.go).
	ck                *ckState
	ckTaken           atomic.Int64
	ckNodesPruned     atomic.Int64
	ckSegsTruncated   atomic.Int64
	ckVersionsDropped atomic.Int64
	ckItems           atomic.Int64
	ckBases           atomic.Int64
	overloadThrottles atomic.Int64

	// MaxRetries bounds retries per transaction (safety net; wait-die
	// guarantees progress long before this).
	MaxRetries int

	// SubRetries bounds the local re-runs of a faulted subtransaction
	// before the failure propagates to the root (OpenNested and Hybrid
	// only, where the subtransaction's locks are still local).
	SubRetries int

	// OpTimeout, when positive, gives every Submit attempt a deadline of
	// now+OpTimeout: a stuck (sub)transaction aborts with ErrTimeout and
	// the root retries with a fresh window, instead of hanging its client
	// goroutine. Invocation.Deadline sets an absolute per-invocation
	// bound on top of (or instead of) this.
	OpTimeout time.Duration

	// Deadlock selects the deadlock-handling policy of every lock manager
	// (default WaitDie). Set before submitting transactions.
	Deadlock DeadlockPolicy

	// Exec selects pessimistic (default) or optimistic leaf-read
	// execution for every submitted root; Invocation.SnapshotRead opts a
	// single root in. Set before submitting transactions.
	Exec ExecMode

	// RefreshRetries bounds how many times a failing optimistic
	// validation may refresh its snapshot reads to a newer stamp
	// (re-reading values, re-sequencing the read events) before the
	// attempt aborts with ErrValidation and re-executes. 0 disables
	// refreshing: every invalidated read aborts immediately.
	RefreshRetries int
}

// New builds a runtime for the given protocol and component topology.
func New(protocol Protocol, specs []ComponentSpec) *Runtime {
	r := &Runtime{
		driver:         driver{protocol: protocol, comps: make(map[string]*component, len(specs))},
		globalLM:       newLockManager(),
		wfg:            newWaitGraph(),
		sealM:          make(map[string]uint64),
		ck:             newCkState(),
		MaxRetries:     10000,
		SubRetries:     2,
		RefreshRetries: 6,
	}
	r.sch, r.stop = r, make(chan struct{})
	r.lms = append(r.lms, r.globalLM)
	for _, spec := range specs {
		if spec.Name == "" {
			panic("sched: component with empty name")
		}
		if _, dup := r.comps[spec.Name]; dup {
			panic(fmt.Sprintf("sched: duplicate component %q", spec.Name))
		}
		c := newComponent(spec).local(&r.crashed)
		if c.store != nil {
			// Version stamps and event sequence numbers share one clock,
			// so version order and recorded conflict order agree by
			// construction (see Runtime.validate's soundness note).
			c.store.UseClock(&r.seq)
		}
		r.comps[spec.Name] = c
		r.lms = append(r.lms, c.lm)
	}
	r.globalLM.crashed = &r.crashed
	r.ix = newExecIndex(r.comps)
	// Bare-specs topology, so a WAL can be attached to runtimes built
	// without Topology.NewRuntime (which overwrites this with the full
	// invocation graph).
	r.topo = &Topology{Specs: append([]ComponentSpec(nil), specs...)}
	return r
}

// Store returns a component's store (nil if it has none), for setup and
// assertions.
func (r *Runtime) Store(name string) *data.Store {
	c := r.comps[name]
	if c == nil {
		return nil
	}
	return c.store
}

// Protocol returns the runtime's concurrency-control discipline.
func (r *Runtime) Protocol() Protocol { return r.protocol }

// Crashed reports whether the runtime is down: a simulated crash
// (FaultCrash) has killed it, or CloseWAL has shut it. Once true, every
// Submit returns ErrCrashed and the only way forward is Recover on the
// WAL directory.
func (r *Runtime) Crashed() bool { return r.crashed.Load() }

// Metrics returns a snapshot of the runtime counters, one atomic load
// each. A commit is counted after it is filed and its WAL batch is
// journaled, so a commit counted here is visible to RecordedSystem.
func (r *Runtime) Metrics() Metrics {
	m := Metrics{
		Commits:              r.commits.Load(),
		Aborts:               r.aborts.Load(),
		ClientAborts:         r.clientAborts.Load(),
		LeafOps:              r.leafOps.Load(),
		Invokes:              r.invokes.Load(),
		Timeouts:             r.timeouts.Load(),
		InjectedFaults:       r.inj.total(),
		SubRetries:           r.subRetries.Load(),
		CompensationFailures: int64(len(r.leaks.all())),
		Crashes:              r.crashes.Load(),
		CertifyRejects:       r.certRejects.Load(),
		CertifyFastPath:      r.ix.fastPath.Load(),
		ValidationAborts:     r.valAborts.Load(),
		ValidationRefreshes:  r.valRefreshes.Load(),
		CheckpointsTaken:     r.ckTaken.Load(),
		CheckpointItems:      r.ckItems.Load(),
		CheckpointBases:      r.ckBases.Load(),
		NodesPruned:          r.ckNodesPruned.Load(),
		SegmentsTruncated:    r.ckSegsTruncated.Load(),
		VersionsCompacted:    r.ckVersionsDropped.Load(),
		OverloadThrottles:    r.overloadThrottles.Load(),
		WALRecords:           int64(r.wal.records()),
	}
	m.LockWaits = r.globalLM.waitCount()
	for _, c := range r.comps {
		m.LockWaits += c.lm.waitCount()
	}
	return m
}
