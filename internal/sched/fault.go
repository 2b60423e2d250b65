package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"compositetx/internal/data"
)

// Fault injection: a deterministic, seeded chaos layer threaded through
// the runtime. Faults fire at five sites — store applies, lock
// acquisitions (delay or outright failure), compensations, and whole
// components going down for a window — selected either by seeded
// probability (chaos soaks) or by an exact (txn, step) trigger
// (reproducible unit tests). The recovery machinery in tx.go (root
// retry, subtransaction-scoped retry, compensation retry + quarantine)
// must keep every *recorded* execution Comp-C no matter what this layer
// does; the chaos suite (chaos_test.go, experiment E10) asserts exactly
// that.

// FaultSite names an injection point in the runtime.
type FaultSite int

const (
	// FaultApply fails a store Apply call (the leaf operation errors
	// after its lock was granted; the attempt rolls back and retries).
	FaultApply FaultSite = iota
	// FaultLockDelay stalls a lock acquisition for FaultPlan.LockDelay
	// before it proceeds — the way stuck components surface as timeouts.
	FaultLockDelay
	// FaultLockFail fails a lock acquisition outright.
	FaultLockFail
	// FaultCompensation fails one compensation attempt during rollback;
	// compensations are retried and quarantined when the budget runs out.
	FaultCompensation
	// FaultDown takes the component "down": it refuses new
	// (sub)transactions until FaultPlan.DownWindow elapses.
	FaultDown
	// FaultCrash kills the whole runtime at the injection point: the
	// current attempt panic-abandons without rollback (locks and all),
	// every other in-flight Submit drains with ErrCrashed, and the WAL —
	// when attached — loses its unsynced buffer like an OS cache would
	// (optionally leaving a torn record, FaultPlan.CrashTear). The only
	// way forward is Recover. Crash sites are the leaf-apply journal
	// point (Trigger.Step = the leaf's node ID, or probabilistic) and the
	// commit path (Trigger.Step "commit" / "post-commit").
	FaultCrash
)

func (s FaultSite) String() string {
	switch s {
	case FaultApply:
		return "apply"
	case FaultLockDelay:
		return "lock-delay"
	case FaultLockFail:
		return "lock-fail"
	case FaultCompensation:
		return "compensation"
	case FaultDown:
		return "down"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("FaultSite(%d)", int(s))
	}
}

// Trigger fires a fault at an exact place, for deterministic
// reproduction: all set fields must match (empty string matches
// anything). A trigger fires Times times (0 means once) and is then
// spent.
type Trigger struct {
	Site      FaultSite
	Txn       string // root transaction name ("T1")
	Step      string // node ID of the step ("T1/2/1")
	Component string // component the fault fires at
	Times     int    // how often the trigger fires; 0 = once
}

// FaultPlan configures the injector. Probabilities are per visit of the
// corresponding site; zero disables that site. Triggers fire regardless
// of the probabilities.
type FaultPlan struct {
	Seed int64

	ApplyProb        float64 // per leaf-store Apply
	LockDelayProb    float64 // per lock acquisition
	LockFailProb     float64 // per lock acquisition
	CompensationProb float64 // per compensation attempt
	DownProb         float64 // per (sub)transaction arrival at a component
	CrashProb        float64 // per crash site visit (leaf journal point, commit, post-commit)

	// CrashTear makes a leaf-site crash abandon the WAL mid-append,
	// leaving a torn (half-written) record at the tail — the case
	// recovery must truncate, never replay.
	CrashTear bool

	LockDelay  time.Duration // stall for FaultLockDelay (default 1ms)
	DownWindow time.Duration // outage length for FaultDown (default 1ms)

	// Components restricts probabilistic faults to these components;
	// empty means all components.
	Components []string

	Triggers []Trigger
}

// Typed fault errors. ErrInjected is the base class every injected
// fault wraps; the runtime treats it as recoverable (subtransaction or
// root retry). ErrTimeout is returned when a (sub)transaction exceeds
// its deadline (Invocation.Deadline / Runtime.OpTimeout); the root
// retries with a fresh deadline window unless the client-supplied
// deadline itself has passed.
var (
	ErrInjected      = errors.New("sched: injected fault")
	ErrComponentDown = fmt.Errorf("sched: component unavailable: %w", ErrInjected)
	ErrTimeout       = errors.New("sched: deadline exceeded")
)

// Quarantine reports one operation whose compensation failed
// permanently: its forward effect is still in the store and needs
// out-of-band repair. The runtime keeps running; Runtime.Quarantined
// returns the report.
type Quarantine struct {
	Component string
	Txn       string // root transaction whose rollback leaked
	Op        data.Op
	Err       error
}

// injector is the runtime's fault source. All decisions go through one
// seeded rng under a mutex, so a single-client run with a fixed plan is
// bit-for-bit reproducible.
type injector struct {
	mu        sync.Mutex
	rng       *rand.Rand
	plan      FaultPlan
	allowed   map[string]bool // nil = all components
	remaining []int           // per-trigger remaining fire count
	downUntil map[string]time.Time

	injected atomic.Int64 // total faults fired (metrics)
}

func newInjector(plan FaultPlan) *injector {
	if plan.LockDelay <= 0 {
		plan.LockDelay = time.Millisecond
	}
	if plan.DownWindow <= 0 {
		plan.DownWindow = time.Millisecond
	}
	in := &injector{
		rng:       rand.New(rand.NewSource(plan.Seed)),
		plan:      plan,
		downUntil: make(map[string]time.Time),
	}
	if len(plan.Components) > 0 {
		in.allowed = make(map[string]bool, len(plan.Components))
		for _, c := range plan.Components {
			in.allowed[c] = true
		}
	}
	in.remaining = make([]int, len(plan.Triggers))
	for i, tr := range plan.Triggers {
		in.remaining[i] = tr.Times
		if tr.Times == 0 {
			in.remaining[i] = 1
		}
	}
	return in
}

// fire decides whether the fault at site fires for (comp, txn, step):
// first the exact triggers, then the site's seeded probability.
func (in *injector) fire(site FaultSite, comp, txn, step string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.triggerLocked(site, comp, txn, step) {
		in.injected.Add(1)
		return true
	}
	var p float64
	switch site {
	case FaultApply:
		p = in.plan.ApplyProb
	case FaultLockDelay:
		p = in.plan.LockDelayProb
	case FaultLockFail:
		p = in.plan.LockFailProb
	case FaultCompensation:
		p = in.plan.CompensationProb
	case FaultDown:
		p = in.plan.DownProb
	case FaultCrash:
		p = in.plan.CrashProb
	}
	if p <= 0 || (in.allowed != nil && !in.allowed[comp]) {
		return false
	}
	if in.rng.Float64() < p {
		in.injected.Add(1)
		return true
	}
	return false
}

// down reports whether comp is unavailable for a new (sub)transaction,
// either because an outage window is still open or because a fresh
// FaultDown fault fires now (opening a window of plan.DownWindow).
func (in *injector) down(comp, txn, step string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	if until, ok := in.downUntil[comp]; ok {
		if time.Now().Before(until) {
			in.mu.Unlock()
			return true
		}
		delete(in.downUntil, comp)
	}
	in.mu.Unlock()
	if !in.fire(FaultDown, comp, txn, step) {
		return false
	}
	in.mu.Lock()
	in.downUntil[comp] = time.Now().Add(in.plan.DownWindow)
	in.mu.Unlock()
	return true
}

// triggerLocked matches and consumes an exact trigger. Callers hold
// in.mu.
func (in *injector) triggerLocked(site FaultSite, comp, txn, step string) bool {
	for i, tr := range in.plan.Triggers {
		if in.remaining[i] <= 0 || tr.Site != site {
			continue
		}
		if tr.Component != "" && tr.Component != comp {
			continue
		}
		if tr.Txn != "" && tr.Txn != txn {
			continue
		}
		if tr.Step != "" && tr.Step != step {
			continue
		}
		in.remaining[i]--
		return true
	}
	return false
}

// total returns the number of faults fired so far.
func (in *injector) total() int64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// delay returns the configured lock-acquisition stall.
func (in *injector) delay() time.Duration { return in.plan.LockDelay }

// tear reports whether leaf-site crashes should abandon the WAL
// mid-append (torn tail).
func (in *injector) tear() bool {
	if in == nil {
		return false
	}
	return in.plan.CrashTear
}

// SetFaults installs a fault plan on the runtime: probabilistic and
// trigger-based faults at the five sites of FaultSite. The plan also
// installs an Apply hook (data.Store.SetApplyHook) on every component
// store, so probabilistic FaultApply faults are injected in the data
// layer itself — exactly where a real backend would fail. Call before
// submitting transactions; passing a zero FaultPlan removes injection.
func (r *Runtime) SetFaults(plan FaultPlan) {
	if plan.ApplyProb <= 0 && plan.LockDelayProb <= 0 && plan.LockFailProb <= 0 &&
		plan.CompensationProb <= 0 && plan.DownProb <= 0 && plan.CrashProb <= 0 &&
		len(plan.Triggers) == 0 {
		r.inj = nil
		for _, c := range r.comps {
			if c.store != nil {
				c.store.SetApplyHook(nil)
			}
		}
		return
	}
	in := newInjector(plan)
	r.inj = in
	for name, c := range r.comps {
		if c.store == nil {
			continue
		}
		comp := name
		c.store.SetApplyHook(func(op data.Op) error {
			if in.fire(FaultApply, comp, "", "") {
				return fmt.Errorf("sched: store apply fault at %q: %w", comp, ErrInjected)
			}
			return nil
		})
	}
}

// Quarantined returns the operations whose compensation failed
// permanently (their forward effects leaked into the stores). The slice
// is a copy.
func (r *Runtime) Quarantined() []Quarantine {
	return append([]Quarantine{}, r.leaks.all()...)
}
