package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"compositetx/internal/data"
)

// Topology describes a component configuration: the specs, the invocation
// edges, and the entry components clients submit root transactions to.
type Topology struct {
	Specs    []ComponentSpec
	Children map[string][]string
	Entries  []string
}

// NewRuntime builds a runtime for this topology and marks its join
// points: components reachable from more than one client component (or
// from both clients and an entry) hold locks to root commit under the
// Hybrid protocol.
func (t *Topology) NewRuntime(p Protocol) *Runtime {
	r := New(p, t.Specs)
	r.topo = t
	callers := map[string]int{}
	for parent, kids := range t.Children {
		seen := map[string]bool{}
		for _, k := range kids {
			if !seen[k] {
				seen[k] = true
				callers[k]++
			}
		}
		_ = parent
	}
	for _, e := range t.Entries {
		callers[e]++
	}
	for name, n := range callers {
		if c := r.comps[name]; c != nil && n > 1 {
			c.holdToRoot = true
		}
	}
	return r
}

// StackTopology builds a linear chain C1 (entry) -> C2 -> ... -> Cdepth,
// with a store only at the bottom — the multilevel-transaction shape.
func StackTopology(depth int) *Topology {
	if depth < 1 {
		panic("sched: depth must be positive")
	}
	t := &Topology{Children: map[string][]string{}}
	for i := 1; i <= depth; i++ {
		name := fmt.Sprintf("C%d", i)
		t.Specs = append(t.Specs, ComponentSpec{Name: name, HasStore: i == depth})
		if i < depth {
			t.Children[name] = []string{fmt.Sprintf("C%d", i+1)}
		}
	}
	t.Entries = []string{"C1"}
	return t
}

// BankTopology builds the banking example: a bank component delegating to
// two branch components that own the account stores.
func BankTopology() *Topology {
	return &Topology{
		Specs: []ComponentSpec{
			{Name: "bank"},
			{Name: "east", HasStore: true},
			{Name: "west", HasStore: true},
		},
		Children: map[string][]string{"bank": {"east", "west"}},
		Entries:  []string{"bank"},
	}
}

// DiamondTopology builds a general configuration with two independent
// entry components that interfere only through a shared bottom store —
// the transitive-dependency shape of the paper's Figure 3:
//
//	agencyA -> airline -> ledger
//	agencyA -> ledger
//	agencyB -> hotel  -> ledger
//	agencyB -> ledger
func DiamondTopology() *Topology {
	return &Topology{
		Specs: []ComponentSpec{
			{Name: "agencyA"},
			{Name: "agencyB"},
			{Name: "airline", HasStore: true},
			{Name: "hotel", HasStore: true},
			{Name: "ledger", HasStore: true},
		},
		Children: map[string][]string{
			"agencyA": {"airline", "ledger"},
			"agencyB": {"hotel", "ledger"},
			"airline": {"ledger"},
			"hotel":   {"ledger"},
		},
		Entries: []string{"agencyA", "agencyB"},
	}
}

// WorkloadParams configures GenPrograms.
type WorkloadParams struct {
	Roots      int
	StepsPerTx int
	Items      int     // hot-item universe per service
	ReadRatio  float64 // probability a step is a read service
	WriteRatio float64 // probability a step is a write service (rest: increment)
	Seed       int64
}

// GenPrograms generates root-transaction programs over the topology. Each
// step of a root picks a service type (read / write / increment), a hot
// item, and either a local leaf operation or a typed invocation chain down
// the topology. The service type is used consistently down the whole
// subtree, so every component's conflict declaration is sound: operations
// declared commuting at a caller only perform commuting work below.
func GenPrograms(t *Topology, p WorkloadParams) []Invocation {
	if p.Roots < 1 || p.StepsPerTx < 1 || p.Items < 1 {
		panic("sched: WorkloadParams must be positive")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	hasStore := map[string]bool{}
	for _, s := range t.Specs {
		hasStore[s.Name] = s.HasStore
	}

	var steps func(comp string, mode data.Mode, item string) []Step
	steps = func(comp string, mode data.Mode, item string) []Step {
		kids := t.Children[comp]
		var out []Step
		switch {
		case len(kids) == 0:
			// Leaf component: operate on the store.
			out = append(out, Step{Op: &data.Op{Mode: mode, Item: item, Arg: 1}})
		default:
			child := kids[rng.Intn(len(kids))]
			out = append(out, Step{Invoke: &Invocation{
				Component: child,
				Item:      item,
				Mode:      mode,
				Steps:     steps(child, mode, item),
			}})
			if hasStore[comp] && rng.Float64() < 0.5 {
				out = append(out, Step{Op: &data.Op{Mode: mode, Item: item + "_local", Arg: 1}})
			}
		}
		return out
	}

	pick := func() data.Mode {
		switch r := rng.Float64(); {
		case r < p.ReadRatio:
			return data.ModeRead
		case r < p.ReadRatio+p.WriteRatio:
			return data.ModeWrite
		default:
			return data.ModeIncr
		}
	}

	programs := make([]Invocation, p.Roots)
	for i := range programs {
		entry := t.Entries[i%len(t.Entries)]
		var body []Step
		for s := 0; s < p.StepsPerTx; s++ {
			mode := pick()
			item := fmt.Sprintf("x%d", rng.Intn(p.Items)+1)
			kids := t.Children[entry]
			if len(kids) == 0 {
				body = append(body, Step{Op: &data.Op{Mode: mode, Item: item, Arg: 1}})
				continue
			}
			child := kids[rng.Intn(len(kids))]
			body = append(body, Step{Invoke: &Invocation{
				Component: child,
				Item:      item,
				Mode:      mode,
				Steps:     steps(child, mode, item),
			}})
		}
		programs[i] = Invocation{Component: entry, Steps: body}
	}
	return programs
}

// Jitter decorates every step of the programs with a small random delay
// (up to maxDelay), preserving existing Sync hooks. Transactions in this
// runtime execute in microseconds, so without jitter concurrent clients
// rarely interleave within a transaction; experiments that need real
// interleaving (e.g. demonstrating NoCC anomalies) use Jitter to model
// realistic per-step latency.
func Jitter(programs []Invocation, maxDelay time.Duration, seed int64) []Invocation {
	rng := rand.New(rand.NewSource(seed))
	var deco func(inv Invocation) Invocation
	deco = func(inv Invocation) Invocation {
		out := inv
		out.Steps = make([]Step, len(inv.Steps))
		for i, st := range inv.Steps {
			d := time.Duration(rng.Int63n(int64(maxDelay)))
			prev := st.Sync
			st.Sync = func() {
				if prev != nil {
					prev()
				}
				time.Sleep(d)
			}
			if st.Invoke != nil {
				sub := deco(*st.Invoke)
				st.Invoke = &sub
			}
			out.Steps[i] = st
		}
		return out
	}
	out := make([]Invocation, len(programs))
	for i, p := range programs {
		out[i] = deco(p)
	}
	return out
}

// Submitter is what Drive feeds: a *Runtime, a *Cluster, or a wrapper
// that answers some submissions itself.
type Submitter interface {
	Submit(name string, root Invocation) (*TxResult, error)
}

// Outcome is what one program's submission came to.
type Outcome struct {
	Latency time.Duration // Submit's wall time as its client saw it
	Err     error
}

// Drive is the closed-loop client pool every run goes through: clients
// goroutines (at least one) each take the next unsubmitted program,
// submit it as T<index+1> and record its outcome, so every program is
// submitted exactly once whatever the others returned. It returns the
// outcomes indexed like programs and the wall time of the whole drain.
// What an error means — fail the run, tolerate ErrCrashed, discard a
// rep — is the caller's loop over the outcomes. Names are built before
// the clock starts: the times are the commit path's, not Sprintf's.
func Drive(s Submitter, programs []Invocation, clients int) ([]Outcome, time.Duration) {
	names := make([]string, len(programs))
	for i := range names {
		names[i] = fmt.Sprintf("T%d", i+1)
	}
	out := make([]Outcome, len(programs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < max(clients, 1); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(programs) {
					return
				}
				t0 := time.Now()
				_, err := s.Submit(names[i], programs[i])
				out[i] = Outcome{Latency: time.Since(t0), Err: err}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// Run drives every program through rt (named T1..Tn by index) and returns
// the error of the lowest-indexed program that failed, if any.
func Run(rt *Runtime, programs []Invocation, clients int) error {
	outcomes, _ := Drive(rt, programs, clients)
	for _, o := range outcomes {
		if o.Err != nil {
			return o.Err
		}
	}
	return nil
}
