package sched

import (
	"fmt"
	"sync"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/front"
)

// realProtocols are the disciplines that must only produce correct
// executions.
var realProtocols = []Protocol{OpenNested, ClosedNested, Global2PL, Hybrid}

// checkRecorded validates and Comp-C-checks the runtime's recorded
// execution.
func checkRecorded(t *testing.T, rt *Runtime) {
	t.Helper()
	sys := rt.RecordedSystem()
	if err := sys.Validate(); err != nil {
		t.Fatalf("[%s] recorded execution must validate: %v", rt.Protocol(), err)
	}
	v, err := front.Check(sys, front.Options{})
	if err != nil {
		t.Fatalf("[%s] Check: %v", rt.Protocol(), err)
	}
	if !v.Correct {
		t.Fatalf("[%s] recorded execution must be Comp-C: %s", rt.Protocol(), v)
	}
}

func TestSingleTransactionAllProtocols(t *testing.T) {
	for _, p := range realProtocols {
		t.Run(p.String(), func(t *testing.T) {
			rt := BankTopology().NewRuntime(p)
			res, err := rt.Submit("T1", Invocation{
				Component: "bank",
				Steps: []Step{
					{Invoke: &Invocation{Component: "east", Item: "acct1", Mode: data.ModeIncr,
						Steps: []Step{{Op: &data.Op{Mode: data.ModeIncr, Item: "acct1", Arg: 100}}}}},
					{Invoke: &Invocation{Component: "east", Item: "acct1", Mode: data.ModeRead,
						Steps: []Step{{Op: &data.Op{Mode: data.ModeRead, Item: "acct1"}}}}},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Values) != 1 || res.Values[0] != 100 {
				t.Fatalf("read values = %v, want [100]", res.Values)
			}
			if got := rt.Store("east").Get("acct1"); got != 100 {
				t.Fatalf("acct1 = %d, want 100", got)
			}
			m := rt.Metrics()
			if m.Commits != 1 || m.LeafOps != 2 || m.Invokes != 2 {
				t.Fatalf("metrics = %+v", m)
			}
			checkRecorded(t, rt)
		})
	}
}

func TestConcurrentDepositsAllProtocols(t *testing.T) {
	// 40 concurrent deposits of 1 on each of two accounts; every protocol
	// must preserve the invariant (atomic increments, compensation-safe)
	// and record a Comp-C execution.
	const n = 40
	for _, p := range realProtocols {
		t.Run(p.String(), func(t *testing.T) {
			rt := BankTopology().NewRuntime(p)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					branch := "east"
					if i%2 == 0 {
						branch = "west"
					}
					_, err := rt.Submit(fmt.Sprintf("T%d", i+1), Invocation{
						Component: "bank",
						Steps: []Step{
							{Invoke: &Invocation{Component: branch, Item: "acct", Mode: data.ModeIncr,
								Steps: []Step{{Op: &data.Op{Mode: data.ModeIncr, Item: "acct", Arg: 1}}}}},
							{Invoke: &Invocation{Component: "east", Item: "log", Mode: data.ModeIncr,
								Steps: []Step{{Op: &data.Op{Mode: data.ModeIncr, Item: "log", Arg: 1}}}}},
						},
					})
					if err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
			east := rt.Store("east").Get("acct")
			west := rt.Store("west").Get("acct")
			if east+west != n {
				t.Fatalf("accounts sum = %d, want %d", east+west, n)
			}
			if got := rt.Store("east").Get("log"); got != n {
				t.Fatalf("log = %d, want %d", got, n)
			}
			if m := rt.Metrics(); m.Commits != n {
				t.Fatalf("commits = %d, want %d", m.Commits, n)
			}
			checkRecorded(t, rt)
		})
	}
}

func TestGeneratedWorkloadsAreCompC(t *testing.T) {
	// Random typed workloads over all three topologies: every real
	// protocol must produce Comp-C executions under real concurrency.
	topos := map[string]*Topology{
		"stack":   StackTopology(3),
		"bank":    BankTopology(),
		"diamond": DiamondTopology(),
	}
	for name, topo := range topos {
		for _, p := range realProtocols {
			if p == OpenNested && name == "diamond" {
				continue // unsound there by design; see TestOpenNestedUnsoundOnDiamond
			}
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				rt := topo.NewRuntime(p)
				progs := GenPrograms(topo, WorkloadParams{
					Roots: 30, StepsPerTx: 3, Items: 4,
					ReadRatio: 0.3, WriteRatio: 0.3, Seed: 42,
				})
				if err := Run(rt, progs, 8); err != nil {
					t.Fatal(err)
				}
				if m := rt.Metrics(); m.Commits != 30 {
					t.Fatalf("commits = %d, want 30", m.Commits)
				}
				checkRecorded(t, rt)
			})
		}
	}
}

// TestOpenNestedUnsoundOnDiamond reproduces the paper's Figure 3
// interference with the runtime: two roots that share no component
// scheduler interleave crossed writes on a shared bottom component. Pure
// open nesting releases the bottom locks at subtransaction commit, so the
// crossed orders both persist and the recorded execution is provably not
// Comp-C — the checker catches a real concurrency bug.
func TestOpenNestedUnsoundOnDiamond(t *testing.T) {
	rt := DiamondTopology().NewRuntime(OpenNested)
	// Orchestrated interleaving: TA writes x, then (after TB wrote y) both
	// write the other item.
	aWroteX := make(chan struct{})
	bWroteY := make(chan struct{})
	var onceX, onceY sync.Once

	write := func(item string) *Invocation {
		return &Invocation{Component: "ledger", Item: item, Mode: data.ModeWrite,
			Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: item, Arg: 1}}}}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := rt.Submit("TA", Invocation{
			Component: "agencyA",
			Steps: []Step{
				{Invoke: write("x")},
				{Sync: func() { onceX.Do(func() { close(aWroteX) }); <-bWroteY }, Invoke: write("y")},
			},
		})
		if err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		_, err := rt.Submit("TB", Invocation{
			Component: "agencyB",
			Steps: []Step{
				{Sync: func() { <-aWroteX }, Invoke: write("y")},
				{Sync: func() { onceY.Do(func() { close(bWroteY) }) }, Invoke: write("x")},
			},
		})
		if err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	sys := rt.RecordedSystem()
	validateErr := sys.Validate()
	var compC bool
	if validateErr == nil {
		var err error
		compC, err = front.IsCompC(sys)
		if err != nil {
			t.Fatal(err)
		}
	}
	if validateErr == nil && compC {
		t.Fatal("open nesting on a diamond with crossed writes must yield a detectable violation")
	}
}

// TestHybridSoundOnSameInterleaving: the same orchestrated scenario under
// the Hybrid protocol cannot interleave — the ledger is a join point, so
// TA's write lock on x is held to root commit and TB's crossed write
// blocks. The recorded execution is Comp-C.
func TestHybridSoundOnSameInterleaving(t *testing.T) {
	rt := DiamondTopology().NewRuntime(Hybrid)
	aWroteX := make(chan struct{})
	var onceA sync.Once

	write := func(item string) *Invocation {
		return &Invocation{Component: "ledger", Item: item, Mode: data.ModeWrite,
			Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: item, Arg: 1}}}}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := rt.Submit("TA", Invocation{
			Component: "agencyA",
			Steps: []Step{
				{Invoke: write("x")},
				{Sync: func() { onceA.Do(func() { close(aWroteX) }) }, Invoke: write("y")},
			},
		}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := rt.Submit("TB", Invocation{
			Component: "agencyB",
			Steps: []Step{
				{Sync: func() { <-aWroteX }, Invoke: write("y")},
				{Invoke: write("x")},
			},
		}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	checkRecorded(t, rt)
}

// TestNoCCViolationDetected: without concurrency control, a classic lost
// interleaving is recorded and flagged.
func TestNoCCViolationDetected(t *testing.T) {
	rt := BankTopology().NewRuntime(NoCC)
	step1 := make(chan struct{})
	step2 := make(chan struct{})
	var once1, once2 sync.Once
	write := func(item string) *Invocation {
		return &Invocation{Component: "east", Item: item, Mode: data.ModeWrite,
			Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: item, Arg: 1}}}}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := rt.Submit("T1", Invocation{Component: "bank", Steps: []Step{
			{Invoke: write("x")},
			{Sync: func() { once1.Do(func() { close(step1) }); <-step2 }, Invoke: write("y")},
		}})
		if err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		_, err := rt.Submit("T2", Invocation{Component: "bank", Steps: []Step{
			{Sync: func() { <-step1 }, Invoke: write("y")},
			{Sync: func() { once2.Do(func() { close(step2) }) }, Invoke: write("x")},
		}})
		if err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	sys := rt.RecordedSystem()
	if err := sys.Validate(); err == nil {
		ok, err := front.IsCompC(sys)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("NoCC crossed writes must be detected as incorrect")
		}
	}
}

// TestAbortCompensation: a younger transaction is sacrificed by wait-die,
// its partial effects are compensated, and it retries to success.
func TestAbortCompensation(t *testing.T) {
	rt := BankTopology().NewRuntime(ClosedNested)
	hold := make(chan struct{})
	t1Locked := make(chan struct{})
	var onceLocked, onceHold sync.Once

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := rt.Submit("T1", Invocation{Component: "bank", Steps: []Step{
			{Invoke: &Invocation{Component: "east", Item: "x", Mode: data.ModeWrite,
				Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: "x", Arg: 10}}}}},
			{Sync: func() { onceLocked.Do(func() { close(t1Locked) }); <-hold }, Invoke: &Invocation{
				Component: "east", Item: "done", Mode: data.ModeIncr,
				Steps: []Step{{Op: &data.Op{Mode: data.ModeIncr, Item: "done", Arg: 1}}}}},
		}})
		if err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		<-t1Locked
		// T2 is younger (submitted later): writes y (succeeds) then x
		// (conflicts with T1's root-held lock => dies, compensates the y
		// write, retries until T1 commits).
		_, err := rt.Submit("T2", Invocation{Component: "bank", Steps: []Step{
			{Invoke: &Invocation{Component: "east", Item: "y", Mode: data.ModeWrite,
				Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: "y", Arg: 77}}}}},
			{Sync: func() { onceHold.Do(func() { close(hold) }) },
				Invoke: &Invocation{Component: "east", Item: "x", Mode: data.ModeWrite,
					Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: "x", Arg: 20}}}}},
		}})
		if err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	m := rt.Metrics()
	if m.Aborts < 1 {
		t.Fatalf("expected at least one wait-die sacrifice, metrics = %+v", m)
	}
	if m.Commits != 2 {
		t.Fatalf("commits = %d, want 2", m.Commits)
	}
	if got := rt.Store("east").Get("x"); got != 20 {
		t.Fatalf("x = %d, want 20 (T2 committed last)", got)
	}
	if got := rt.Store("east").Get("y"); got != 77 {
		t.Fatalf("y = %d, want 77", got)
	}
	checkRecorded(t, rt)
}

func TestSubmitUnknownComponent(t *testing.T) {
	rt := BankTopology().NewRuntime(OpenNested)
	if _, err := rt.Submit("T1", Invocation{Component: "nope"}); err == nil {
		t.Fatal("unknown component must error")
	}
}

func TestEmptyAndBadSteps(t *testing.T) {
	rt := BankTopology().NewRuntime(OpenNested)
	if _, err := rt.Submit("T1", Invocation{Component: "bank", Steps: []Step{{}}}); err == nil {
		t.Fatal("empty step must error")
	}
	if _, err := rt.Submit("T2", Invocation{Component: "bank", Steps: []Step{
		{Op: &data.Op{Mode: data.ModeRead, Item: "x"}},
	}}); err == nil {
		t.Fatal("leaf op on a store-less component must error")
	}
}

func TestRecursionRejected(t *testing.T) {
	rt := BankTopology().NewRuntime(OpenNested)
	if _, err := rt.Submit("T1", Invocation{Component: "bank", Steps: []Step{
		{Invoke: &Invocation{Component: "bank", Item: "x", Mode: data.ModeRead}},
	}}); err == nil {
		t.Fatal("self-invocation must error")
	}
}

func TestTopologyJoinPoints(t *testing.T) {
	rt := DiamondTopology().NewRuntime(Hybrid)
	if !rt.comps["ledger"].holdToRoot {
		t.Error("ledger is a join point")
	}
	if rt.comps["airline"].holdToRoot {
		t.Error("airline has a single caller; no hold-to-root")
	}
	stack := StackTopology(3).NewRuntime(Hybrid)
	for name, c := range stack.comps {
		if c.holdToRoot {
			t.Errorf("stack component %s should not be a join point", name)
		}
	}
}

func TestSequencesRecorded(t *testing.T) {
	rt := StackTopology(2).NewRuntime(ClosedNested)
	progs := GenPrograms(StackTopology(2), WorkloadParams{
		Roots: 5, StepsPerTx: 2, Items: 2, ReadRatio: 0.3, WriteRatio: 0.3, Seed: 1,
	})
	if err := Run(rt, progs, 4); err != nil {
		t.Fatal(err)
	}
	seqs := rt.Sequences()
	if len(seqs) == 0 {
		t.Fatal("no sequences recorded")
	}
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	// The counters also count the operations of attempts wait-die
	// sacrificed; the sequences hold committed work only.
	m := rt.Metrics()
	if ran := m.LeafOps + m.Invokes; int64(total) > ran || m.Aborts == 0 && int64(total) != ran {
		t.Fatalf("sequence events = %d, the runtime counted %d operations over %d aborted attempts", total, ran, m.Aborts)
	}
}
