package sched

import (
	"errors"
	"sync"
	"testing"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/front"
)

func TestWaitGraphCycleDetection(t *testing.T) {
	g := newWaitGraph()
	if g.setWaits(1, []uint64{2}) {
		t.Fatal("single edge is no cycle")
	}
	if g.setWaits(2, []uint64{3}) {
		t.Fatal("chain is no cycle")
	}
	if !g.setWaits(3, []uint64{1}) {
		t.Fatal("closing edge must be detected as a deadlock")
	}
	// The closing edge was rolled back: 3 can wait for 4 instead.
	if g.setWaits(3, []uint64{4}) {
		t.Fatal("edge to fresh node is no cycle")
	}
	g.clear(2)
	if g.setWaits(3, []uint64{1}) {
		t.Fatal("after clearing 2 the cycle is broken")
	}
}

func TestWaitGraphSelfEdgeIgnored(t *testing.T) {
	g := newWaitGraph()
	// A transaction never waits for itself (shared timestamps are skipped
	// in acquire); setWaits must tolerate it anyway.
	if g.setWaits(1, []uint64{1}) {
		t.Fatal("self edge must be ignored")
	}
}

// TestDetectWFGGrantsYoungOverOld: unlike wait-die, detection lets a
// younger transaction wait for an older one; it only aborts on real
// cycles.
func TestDetectWFGYoungerMayWait(t *testing.T) {
	lm := newLockManager()
	wg := newWaitGraph()
	sem := data.SemanticTable()
	if err := lm.acquire(sem, "x", data.ModeWrite, "old", 1, DetectWFG, wg); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- lm.acquire(sem, "x", data.ModeWrite, "young", 2, DetectWFG, wg)
	}()
	select {
	case err := <-done:
		t.Fatalf("younger request should wait, not return: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	lm.release("old", "x")
	if err := <-done; err != nil {
		t.Fatalf("younger request should be granted after release: %v", err)
	}
}

// TestDetectWFGDeadlockCycle: two transactions crossing two locks — the
// second wait closes the cycle and is sacrificed.
func TestDetectWFGDeadlockCycle(t *testing.T) {
	lm := newLockManager()
	wg := newWaitGraph()
	sem := data.SemanticTable()
	if err := lm.acquire(sem, "x", data.ModeWrite, "t1", 1, DetectWFG, wg); err != nil {
		t.Fatal(err)
	}
	if err := lm.acquire(sem, "y", data.ModeWrite, "t2", 2, DetectWFG, wg); err != nil {
		t.Fatal(err)
	}
	// t1 blocks on y (held by t2).
	firstBlocked := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(firstBlocked)
		done <- lm.acquire(sem, "y", data.ModeWrite, "t1", 1, DetectWFG, wg)
	}()
	<-firstBlocked
	time.Sleep(10 * time.Millisecond) // let t1 register its wait
	// t2 requests x (held by t1): closes the cycle, must die.
	err := lm.acquire(sem, "x", data.ModeWrite, "t2", 2, DetectWFG, wg)
	if !errors.Is(err, ErrDie) {
		t.Fatalf("cycle-closing request: err = %v, want ErrDie", err)
	}
	// t2 rolls back and releases; t1 proceeds.
	wg.clear(2)
	lm.release("t2", "y")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("t1 should be granted after t2's rollback: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("t1 not woken after t2's rollback")
	}
}

// TestRuntimeDetectWFGWorkloads: the full runtime under detection-based
// deadlock handling stays live and correct across topologies/protocols.
func TestRuntimeDetectWFGWorkloads(t *testing.T) {
	for _, p := range []Protocol{ClosedNested, Global2PL, Hybrid} {
		t.Run(p.String(), func(t *testing.T) {
			topo := DiamondTopology()
			rt := topo.NewRuntime(p)
			rt.Deadlock = DetectWFG
			progs := GenPrograms(topo, WorkloadParams{
				Roots: 40, StepsPerTx: 3, Items: 2,
				ReadRatio: 0.2, WriteRatio: 0.5, Seed: 11,
			})
			progs = Jitter(progs, 100*time.Microsecond, 11)
			if err := Run(rt, progs, 8); err != nil {
				t.Fatal(err)
			}
			if m := rt.Metrics(); m.Commits != 40 {
				t.Fatalf("commits = %d, want 40", m.Commits)
			}
			sys := rt.RecordedSystem()
			if err := sys.Validate(); err != nil {
				t.Fatalf("recorded execution must validate: %v", err)
			}
			ok, err := front.IsCompC(sys)
			if err != nil || !ok {
				t.Fatalf("recorded execution must be Comp-C: %v, %v", ok, err)
			}
		})
	}
}

// TestRuntimeDeadlockScenarioBothPolicies: a genuine crossed-lock deadlock
// scenario resolves under both policies with the expected invariants.
func TestRuntimeDeadlockScenarioBothPolicies(t *testing.T) {
	for _, pol := range []DeadlockPolicy{WaitDie, DetectWFG} {
		t.Run(pol.String(), func(t *testing.T) {
			rt := BankTopology().NewRuntime(ClosedNested)
			rt.Deadlock = pol
			t1AtX := make(chan struct{})
			var once sync.Once

			write := func(item string) *Invocation {
				return &Invocation{Component: "east", Item: item, Mode: data.ModeWrite,
					Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: item, Arg: 1}}}}
			}
			var wgrp sync.WaitGroup
			wgrp.Add(2)
			go func() {
				defer wgrp.Done()
				_, err := rt.Submit("T1", Invocation{Component: "bank", Steps: []Step{
					{Invoke: write("x")},
					{Sync: func() { once.Do(func() { close(t1AtX) }) }, Invoke: write("y")},
				}})
				if err != nil {
					t.Error(err)
				}
			}()
			go func() {
				defer wgrp.Done()
				<-t1AtX
				_, err := rt.Submit("T2", Invocation{Component: "bank", Steps: []Step{
					{Invoke: write("y")},
					{Invoke: write("x")},
				}})
				if err != nil {
					t.Error(err)
				}
			}()
			wgrp.Wait()
			m := rt.Metrics()
			if m.Commits != 2 {
				t.Fatalf("commits = %d, want 2", m.Commits)
			}
			sys := rt.RecordedSystem()
			if err := sys.Validate(); err != nil {
				t.Fatal(err)
			}
			if ok, err := front.IsCompC(sys); err != nil || !ok {
				t.Fatalf("execution must be Comp-C: %v, %v", ok, err)
			}
		})
	}
}
