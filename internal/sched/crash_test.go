package sched

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/model"
)

// Crash/recovery suite: every test kills the runtime at a chosen point
// (FaultCrash), recovers from the WAL alone, and asserts the recovered
// state is exactly what durability promises — money conserved, the
// committed projection Comp-C, the log replayable.

// transferTopo is the conservation harness: a bank delegating to two
// branch stores with conflicting increments (RW table), so partial
// transfers must be compensated, not ignored.
func transferTopo() *Topology {
	rw := data.RWTable()
	return &Topology{
		Specs: []ComponentSpec{
			{Name: "bank", Modes: rw},
			{Name: "east", HasStore: true, Modes: rw},
			{Name: "west", HasStore: true, Modes: rw},
		},
		Children: map[string][]string{"bank": {"east", "west"}},
		Entries:  []string{"bank"},
	}
}

func transferPrograms(n int) []Invocation {
	leg := func(comp string, amt int64) Step {
		return Step{Invoke: &Invocation{Component: comp, Item: "acct", Mode: data.ModeIncr,
			Steps: []Step{{Op: &data.Op{Mode: data.ModeIncr, Item: "acct", Arg: amt}}}}}
	}
	progs := make([]Invocation, n)
	for i := range progs {
		amt := int64(i%7 + 1)
		progs[i] = Invocation{Component: "bank", Steps: []Step{leg("east", -amt), leg("west", amt)}}
	}
	return progs
}

// runToCrash submits every program, tolerating ErrCrashed (the expected
// way a crashing run drains).
func runToCrash(t *testing.T, rt *Runtime, progs []Invocation, clients int) {
	t.Helper()
	outcomes, _ := Drive(rt, progs, clients)
	for i, o := range outcomes {
		if o.Err != nil && !errors.Is(o.Err, ErrCrashed) {
			t.Errorf("T%d: unexpected error: %v", i+1, o.Err)
		}
	}
}

func conserved(t *testing.T, rt *Runtime, initial int64) {
	t.Helper()
	var leaked int64
	for _, q := range rt.Quarantined() {
		leaked += q.Op.Arg
	}
	got := rt.Store("east").Get("acct") + rt.Store("west").Get("acct")
	if got != initial+leaked {
		t.Fatalf("balance = %d, want %d (initial %d + leaked %d): conservation violated",
			got, initial+leaked, initial, leaked)
	}
}

// crashSite runs the full crash→recover cycle for one trigger and
// returns the recovery for site-specific assertions.
func crashSite(t *testing.T, trig Trigger, tear bool) *Recovered {
	t.Helper()
	topo := transferTopo()
	rt := topo.NewRuntime(Hybrid)
	const initial = 10000
	rt.Store("east").Set("acct", initial)
	dir := t.TempDir() + "/wal"
	if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	rt.SetFaults(FaultPlan{Triggers: []Trigger{trig}, CrashTear: tear})

	progs := transferPrograms(24)
	runToCrash(t, rt, progs, 4)
	if !rt.Crashed() {
		t.Fatal("trigger never fired — the crash site was not visited")
	}
	// The WAL dir is the only thing a real crash leaves behind; recover
	// from it alone.
	rec, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !rec.Verdict.Correct {
		t.Fatal("recovered execution failed the Comp-C check")
	}
	conserved(t, rec.Runtime, initial)
	if got := int(rec.Runtime.Metrics().Commits); got != rec.Stats.Committed {
		t.Fatalf("recovered commit counter %d != stats %d", got, rec.Stats.Committed)
	}
	return rec
}

func TestCrashAtLeafRecovers(t *testing.T) {
	// T5's second leaf apply (the west leg): the east leg is journaled
	// and applied, so the transfer is half-done and recovery must undo it.
	rec := crashSite(t, Trigger{Site: FaultCrash, Txn: "T5", Step: "T5/2/1"}, false)
	if rec.Stats.InFlight < 1 {
		t.Fatalf("stats %+v: the crashed transaction must be in-flight", rec.Stats)
	}
	if rec.Stats.TornBytes != 0 {
		t.Fatalf("no tear requested, got %d torn bytes", rec.Stats.TornBytes)
	}
	// The recovered runtime accepts new work.
	if _, err := rec.Runtime.Submit("Tnew", transferPrograms(1)[0]); err != nil {
		t.Fatalf("recovered runtime rejects new transactions: %v", err)
	}
}

func TestCrashTornRecord(t *testing.T) {
	// Same site, but the crash abandons the WAL mid-append: the apply
	// record is half-written. Recovery must truncate it — never replay it.
	rec := crashSite(t, Trigger{Site: FaultCrash, Txn: "T5", Step: "T5/2/1"}, true)
	if rec.Stats.TornBytes == 0 {
		t.Fatal("CrashTear crash left no torn bytes — the tear was not exercised")
	}
}

func TestCrashAtCommit(t *testing.T) {
	// Before the commit batch: T3 executed fully but must recover as
	// undone (no commit marker is durable).
	rec := crashSite(t, Trigger{Site: FaultCrash, Txn: "T3", Step: "commit"}, false)
	if rec.System.Node("T3") != nil {
		t.Fatal("T3 crashed before its commit record; it must not be in the recovered execution")
	}
	if rec.Stats.Undone == 0 {
		t.Fatalf("stats %+v: commit-site crash must leave work to undo", rec.Stats)
	}
}

func TestCrashPostCommit(t *testing.T) {
	// After the commit batch: the log says committed, and the in-memory
	// index dies with the process. Recovery must redo T3 into the
	// committed projection.
	rec := crashSite(t, Trigger{Site: FaultCrash, Txn: "T3", Step: "post-commit"}, false)
	if rec.System.Node("T3") == nil {
		t.Fatal("T3's commit record is durable; recovery must redo it")
	}
}

func TestRecoverIsIdempotent(t *testing.T) {
	topo := transferTopo()
	rt := topo.NewRuntime(Hybrid)
	const initial = 5000
	rt.Store("east").Set("acct", initial)
	dir := t.TempDir() + "/wal"
	if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultCrash, Txn: "T7", Step: "T7/2/1"}}})
	runToCrash(t, rt, transferPrograms(16), 4)

	first, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Runtime.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// Crash-during-recovery model: recover the already-recovered log
	// again. The journaled undo records (CLRs) mean nothing is undone
	// twice.
	second, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Undone != 0 || second.Stats.InFlight != 0 {
		t.Fatalf("second recovery undid work again: %+v", second.Stats)
	}
	conserved(t, second.Runtime, initial)
	if a, b := normalEncoding(t, first.System), normalEncoding(t, second.System); !bytes.Equal(a, b) {
		t.Fatal("recovering twice produced different executions")
	}
}

// TestDeterministicReplay is the E10-bridge satellite: a chaos run
// journaled to a WAL, cleanly closed, then recovered twice — the live
// recorded system and both recoveries must agree byte-for-byte on the
// normalized encoding (this pins the interner's lexicographic
// tie-breaking across the recovery path). The certified case takes a
// checkpoint every 7 commits, so the cuts land among concurrent commits
// and a tail survives the last cut: the live recorded system must then
// equal the recovered tail, which holds only if every cut drops exactly
// the commits journaled below its marker.
func TestDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	for _, certify := range []bool{false, true} {
		topo := DiamondTopology()
		rt := topo.NewRuntime(Hybrid)
		if certify {
			if err := rt.EnableCertify(); err != nil {
				t.Fatal(err)
			}
			rt.EnableCheckpoints(CheckpointConfig{Every: 7})
		}
		dir := t.TempDir() + "/wal"
		if err := rt.EnableWAL(WALConfig{Dir: dir, SyncEvery: 8}); err != nil {
			t.Fatal(err)
		}
		rt.SetFaults(FaultPlan{Seed: 11, ApplyProb: 0.05, LockFailProb: 0.03})
		progs := GenPrograms(topo, WorkloadParams{
			Roots: 40, StepsPerTx: 3, Items: 3, ReadRatio: 0.25, WriteRatio: 0.3, Seed: 11,
		})
		progs = Jitter(progs, 100*time.Microsecond, 11)
		if err := Run(rt, progs, 6); err != nil {
			t.Fatal(err)
		}
		if err := rt.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		live := normalEncoding(t, rt.RecordedSystem())
		if certify {
			if rt.Checkpoints() == 0 {
				t.Fatal("certify: no checkpoint ran")
			}
		}

		recA, err := Recover(WALConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := recA.Runtime.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		recB, err := Recover(WALConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		a, b := normalEncoding(t, recA.System), normalEncoding(t, recB.System)
		if !bytes.Equal(a, b) {
			t.Fatalf("certify=%v: two recoveries of the same WAL disagree", certify)
		}
		if !bytes.Equal(live, a) {
			t.Fatalf("certify=%v: recovered execution differs from the live recorded one:\nrecovered: %s\nlive:      %s", certify, a, live)
		}
		if recA.Stats.Committed != 40 {
			t.Fatalf("certify=%v: recovered %d commits, want 40", certify, recA.Stats.Committed)
		}
	}
}

func TestCrashChaosEscrowConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	// Probabilistic crash somewhere in a faulty transfer run, per
	// protocol; wherever it lands, recovery must conserve and verify.
	for _, p := range []Protocol{Hybrid, ClosedNested, Global2PL} {
		for _, tear := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tear=%v", p, tear), func(t *testing.T) {
				topo := transferTopo()
				rt := topo.NewRuntime(p)
				const initial = 20000
				rt.Store("east").Set("acct", initial)
				dir := t.TempDir() + "/wal"
				if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
					t.Fatal(err)
				}
				rt.SetFaults(FaultPlan{Seed: 31, ApplyProb: 0.04, CrashProb: 0.01, CrashTear: tear})
				runToCrash(t, rt, Jitter(transferPrograms(80), 50*time.Microsecond, 31), 6)
				if !rt.Crashed() {
					t.Skip("seeded run finished before the crash fired")
				}
				rec, err := Recover(WALConfig{Dir: dir})
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if !rec.Verdict.Correct {
					t.Fatal("recovered execution failed the Comp-C check")
				}
				conserved(t, rec.Runtime, initial)
			})
		}
	}
}

func TestEnableWALRejectsExistingLog(t *testing.T) {
	topo := transferTopo()
	rt := topo.NewRuntime(Hybrid)
	dir := t.TempDir() + "/wal"
	if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit("T1", transferPrograms(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := rt.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rt2 := topo.NewRuntime(Hybrid)
	if err := rt2.EnableWAL(WALConfig{Dir: dir}); !errors.Is(err, ErrWALExists) {
		t.Fatalf("EnableWAL on a used directory: %v, want ErrWALExists", err)
	}
}

func normalEncoding(t *testing.T, sys *model.System) []byte {
	t.Helper()
	sys.Normalize()
	var buf bytes.Buffer
	if err := sys.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkRecovery(b *testing.B) {
	for _, roots := range []int{32, 128} {
		b.Run(fmt.Sprintf("roots=%d", roots), func(b *testing.B) {
			topo := transferTopo()
			rt := topo.NewRuntime(Hybrid)
			rt.Store("east").Set("acct", 100000)
			dir := b.TempDir() + "/wal"
			if err := rt.EnableWAL(WALConfig{Dir: dir, SyncEvery: 64}); err != nil {
				b.Fatal(err)
			}
			progs := transferPrograms(roots)
			for i, p := range progs {
				if _, err := rt.Submit(fmt.Sprintf("T%d", i+1), p); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.CloseWAL(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := Recover(WALConfig{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if err := rec.Runtime.CloseWAL(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
