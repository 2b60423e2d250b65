package sched

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"compositetx/internal/data"
)

// Checkpoint suite: the cut must be invisible to verdicts and final
// state, recovery must restart from the marker and replay only the tail,
// a crash at any checkpoint site must recover to a verified state, and
// the watermarks must actually bound engine memory.

// submitSerial runs progs one at a time (deterministic interleaving).
func submitSerial(t *testing.T, rt *Runtime, progs []Invocation, offset int) {
	t.Helper()
	for i, p := range progs {
		if _, err := rt.Submit(fmt.Sprintf("T%d", offset+i+1), p); err != nil {
			t.Fatalf("T%d: %v", offset+i+1, err)
		}
	}
}

// TestCheckpointRoundTripRecovery: commit, checkpoint, commit more,
// close; recovery must start from the marker, replay only the tail, and
// land on the same state and verdict a full replay would. The cut drops
// each committed node from the record once, certified or not.
func TestCheckpointRoundTripRecovery(t *testing.T) {
	for _, certify := range []bool{false, true} {
		t.Run(fmt.Sprintf("certify=%v", certify), func(t *testing.T) {
			topo := transferTopo()
			rt := topo.NewRuntime(Hybrid)
			if certify {
				if err := rt.EnableCertify(); err != nil {
					t.Fatal(err)
				}
			}
			const initial = 10000
			rt.Store("east").Set("acct", initial)
			dir := t.TempDir() + "/wal"
			// Tiny segments so the checkpoint's truncation has something to delete.
			if err := rt.EnableWAL(WALConfig{Dir: dir, SegmentBytes: 512}); err != nil {
				t.Fatal(err)
			}
			progs := transferPrograms(30)
			submitSerial(t, rt, progs[:15], 0)
			nodes := rt.RecordedSystem().NumNodes()
			if live := rt.ix.live(); live != nodes {
				t.Fatalf("live gauge %d, want the 15 roots' %d nodes", live, nodes)
			}
			if certify {
				// Serial submits: each admission retires its own root.
				rt.ix.mu.Lock()
				engine := rt.ix.inc.LiveNodes()
				rt.ix.mu.Unlock()
				if engine != 0 {
					t.Fatalf("engine holds %d nodes, want none: every root retired", engine)
				}
			}

			st, err := rt.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if st.LSN == 0 {
				t.Fatal("checkpoint with a WAL must report a marker LSN")
			}
			if st.SegmentsDeleted == 0 {
				t.Fatal("15 transfers across 512-byte segments left nothing to truncate")
			}
			if st.Roots != 15 || st.Nodes != nodes {
				t.Fatalf("checkpoint folded %d roots, %d nodes; want the 15 roots' %d nodes", st.Roots, st.Nodes, nodes)
			}
			submitSerial(t, rt, progs[15:], 15)
			liveEast, liveWest := rt.Store("east").Get("acct"), rt.Store("west").Get("acct")
			if err := rt.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			rec, err := Recover(WALConfig{Dir: dir})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if !rec.Verdict.Correct {
				t.Fatal("recovered execution failed the Comp-C check")
			}
			if rec.Stats.CheckpointLSN != st.LSN {
				t.Fatalf("recovery anchored at LSN %d, want the marker %d", rec.Stats.CheckpointLSN, st.LSN)
			}
			if rec.Stats.Skipped == 0 {
				t.Fatal("recovery from a checkpoint must skip the covered prefix")
			}
			if rec.Stats.Committed != 30 {
				t.Fatalf("recovered %d commits, want 30 (marker metadata + tail)", rec.Stats.Committed)
			}
			if got := rec.Runtime.Metrics().Commits; got != 30 {
				t.Fatalf("recovered commit counter = %d, want 30", got)
			}
			// Only the 15 post-checkpoint roots are replayable from the log; the
			// prefix lives in the snapshot.
			if n := len(rec.System.Roots()); n != 15 {
				t.Fatalf("recovered projection holds %d roots, want the 15-root tail", n)
			}
			if e, w := rec.Runtime.Store("east").Get("acct"), rec.Runtime.Store("west").Get("acct"); e != liveEast || w != liveWest {
				t.Fatalf("recovered balances (%d, %d) != live (%d, %d)", e, w, liveEast, liveWest)
			}
			conserved(t, rec.Runtime, initial)
			if _, err := rec.Runtime.Submit("Tnew", transferPrograms(1)[0]); err != nil {
				t.Fatalf("recovered runtime rejects new transactions: %v", err)
			}
		})
	}
}

// TestCheckpointVerdictsUnchanged runs the same certified workload with
// and without a checkpoint cadence: every commit must certify in both,
// and the final stores must agree — the fold is invisible.
func TestCheckpointVerdictsUnchanged(t *testing.T) {
	run := func(every int) map[string]int64 {
		topo := transferTopo()
		rt := topo.NewRuntime(Hybrid)
		rt.Store("east").Set("acct", 5000)
		if err := rt.EnableCertify(); err != nil {
			t.Fatal(err)
		}
		if every > 0 {
			rt.EnableCheckpoints(CheckpointConfig{Every: every})
		}
		submitSerial(t, rt, transferPrograms(24), 0)
		snap := rt.Store("east").Snapshot()
		for k, v := range rt.Store("west").Snapshot() {
			snap["west/"+k] = v
		}
		if every > 0 && rt.Checkpoints() == 0 {
			t.Fatal("cadence never took a checkpoint")
		}
		return snap
	}
	plain, folded := run(0), run(6)
	if !reflect.DeepEqual(plain, folded) {
		t.Fatalf("checkpointing changed the outcome:\nplain  %v\nfolded %v", plain, folded)
	}
}

// TestCrashDuringCheckpoint injects a crash at each checkpoint fault site
// and requires recovery to a verified, conserved state. A crash before
// the new marker is durable (begin, marker) must recover from the
// previous checkpoint; after (end), from the new one.
func TestCrashDuringCheckpoint(t *testing.T) {
	for _, site := range []struct {
		step    string
		advance bool // the crashed checkpoint's marker is durable
	}{
		{"begin", false},
		{"marker", false},
		{"end", true},
	} {
		t.Run(site.step, func(t *testing.T) {
			topo := transferTopo()
			rt := topo.NewRuntime(Hybrid)
			const initial = 8000
			rt.Store("east").Set("acct", initial)
			dir := t.TempDir() + "/wal"
			if err := rt.EnableWAL(WALConfig{Dir: dir, SegmentBytes: 512}); err != nil {
				t.Fatal(err)
			}
			progs := transferPrograms(16)
			submitSerial(t, rt, progs[:10], 0)
			first, err := rt.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			submitSerial(t, rt, progs[10:], 10)

			rt.SetFaults(FaultPlan{Triggers: []Trigger{
				{Site: FaultCrash, Txn: "checkpoint", Step: site.step},
			}})
			if _, err := rt.Checkpoint(); !errors.Is(err, ErrCrashed) {
				t.Fatalf("crashed checkpoint returned %v, want ErrCrashed", err)
			}

			rec, err := Recover(WALConfig{Dir: dir})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if !rec.Verdict.Correct {
				t.Fatal("recovered execution failed the Comp-C check")
			}
			conserved(t, rec.Runtime, initial)
			if rec.Stats.Committed != 16 {
				t.Fatalf("recovered %d commits, want 16", rec.Stats.Committed)
			}
			if site.advance {
				if rec.Stats.CheckpointLSN <= first.LSN {
					t.Fatalf("marker was durable before the crash; recovery anchored at %d, want past %d",
						rec.Stats.CheckpointLSN, first.LSN)
				}
			} else if rec.Stats.CheckpointLSN != first.LSN {
				t.Fatalf("recovery anchored at %d, want the surviving first marker %d",
					rec.Stats.CheckpointLSN, first.LSN)
			}
		})
	}
}

// TestCheckpointCadenceAndMetrics checks EnableCheckpoints' Every knob
// drives Checkpoint automatically and the metrics counters move.
func TestCheckpointCadenceAndMetrics(t *testing.T) {
	topo := transferTopo()
	rt := topo.NewRuntime(Hybrid)
	rt.Store("east").Set("acct", 4000)
	dir := t.TempDir() + "/wal"
	if err := rt.EnableWAL(WALConfig{Dir: dir, SegmentBytes: 512}); err != nil {
		t.Fatal(err)
	}
	rt.EnableCheckpoints(CheckpointConfig{Every: 4})
	submitSerial(t, rt, transferPrograms(16), 0)
	if got := rt.Checkpoints(); got != 4 {
		t.Fatalf("16 commits at Every=4 took %d checkpoints, want 4", got)
	}
	m := rt.Metrics()
	if m.CheckpointsTaken != 4 || m.NodesPruned == 0 || m.SegmentsTruncated == 0 {
		t.Fatalf("metrics %+v: checkpoint counters did not move", m)
	}
	if err := rt.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	conserved(t, rec.Runtime, 4000)
	if rec.Stats.Committed != 16 {
		t.Fatalf("recovered %d commits, want 16", rec.Stats.Committed)
	}
}

// TestOverloadBackpressure: above the high watermark Submit rejects with
// ErrOverload; the watermark-triggered checkpoint drains the engine and
// re-opens admission.
func TestOverloadBackpressure(t *testing.T) {
	topo := transferTopo()
	rt := topo.NewRuntime(Hybrid)
	rt.Store("east").Set("acct", 2000)
	rt.EnableCheckpoints(CheckpointConfig{HighWater: 8})

	// While throttled, admission fails fast with the typed error.
	rt.ck.throttle.Store(true)
	if _, err := rt.Submit("Tover", transferPrograms(1)[0]); !errors.Is(err, ErrOverload) {
		t.Fatalf("throttled Submit returned %v, want ErrOverload", err)
	}
	if rt.Metrics().OverloadThrottles != 1 {
		t.Fatalf("throttle rejections = %d, want 1", rt.Metrics().OverloadThrottles)
	}
	rt.ck.throttle.Store(false)

	// Organic path: the watermark trips at some commit, a checkpoint
	// drains the execution index, and admission re-opens — serial submission must
	// therefore never observe the throttle.
	submitSerial(t, rt, transferPrograms(40), 0)
	if rt.Throttled() {
		t.Fatal("watermark checkpoint failed to lift the throttle")
	}
	if rt.Checkpoints() == 0 {
		t.Fatal("the high watermark never triggered a checkpoint")
	}
	if n := rt.ix.live(); n >= 8+6 {
		t.Fatalf("live nodes = %d: the watermark is not bounding engine memory", n)
	}
}

// TestOverloadCountsPinnedEngine: a live attempt pins every root
// admitted after it began in the certifier's engine, which a cut does not
// drop. The watermark counts the engine, so admission is throttled until
// the attempt finishes; its commit retires every root and re-opens it.
func TestOverloadCountsPinnedEngine(t *testing.T) {
	topo := DiamondTopology()
	rt := topo.NewRuntime(Hybrid)
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	rt.EnableCheckpoints(CheckpointConfig{HighWater: 64})
	progs := GenPrograms(topo, WorkloadParams{Roots: 200, StepsPerTx: 3, Items: 8, ReadRatio: 0.3, WriteRatio: 0.3, Seed: 2})
	release := holdRetirement(t, rt)
	admitted := 0
	for ; admitted < len(progs); admitted++ {
		_, err := rt.Submit(fmt.Sprintf("T%d", admitted), progs[admitted])
		if errors.Is(err, ErrOverload) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if admitted == len(progs) {
		t.Fatalf("%d roots committed behind a live attempt and the throttle never tripped (live gauge %d)", admitted, rt.ix.live())
	}
	if rt.Checkpoints() == 0 || rt.ix.live() < 64 {
		t.Fatalf("throttled after %d roots with %d checkpoints and a live gauge of %d", admitted, rt.Checkpoints(), rt.ix.live())
	}
	release()
	if rt.Throttled() {
		t.Fatalf("the held root committed, yet admission stays throttled (live gauge %d)", rt.ix.live())
	}
	if _, err := rt.Submit("T-next", progs[admitted]); err != nil {
		t.Fatalf("admission after the pin lifted: %v", err)
	}
}

// TestCheckpointConcurrentOptimistic hammers a checkpoint cadence against
// concurrent optimistic snapshot readers and writers (run with -race):
// compaction at the snapshot frontier must never produce a torn read, and
// the final execution must verify.
func TestCheckpointConcurrentOptimistic(t *testing.T) {
	const (
		writers      = 4
		readers      = 4
		txsPerClient = 30
		invariantSum = 900
	)
	rt := mvccTopology(data.SemanticTable()).NewRuntime(OpenNested)
	rt.Exec = ExecOptimistic
	rt.Store("C1").Set("a", invariantSum)
	rt.EnableCheckpoints(CheckpointConfig{Every: 7})

	var wg sync.WaitGroup
	var retried atomic.Int64
	submit := func(name string, prog Invocation) {
		for {
			_, err := rt.Submit(name, prog)
			if err == nil {
				return
			}
			if errors.Is(err, ErrOverload) {
				retried.Add(1)
				continue
			}
			t.Error(err)
			return
		}
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txsPerClient; i++ {
				submit(fmt.Sprintf("W%d-%d", w, i), Invocation{Component: "C1", Steps: []Step{
					stepIncr("a", -2), stepIncr("b", 2),
				}})
			}
		}(w)
	}
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < txsPerClient; i++ {
				name := fmt.Sprintf("R%d-%d", c, i)
				for {
					res, err := rt.Submit(name, Invocation{Component: "C1", Steps: []Step{
						stepRead("a"), stepRead("b"),
					}})
					if errors.Is(err, ErrOverload) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					if sum := res.Values[0] + res.Values[1]; sum != invariantSum {
						t.Errorf("torn snapshot under checkpointing: a=%d b=%d", res.Values[0], res.Values[1])
					}
					break
				}
			}
		}(c)
	}
	wg.Wait()
	if got := rt.Store("C1").Get("a") + rt.Store("C1").Get("b"); got != invariantSum {
		t.Fatalf("final sum = %d, want %d", got, invariantSum)
	}
	if rt.Checkpoints() == 0 {
		t.Fatal("the cadence never fired under load")
	}
	// The index holds only the tail since the last checkpoint; it must
	// still be a valid, verifiable execution.
	sys := rt.RecordedSystem()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointBoundsMemory is the structural soak: with a cadence, the
// three unbounded structures — execution index forest, MVCC version
// chains, WAL segments — must all stay flat while the commit horizon
// grows 10x.
func TestCheckpointBoundsMemory(t *testing.T) {
	horizon := 400
	if testing.Short() {
		horizon = 80
	}
	topo := transferTopo()
	rt := topo.NewRuntime(Hybrid)
	rt.Store("east").Set("acct", int64(horizon)*10)
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/wal"
	if err := rt.EnableWAL(WALConfig{Dir: dir, SyncEvery: 16, SegmentBytes: 4096}); err != nil {
		t.Fatal(err)
	}
	rt.EnableCheckpoints(CheckpointConfig{Every: 20})

	var maxNodes, maxVersions int
	for i := 0; i < horizon; i++ {
		if _, err := rt.Submit(fmt.Sprintf("T%d", i+1), transferPrograms(1)[0]); err != nil {
			t.Fatal(err)
		}
		if n := rt.ix.live(); n > maxNodes {
			maxNodes = n
		}
		if v := rt.Store("east").VersionCount("acct"); v > maxVersions {
			maxVersions = v
		}
	}
	// Bounds scale with the cadence (20 commits × a handful of
	// nodes/versions each), NOT with the horizon.
	if maxNodes > 20*8 {
		t.Fatalf("live nodes peaked at %d over %d commits: engine memory is not bounded", maxNodes, horizon)
	}
	if maxVersions > 20+4 {
		t.Fatalf("version chain peaked at %d over %d commits: compaction is not holding", maxVersions, horizon)
	}
	m := rt.Metrics()
	if m.SegmentsTruncated == 0 || m.VersionsCompacted == 0 {
		t.Fatalf("metrics %+v: truncation/compaction never happened", m)
	}
	if err := rt.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	// Recovery replays only the tail: the scanned record count is bounded
	// by the cadence, not the horizon.
	rec, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.Committed != horizon {
		t.Fatalf("recovered %d commits, want %d", rec.Stats.Committed, horizon)
	}
	if tail := rec.Stats.Records - rec.Stats.Skipped; tail > horizon*8/2 {
		t.Fatalf("recovery replayed %d tail records over a %d-commit horizon: truncation is not bounding the log", tail, horizon)
	}
	conserved(t, rec.Runtime, int64(horizon)*10)
}
