package sched

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
)

func encodeSystem(t *testing.T, sys *model.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// engineHolds asserts that the certifier's engine holds want byte for
// byte, and that want has the given number of roots, at least one.
func engineHolds(t *testing.T, tag string, rt *Runtime, want *model.System, roots int) {
	t.Helper()
	if n := len(want.Roots()); roots == 0 || n != roots {
		t.Fatalf("%s: the comparison covers %d roots, want %d (at least one)", tag, n, roots)
	}
	rt.ix.mu.Lock()
	got := encodeSystem(t, rt.ix.inc.System())
	rt.ix.mu.Unlock()
	if w := encodeSystem(t, want); !bytes.Equal(got, w) {
		t.Fatalf("%s: the engine diverged from the committed execution:\nengine: %s\nwant:   %s", tag, got, w)
	}
}

// engineEmpty asserts that the certifier's engine has dropped every root.
func engineEmpty(t *testing.T, tag string, rt *Runtime) {
	t.Helper()
	rt.ix.mu.Lock()
	n := rt.ix.inc.LiveNodes()
	rt.ix.mu.Unlock()
	if n != 0 {
		t.Fatalf("%s: with no attempt live the engine still holds %d nodes", tag, n)
	}
}

// fileWhole files every stage the certifier admits from now on in a
// second index, which no cut touches, and returns it. Read it once no
// admission is in flight.
func fileWhole(rt *Runtime) *execIndex {
	whole := newExecIndex(rt.comps)
	rt.ix.observe = func(d *front.Delta, evs []event) { whole.file(&stagedRecord{d.Nodes, evs}) }
	return whole
}

// holdRetirement submits a root that, once begun, waits before its only
// step until released. While it is live no root admitted after it began
// retires, so the engine keeps every one of them. release lets it commit.
func holdRetirement(t *testing.T, rt *Runtime) (release func()) {
	t.Helper()
	began, gate, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	var once sync.Once
	go func() {
		_, err := rt.Submit("T-hold", Invocation{Component: "agencyA", Steps: []Step{{
			Sync: func() { once.Do(func() { close(began) }); <-gate },
			Invoke: &Invocation{Component: "ledger", Item: "hold", Mode: data.ModeRead,
				Steps: []Step{{Op: &data.Op{Mode: data.ModeRead, Item: "hold"}}}},
		}}})
		done <- err
	}()
	<-began
	return func() {
		close(gate)
		if err := <-done; err != nil {
			t.Fatalf("held root: %v", err)
		}
	}
}

// TestCertifyPipelineByteIdentity is the pipeline's soundness property:
// over random workloads — conflicting and disjoint, run by concurrent
// clients (so admission interleaves with delta construction, and under
// -race the pipeline's synchronization is exercised for real) — while a
// held root keeps every admitted root unretired, the certifier's engine
// is byte-identical to the committed execution as an index derives it
// post hoc from its slots: RecordedSystem, or, with a cut after every
// commit, a second index no cut touches. Once the held root commits,
// every root retires and the engine is empty. The fast path must fire on
// the disjoint-leaning mixes.
func TestCertifyPipelineByteIdentity(t *testing.T) {
	sawFast := false
	for seed := int64(1); seed <= 4; seed++ {
		for _, mix := range []struct {
			name        string
			items       int
			read, write float64
			fold        bool
		}{
			{"conflicting", 2, 0.2, 0.6, false},
			{"disjoint-leaning", 64, 0.7, 0.1, false},
			// A checkpoint after every commit: a cut lands between almost
			// every stage's build and its admission, and the events of the
			// roots the engine keeps live on in the carry only.
			{"conflicting-folded", 2, 0.2, 0.6, true},
			// Cuts while the engine parks: a parked delta's nodes outlive
			// the cut that drops them from the index.
			{"disjoint-leaning-folded", 64, 0.7, 0.1, true},
		} {
			tag := fmt.Sprintf("%s/seed%d", mix.name, seed)
			topo := DiamondTopology()
			rt := topo.NewRuntime(Hybrid)
			if err := rt.EnableCertify(); err != nil {
				t.Fatal(err)
			}
			if mix.fold {
				rt.EnableCheckpoints(CheckpointConfig{Every: 1})
			}
			whole := fileWhole(rt)
			progs := GenPrograms(topo, WorkloadParams{
				Roots: 24, StepsPerTx: 3, Items: mix.items,
				ReadRatio: mix.read, WriteRatio: mix.write, Seed: seed,
			})
			release := holdRetirement(t, rt)
			if err := Run(rt, progs, 8); err != nil {
				t.Fatal(err)
			}
			want := rt.RecordedSystem()
			if mix.fold {
				if rt.Metrics().CheckpointsTaken == 0 {
					t.Fatalf("%s: no checkpoint ran", tag)
				}
				want = whole.system()
			}
			engineHolds(t, tag, rt, want, 24)
			release()
			m := rt.Metrics()
			if m.Commits != 25 || m.CertifyRejects != 0 {
				t.Fatalf("%s: commits=%d rejects=%d, want 25/0", tag, m.Commits, m.CertifyRejects)
			}
			if m.CertifyFastPath > 0 {
				sawFast = true
			}
			engineEmpty(t, tag, rt)
		}
	}
	if !sawFast {
		t.Fatal("sweep never exercised the fast path")
	}
}

// TestCertifyAfterWALTypedError is the EnableCertify/EnableWAL ordering
// regression: enabling certification on a runtime whose WAL is already
// attached must fail with ErrCertifyAfterWAL (the journaled metadata
// record cannot be amended), leaving certification off.
func TestCertifyAfterWALTypedError(t *testing.T) {
	rt := DiamondTopology().NewRuntime(Hybrid)
	if err := rt.EnableWAL(WALConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	err := rt.EnableCertify()
	if !errors.Is(err, ErrCertifyAfterWAL) {
		t.Fatalf("EnableCertify after EnableWAL: got %v, want ErrCertifyAfterWAL", err)
	}
	if rt.Certifying() {
		t.Fatal("failed EnableCertify left certification on")
	}
	// The correct order still works.
	rt2 := DiamondTopology().NewRuntime(Hybrid)
	if err := rt2.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	if err := rt2.EnableWAL(WALConfig{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if !rt2.Certifying() {
		t.Fatal("certify-then-WAL runtime is not certifying")
	}
}

// TestCertifyRejectionRollback drives rejections through the certifier
// while other roots commit concurrently, with and without a checkpoint
// after every commit, and a held root keeping every admitted root
// unretired. Each rejection is rolled back inside the engine: the
// certifier keeps its *front.Incremental and its Rebuilds() across all of
// them, later commits are certified, and the engine holds the committed
// execution byte for byte — RecordedSystem, or, with cuts, a second index
// no cut touches. The cuts land inside the crossed pairs, and each pair
// still has exactly one root rejected.
func TestCertifyRejectionRollback(t *testing.T) {
	for _, fold := range []bool{false, true} {
		topo := DiamondTopology()
		rt := topo.NewRuntime(OpenNested)
		if err := rt.EnableCertify(); err != nil {
			t.Fatal(err)
		}
		if fold {
			rt.EnableCheckpoints(CheckpointConfig{Every: 1})
		}
		whole := fileWhole(rt)
		release := holdRetirement(t, rt)
		// One client declares every schedule and invocation edge, so no
		// later commit changes the level assignment.
		params := WorkloadParams{Roots: 24, StepsPerTx: 3, Items: 64, ReadRatio: 0.3, WriteRatio: 0.3, Seed: 5}
		if err := Run(rt, GenPrograms(topo, params), 1); err != nil {
			t.Fatal(err)
		}
		ix := rt.ix
		ix.mu.Lock()
		inc, rebuilds := ix.inc, ix.inc.Rebuilds()
		ix.mu.Unlock()

		const pairs = 4
		params.Seed = 6
		progs := GenPrograms(topo, params)
		errs := make(chan error, len(progs))
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(progs); i += 2 {
					_, err := rt.Submit(fmt.Sprintf("U%d", i), progs[i])
					errs <- err
				}
			}(w)
		}
		for k := 0; k < pairs; k++ {
			errA, errB := submitCrossedWrites(t, rt, fmt.Sprintf("TA%d", k), fmt.Sprintf("TB%d", k))
			if n := crossedRejects(t, errA, errB); n != 1 {
				t.Fatalf("fold=%v: pair %d: %d roots rejected, want exactly one (A=%v B=%v)", fold, k, n, errA, errB)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil && !errors.Is(err, ErrCertifyViolation) {
				t.Fatalf("fold=%v: concurrent commit: %v", fold, err)
			}
		}
		if _, err := rt.Submit("T-after", Invocation{
			Component: "agencyA",
			Steps: []Step{{Invoke: &Invocation{Component: "ledger", Item: "z", Mode: data.ModeWrite,
				Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: "z", Arg: 1}}}}}},
		}); err != nil {
			t.Fatalf("fold=%v: commit after the rejections: %v", fold, err)
		}

		m := rt.Metrics()
		ix.mu.Lock()
		same, now := ix.inc == inc, ix.inc.Rebuilds()
		certified := ix.inc.System().Node("T-after") != nil
		ix.mu.Unlock()
		if !same || now != rebuilds {
			t.Fatalf("fold=%v: across %d rejections the engine was replaced (%v) or rebuilt %d times",
				fold, m.CertifyRejects, !same, now-rebuilds)
		}
		if !certified {
			t.Fatalf("fold=%v: the commit after the rejections is not in the engine", fold)
		}
		want := rt.RecordedSystem()
		if fold {
			want = whole.system()
		}
		if ok, err := front.IsCompC(want); err != nil || !ok {
			t.Fatalf("fold=%v: history after rejections must be Comp-C (ok=%v err=%v)", fold, ok, err)
		}
		engineHolds(t, fmt.Sprintf("fold=%v", fold), rt, want, int(m.Commits))
		release()
	}
	if s := (Metrics{CertifyRejects: 1}).String(); !strings.Contains(s, "certify-rejects=1 certify-fastpath=0") {
		t.Fatalf("Metrics.String misses the certify counters: %s", s)
	}
}

// TestCertifyCheckpointFoldPipeline runs the pipeline across checkpoint
// cuts: a cut empties the execution index's record mid-stream, and the
// certifier keeps admitting correctly — no pair may reference a root the
// engine has dropped.
func TestCertifyCheckpointFoldPipeline(t *testing.T) {
	topo := DiamondTopology()
	rt := topo.NewRuntime(Hybrid)
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	rt.EnableCheckpoints(CheckpointConfig{Every: 8})
	progs := GenPrograms(topo, WorkloadParams{
		Roots: 40, StepsPerTx: 3, Items: 4,
		ReadRatio: 0.3, WriteRatio: 0.3, Seed: 3,
	})
	if err := Run(rt, progs, 8); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Commits != 40 || m.CertifyRejects != 0 {
		t.Fatalf("commits=%d rejects=%d, want 40/0", m.Commits, m.CertifyRejects)
	}
	if m.CheckpointsTaken == 0 {
		t.Fatal("no checkpoint ran — the fold path was not exercised")
	}
	// After the cuts the record holds only the tail; it must still be a
	// valid, Comp-C system.
	cs := rt.CertifiedSystem()
	if err := cs.Validate(); err != nil {
		t.Fatalf("folded certified system malformed: %v", err)
	}
	ok, err := front.IsCompC(cs)
	if err != nil || !ok {
		t.Fatalf("folded certified system must be Comp-C (ok=%v err=%v)", ok, err)
	}
}

// TestRetireAgainstAlwaysKeep checks retirement against oracles that do
// not share its rule. A test observer on the index feeds every admitted
// delta to a second engine, which never retires, and files every admitted
// stage in a second index, which is never cut. On the diamond with 8
// clients, under open nesting and Hybrid, at cadences 0, 1, 7 and 64:
// the second engine accepts each delta, and its system and the second
// index's — the whole committed execution, every pair derived post hoc —
// pass CheckReference.
func TestRetireAgainstAlwaysKeep(t *testing.T) {
	for _, p := range []Protocol{OpenNested, Hybrid} {
		for _, every := range []int{0, 1, 7, 64} {
			tag := fmt.Sprintf("%s/every=%d", p, every)
			topo := DiamondTopology()
			rt := topo.NewRuntime(p)
			if err := rt.EnableCertify(); err != nil {
				t.Fatal(err)
			}
			rt.EnableCheckpoints(CheckpointConfig{Every: every})
			keep := front.NewIncremental(front.IncrementalOptions{PropagateInputs: true})
			whole := newExecIndex(rt.comps)
			var refused error
			rt.ix.observe = func(d *front.Delta, evs []event) {
				// The second engine may park its delta past a cut that
				// reuses the index's nodes in place: it gets its own copy.
				kd := *d
				kd.Nodes = slices.Clone(d.Nodes)
				if v, err := keep.Admit(&kd); (v != nil || err != nil) && refused == nil {
					refused = fmt.Errorf("the always-keep engine refused %s: verdict %v, err %v", d.Nodes[0].ID, v, err)
				}
				whole.file(&stagedRecord{d.Nodes, evs})
			}
			progs := GenPrograms(topo, WorkloadParams{
				Roots: 48, StepsPerTx: 3, Items: 4,
				ReadRatio: 0.3, WriteRatio: 0.3, Seed: int64(every) + 1,
			})
			outcomes, _ := Drive(rt, progs, 8)
			for _, o := range outcomes {
				if o.Err != nil && !errors.Is(o.Err, ErrCertifyViolation) {
					t.Fatalf("%s: %v", tag, o.Err)
				}
			}
			if refused != nil {
				t.Fatalf("%s: %v", tag, refused)
			}
			m := rt.Metrics()
			if p == Hybrid && m.CertifyRejects != 0 {
				t.Fatalf("%s: the sound protocol had %d commits rejected", tag, m.CertifyRejects)
			}
			for name, sys := range map[string]*model.System{"always-keep engine": keep.System(), "whole index": whole.system()} {
				if v, err := front.CheckReference(sys, front.Options{}); err != nil || !v.Correct {
					t.Fatalf("%s: the %s's system is not Comp-C (%v, %v)", tag, name, v, err)
				}
			}
			t.Logf("%s: commits=%d rejects=%d checkpoints=%d", tag, m.Commits, m.CertifyRejects, m.CheckpointsTaken)
		}
	}
}
