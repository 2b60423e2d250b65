package sched

import (
	"bytes"
	"errors"
	"fmt"
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

// TestCertifyPipelineByteIdentity is the pipeline's soundness property:
// over random workloads — conflicting and disjoint, run by concurrent
// clients (so admission interleaves with delta construction, and under
// -race the pipeline's synchronization is exercised for real) — the
// certifier's accumulated system is byte-identical to RecordedSystem,
// whose delta() derives every pair post hoc from the index's slots, with
// and without a fold after every commit; the fast path must fire on the
// disjoint-leaning mixes.
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
			// A checkpoint after every commit: a fold lands between almost
			// every stage's build and its admission. A pair derived before
			// the fold and admitted after it would name a folded node and
			// fail the Submit with the engine's validation error.
			{"conflicting-folded", 2, 0.2, 0.6, true},
		} {
			topo := DiamondTopology()
			rt := topo.NewRuntime(Hybrid)
			if err := rt.EnableCertify(); err != nil {
				t.Fatal(err)
			}
			if mix.fold {
				rt.EnableCheckpoints(CheckpointConfig{Every: 1})
			}
			progs := GenPrograms(topo, WorkloadParams{
				Roots: 24, StepsPerTx: 3, Items: mix.items,
				ReadRatio: mix.read, WriteRatio: mix.write, Seed: seed,
			})
			if err := Run(rt, progs, 8); err != nil {
				t.Fatal(err)
			}
			m := rt.Metrics()
			if m.Commits != 24 || m.CertifyRejects != 0 {
				t.Fatalf("%s/seed%d: commits=%d rejects=%d, want 24/0", mix.name, seed, m.Commits, m.CertifyRejects)
			}
			if m.CertifyFastPath > 0 {
				sawFast = true
			}
			if mix.fold && m.CheckpointsTaken == 0 {
				t.Fatalf("%s/seed%d: no checkpoint ran", mix.name, seed)
			}
			// The certifier shares none of delta()'s pairs: those are
			// derived post hoc from the seq-ordered slots.
			got := encodeSystem(t, rt.CertifiedSystem())
			if want := encodeSystem(t, rt.RecordedSystem()); !bytes.Equal(got, want) {
				t.Fatalf("%s/seed%d: certified system diverged from the recorded one:\ncertified: %s\nrecorded:  %s",
					mix.name, seed, got, want)
			}
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
// fold after every rejection. Each rejection is rolled back inside the
// engine: the certifier keeps its *front.Incremental and its Rebuilds()
// across all of them, later commits are certified, and the certified
// system stays the recorded one byte for byte, folds or not. The folds
// come between the crossed pairs, not from a cadence: a fold between the
// two commits of a pair would drop the first before the second is
// certified, and nothing would be rejected.
func TestCertifyRejectionRollback(t *testing.T) {
	for _, fold := range []bool{false, true} {
		topo := DiamondTopology()
		rt := topo.NewRuntime(OpenNested)
		if err := rt.EnableCertify(); err != nil {
			t.Fatal(err)
		}
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
			for _, err := range []error{errA, errB} {
				if err != nil && !errors.Is(err, ErrCertifyViolation) {
					t.Fatalf("fold=%v: unexpected submit error: %v", fold, err)
				}
			}
			if fold {
				if _, err := rt.Checkpoint(); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
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
		if m.CertifyRejects < pairs {
			t.Fatalf("fold=%v: %d rejections, want at least one per crossed pair (%d)", fold, m.CertifyRejects, pairs)
		}
		ix.mu.Lock()
		same, now := ix.inc == inc, ix.inc.Rebuilds()
		ix.mu.Unlock()
		if !same || now != rebuilds {
			t.Fatalf("fold=%v: across %d rejections the engine was replaced (%v) or rebuilt %d times",
				fold, m.CertifyRejects, !same, now-rebuilds)
		}
		cs, rec := rt.CertifiedSystem(), rt.RecordedSystem()
		if cs.Node("T-after") == nil {
			t.Fatalf("fold=%v: the commit after the rejections is not certified", fold)
		}
		for _, sys := range []*model.System{cs, rec} {
			if ok, err := front.IsCompC(sys); err != nil || !ok {
				t.Fatalf("fold=%v: history after rejections must be Comp-C (ok=%v err=%v)", fold, ok, err)
			}
		}
		if !bytes.Equal(encodeSystem(t, cs), encodeSystem(t, rec)) {
			t.Fatalf("certified system diverged from the recorded one:\ncertified: %s\nrecorded:  %s",
				encodeSystem(t, cs), encodeSystem(t, rec))
		}
	}
	if s := (Metrics{CertifyRejects: 1}).String(); !strings.Contains(s, "certify-rejects=1 certify-fastpath=0") {
		t.Fatalf("Metrics.String misses the certify counters: %s", s)
	}
}

// TestCertifyCheckpointFoldPipeline runs the pipeline across checkpoint
// folds: the fold empties the execution index and the engine
// mid-stream, and the certifier keeps admitting correctly — with the
// post-fold tail still replaying cleanly onto the folded engine's
// contract (no pair may reference a folded node).
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
	// After the folds the certifier holds only the live tail; it must
	// still be a valid, Comp-C system.
	cs := rt.CertifiedSystem()
	if err := cs.Validate(); err != nil {
		t.Fatalf("folded certified system malformed: %v", err)
	}
	ok, err := front.IsCompC(cs)
	if err != nil || !ok {
		t.Fatalf("folded certified system must be Comp-C (ok=%v err=%v)", ok, err)
	}
}
