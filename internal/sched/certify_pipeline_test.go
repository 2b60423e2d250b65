package sched

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
)

// oracleReplay rebuilds the certified history on a fresh always-admit
// engine: every delta the pipeline absorbed — fast path or not — is
// re-admitted in admission order, exactly as rejection recovery replays
// the tail. The returned system is the reference the fast-path certifier
// must match byte-for-byte.
func oracleReplay(t *testing.T, rt *Runtime) *model.System {
	t.Helper()
	c := rt.certifier()
	if c == nil {
		t.Fatal("certification is off")
	}
	c.mu.Lock()
	tail := append([]*front.Delta(nil), c.tail...)
	c.mu.Unlock()
	oracle := front.NewIncremental(front.IncrementalOptions{PropagateInputs: true})
	for i, d := range tail {
		v, err := oracle.Admit(d)
		if err != nil {
			t.Fatalf("oracle admit of tail delta %d: %v", i, err)
		}
		if v != nil {
			t.Fatalf("oracle rejected tail delta %d: %s", i, v.Reason)
		}
	}
	return oracle.System()
}

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
// certifier's accumulated system is byte-identical to a fresh
// always-admit oracle engine replaying the same admitted deltas; the
// fast path must fire on the disjoint-leaning mixes.
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
			if mix.fold {
				// The folds dropped the tail's baseline and the recorder's
				// prefix, so neither oracle below has the history to compare
				// with; what is left must still be a Comp-C system.
				if m.CheckpointsTaken == 0 {
					t.Fatalf("%s/seed%d: no checkpoint ran", mix.name, seed)
				}
				cs := rt.CertifiedSystem()
				if err := cs.Validate(); err != nil {
					t.Fatalf("%s/seed%d: folded certified system malformed: %v", mix.name, seed, err)
				}
				if ok, err := front.IsCompC(cs); err != nil || !ok {
					t.Fatalf("%s/seed%d: folded certified system must be Comp-C (ok=%v err=%v)", mix.name, seed, ok, err)
				}
				continue
			}
			got := encodeSystem(t, rt.CertifiedSystem())
			want := encodeSystem(t, oracleReplay(t, rt))
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/seed%d: certified system diverged from always-admit oracle:\ncertified: %s\noracle:    %s",
					mix.name, seed, got, want)
			}
			// The certified history and the recorder's committed
			// projection agree on the verdict and the node population.
			rec := rt.RecordedSystem()
			if cs := rt.CertifiedSystem(); cs.NumNodes() != rec.NumNodes() {
				t.Fatalf("%s/seed%d: certifier has %d nodes, recorder %d", mix.name, seed, cs.NumNodes(), rec.NumNodes())
			}
			// And byte for byte: the recorder shares none of the certifier's
			// deltas — assembleSystem derives every pair post hoc from the
			// seq-sorted events.
			if want := encodeSystem(t, rec); !bytes.Equal(got, want) {
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

// TestCertifyRejectionRebuild drives a real rejection through the
// pipeline and checks the recovery story: the rebuild counters tick, the
// runtime keeps certifying commits afterwards, and the rebuilt engine is
// still byte-identical to the always-admit oracle over the admitted
// deltas.
func TestCertifyRejectionRebuild(t *testing.T) {
	rt := DiamondTopology().NewRuntime(OpenNested)
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	errA, errB := submitCrossedWrites(t, rt, "TA", "TB")
	rejects := 0
	for _, err := range []error{errA, errB} {
		if err != nil {
			if !errors.Is(err, ErrCertifyViolation) {
				t.Fatalf("unexpected submit error: %v", err)
			}
			rejects++
		}
	}
	if rejects != 1 {
		t.Fatalf("want exactly one rejection, got %d (A=%v B=%v)", rejects, errA, errB)
	}

	// Life goes on: post-rejection commits are certified and admitted.
	if _, err := rt.Submit("T-after", Invocation{
		Component: "agencyA",
		Steps: []Step{{Invoke: &Invocation{Component: "ledger", Item: "z", Mode: data.ModeWrite,
			Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: "z", Arg: 1}}}}}},
	}); err != nil {
		t.Fatal(err)
	}

	m := rt.Metrics()
	if m.CertifyRejects != 1 {
		t.Fatalf("certify-rejects = %d, want 1", m.CertifyRejects)
	}
	if m.CertifyRebuildNanos <= 0 {
		t.Fatalf("certify-rebuild-ns = %d, want > 0 after a rejection", m.CertifyRebuildNanos)
	}
	if s := m.String(); !strings.Contains(s, "certify-rebuild-ns=") || !strings.Contains(s, "certify-fastpath=") {
		t.Fatalf("Metrics.String misses the certify counters: %s", s)
	}

	got := encodeSystem(t, rt.CertifiedSystem())
	want := encodeSystem(t, oracleReplay(t, rt))
	if !bytes.Equal(got, want) {
		t.Fatalf("rebuilt certifier diverged from always-admit oracle:\ncertified: %s\noracle:    %s", got, want)
	}
	ok, err := front.IsCompC(rt.RecordedSystem())
	if err != nil || !ok {
		t.Fatalf("committed history after rejection+rebuild must be Comp-C (ok=%v err=%v)", ok, err)
	}
}

// TestCertifyCheckpointFoldPipeline runs the pipeline across checkpoint
// folds: the fold clears the delta tail and conflict index mid-stream,
// in-flight snapshots are invalidated by the fold generation, and the
// certifier keeps admitting correctly — with the post-fold tail still
// replaying cleanly onto the folded engine's contract (no pair may
// reference a folded node).
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
