package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
)

// submitCrossedWrites drives the Figure 3 interference of
// TestOpenNestedUnsoundOnDiamond: two roots sharing no component
// scheduler interleave crossed writes on the shared ledger. It returns
// the two Submit errors.
func submitCrossedWrites(t *testing.T, rt *Runtime, rootA, rootB string) (errA, errB error) {
	t.Helper()
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
		_, errA = rt.Submit(rootA, Invocation{
			Component: "agencyA",
			Steps: []Step{
				{Invoke: write("x")},
				{Sync: func() { onceX.Do(func() { close(aWroteX) }); <-bWroteY }, Invoke: write("y")},
			},
		})
	}()
	go func() {
		defer wg.Done()
		_, errB = rt.Submit(rootB, Invocation{
			Component: "agencyB",
			Steps: []Step{
				{Sync: func() { <-aWroteX }, Invoke: write("y")},
				{Sync: func() { onceY.Do(func() { close(bWroteY) }) }, Invoke: write("x")},
			},
		})
	}()
	wg.Wait()
	return errA, errB
}

// crossedRejects counts the certifier rejections among a crossed pair's
// Submit errors; any other error fails the test.
func crossedRejects(t *testing.T, errs ...error) int {
	t.Helper()
	n := 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrCertifyViolation) {
			t.Fatalf("unexpected submit error: %v", err)
		}
		n++
	}
	return n
}

// TestCertifyCrossedPairsAtEveryCadence: five crossed-write pairs on the
// diamond under open nesting reject exactly one root each, with no
// checkpoint cadence, with a cut after every commit — so a cut lands
// between the two commits of each pair — and with a cut every 64. A cut
// must not drop what a live attempt can still be ordered before.
func TestCertifyCrossedPairsAtEveryCadence(t *testing.T) {
	for _, every := range []int{0, 1, 64} {
		rt := DiamondTopology().NewRuntime(OpenNested)
		if err := rt.EnableCertify(); err != nil {
			t.Fatal(err)
		}
		rt.EnableCheckpoints(CheckpointConfig{Every: every})
		for k := 0; k < 5; k++ {
			errA, errB := submitCrossedWrites(t, rt, fmt.Sprintf("TA%d", k), fmt.Sprintf("TB%d", k))
			if n := crossedRejects(t, errA, errB); n != 1 {
				t.Fatalf("every=%d: pair %d: %d roots rejected, want exactly one (A=%v B=%v)", every, k, n, errA, errB)
			}
		}
		if m := rt.Metrics(); m.Commits != 5 || m.CertifyRejects != 5 {
			t.Fatalf("every=%d: commits=%d rejects=%d, want 5/5", every, m.Commits, m.CertifyRejects)
		}
	}
}

// TestCertifyRejectsDiamondViolation is the tentpole's headline: the same
// crossed-writes interleaving that TestOpenNestedUnsoundOnDiamond detects
// post-hoc is rejected AT COMMIT TIME under certification — exactly one
// of the two roots fails with a CertifyError carrying the violation
// witness, and the committed history stays Comp-C.
func TestCertifyRejectsDiamondViolation(t *testing.T) {
	rt := DiamondTopology().NewRuntime(OpenNested)
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	errA, errB := submitCrossedWrites(t, rt, "TA", "TB")

	var rejected []error
	for _, err := range []error{errA, errB} {
		if err != nil {
			rejected = append(rejected, err)
		}
	}
	if len(rejected) != 1 {
		t.Fatalf("want exactly one rejected commit, got errors: A=%v B=%v", errA, errB)
	}
	var cerr *CertifyError
	if !errors.As(rejected[0], &cerr) || !errors.Is(rejected[0], ErrCertifyViolation) {
		t.Fatalf("rejection is not a CertifyError: %v", rejected[0])
	}
	if cerr.Verdict == nil || cerr.Verdict.Correct || cerr.Verdict.Reason == "" {
		t.Fatalf("rejection carries no violation witness: %+v", cerr.Verdict)
	}

	m := rt.Metrics()
	if m.CertifyRejects != 1 {
		t.Fatalf("certify-rejects = %d, want 1", m.CertifyRejects)
	}
	if m.Commits != 1 {
		t.Fatalf("commits = %d, want 1", m.Commits)
	}
	// The rejected transaction was rolled back: the committed history is
	// Comp-C.
	sys := rt.RecordedSystem()
	if err := sys.Validate(); err != nil {
		t.Fatalf("committed history malformed: %v", err)
	}
	ok, err := front.IsCompC(sys)
	if err != nil || !ok {
		t.Fatalf("committed history after rejection must be Comp-C (ok=%v err=%v)", ok, err)
	}
}

// TestCertifyAdmitsCorrectWorkloads runs a real concurrent workload under
// a sound protocol with certification on: nothing may be rejected, every
// commit goes through, and — a held root keeping every root unretired —
// the certifier's engine matches the recorded system.
func TestCertifyAdmitsCorrectWorkloads(t *testing.T) {
	for _, p := range []Protocol{ClosedNested, Hybrid} {
		t.Run(p.String(), func(t *testing.T) {
			topo := DiamondTopology()
			rt := topo.NewRuntime(p)
			if err := rt.EnableCertify(); err != nil {
				t.Fatal(err)
			}
			progs := GenPrograms(topo, WorkloadParams{
				Roots: 20, StepsPerTx: 3, Items: 4,
				ReadRatio: 0.3, WriteRatio: 0.3, Seed: 11,
			})
			release := holdRetirement(t, rt)
			if err := Run(rt, progs, 8); err != nil {
				t.Fatal(err)
			}
			engineHolds(t, p.String(), rt, rt.RecordedSystem(), 20)
			release()
			m := rt.Metrics()
			if m.Commits != 21 || m.CertifyRejects != 0 {
				t.Fatalf("commits=%d rejects=%d, want 21/0", m.Commits, m.CertifyRejects)
			}
			if v, err := front.Check(rt.RecordedSystem(), front.Options{}); err != nil || !v.Correct {
				t.Fatalf("recorded system: (%v, %v), want correct", v, err)
			}
		})
	}
}

// TestCertifySurvivesRecover checks the durability story: certify mode is
// journaled in the WAL metadata, Recover seeds the certifier from the
// recovered committed history, and the recovered runtime keeps rejecting
// violating interleavings at commit time.
func TestCertifySurvivesRecover(t *testing.T) {
	dir := t.TempDir()
	rt := DiamondTopology().NewRuntime(OpenNested)
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	// One benign committed transaction forms the pre-crash history.
	if _, err := rt.Submit("T-pre", Invocation{
		Component: "agencyA",
		Steps: []Step{{Invoke: &Invocation{Component: "ledger", Item: "x", Mode: data.ModeWrite,
			Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: "x", Arg: 5}}}}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rt2 := rec.Runtime
	if !rt2.Certifying() {
		t.Fatal("recovered runtime lost certify mode")
	}

	// The recovered certifier still rejects the crossed-writes violation.
	errA, errB := submitCrossedWrites(t, rt2, "TA2", "TB2")
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
		t.Fatalf("want exactly one rejected commit on the recovered runtime, got %d (A=%v B=%v)", rejects, errA, errB)
	}
	sys := rt2.RecordedSystem()
	ok, err := front.IsCompC(sys)
	if err != nil || !ok {
		t.Fatalf("recovered+certified history must be Comp-C (ok=%v err=%v)", ok, err)
	}
}

// seededEngine asserts that rt certifies from a seeded engine: no node
// held and no rebuild, so the only reduction of its history was the check
// that preceded seeding.
func seededEngine(t *testing.T, tag string, rt *Runtime) {
	t.Helper()
	if !rt.Certifying() {
		t.Fatalf("%s: the runtime is not certifying", tag)
	}
	rt.ix.mu.Lock()
	live, rebuilds := rt.ix.inc.LiveNodes(), rt.ix.inc.Rebuilds()
	rt.ix.mu.Unlock()
	if live != 0 || rebuilds != 0 {
		t.Fatalf("%s: the seeded engine holds %d nodes after %d rebuilds, want 0/0", tag, live, rebuilds)
	}
}

// ledgerWrite is one root at entry comp writing item at the ledger.
func ledgerWrite(comp, item string) Invocation {
	return Invocation{Component: comp, Steps: []Step{{Invoke: &Invocation{Component: "ledger", Item: item, Mode: data.ModeWrite,
		Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: item, Arg: 1}}}}}}}
}

// TestRecoverCertifiedCrossedPairs crashes a certified open-nested diamond
// runtime with a cut every 7 commits, among crossed-write pairs, and
// recovers it. The recovered certifier is seeded, not re-run, and holds
// the same line as before the crash: each crossed pair rejects exactly one
// root, as TestCertifyCrossedPairsAtEveryCadence requires.
func TestRecoverCertifiedCrossedPairs(t *testing.T) {
	dir := t.TempDir() + "/wal"
	rt := DiamondTopology().NewRuntime(OpenNested)
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	rt.EnableCheckpoints(CheckpointConfig{Every: 7})
	if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	pairs := func(rt *Runtime, tag string) {
		for k := 0; k < 5; k++ {
			errA, errB := submitCrossedWrites(t, rt, fmt.Sprintf("%sA%d", tag, k), fmt.Sprintf("%sB%d", tag, k))
			if n := crossedRejects(t, errA, errB); n != 1 {
				t.Fatalf("%s: pair %d: %d roots rejected, want exactly one (A=%v B=%v)", tag, k, n, errA, errB)
			}
			for i, comp := range []string{"agencyA", "agencyB"} {
				if _, err := rt.Submit(fmt.Sprintf("%sP%d.%d", tag, k, i), ledgerWrite(comp, "x")); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pairs(rt, "pre")
	rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultCrash, Txn: "crash", Step: "commit"}}})
	if _, err := rt.Submit("crash", ledgerWrite("agencyA", "z")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash injection: Submit returned %v, want ErrCrashed", err)
	}
	if rt.Checkpoints() == 0 {
		t.Fatal("no checkpoint ran before the crash")
	}

	rec, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Runtime.CloseWAL()
	if !rec.Verdict.Correct || rec.Stats.Committed != 15 {
		t.Fatalf("recovered %d commits, verdict %v; want 15, correct", rec.Stats.Committed, rec.Verdict)
	}
	seededEngine(t, "recovered", rec.Runtime)
	rec.Runtime.EnableCheckpoints(CheckpointConfig{Every: 7})
	pairs(rec.Runtime, "post")
	if m := rec.Runtime.Metrics(); m.Commits != 30 || m.CertifyRejects != 5 {
		t.Fatalf("after recovery: commits=%d rejects=%d, want 30/5", m.Commits, m.CertifyRejects)
	}
}

// TestEnableCertifyOverHistory turns certification on over an uncertified
// history. A violating one — the crossed writes open nesting lets through
// — is refused with a CertifyError naming no root, and certification
// stays off; a correct one is checked once and seeds the engine, which
// then rejects a crossed pair as a runtime certified from the start does.
func TestEnableCertifyOverHistory(t *testing.T) {
	bad := DiamondTopology().NewRuntime(OpenNested)
	if errA, errB := submitCrossedWrites(t, bad, "TA", "TB"); errA != nil || errB != nil {
		t.Fatalf("uncertified crossed writes: A=%v B=%v, want both committed", errA, errB)
	}
	err := bad.EnableCertify()
	var cerr *CertifyError
	if !errors.As(err, &cerr) || !errors.Is(err, ErrCertifyViolation) || cerr.Root != "" ||
		cerr.Verdict == nil || cerr.Verdict.Correct {
		t.Fatalf("EnableCertify over a violating history: %v, want a CertifyError with no root and a failure verdict", err)
	}
	if want, _ := front.Check(bad.RecordedSystem(), front.Options{}); cerr.Verdict.String() != want.String() {
		t.Fatalf("seed verdict %q, Check of the recorded system %q", cerr.Verdict, want)
	}
	if bad.Certifying() {
		t.Fatal("a refused history left certification on")
	}

	good := DiamondTopology().NewRuntime(OpenNested)
	for i, comp := range []string{"agencyA", "agencyB", "agencyA"} {
		if _, err := good.Submit(fmt.Sprintf("T%d", i), ledgerWrite(comp, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := good.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	seededEngine(t, "seeded", good)
	errA, errB := submitCrossedWrites(t, good, "TA", "TB")
	if n := crossedRejects(t, errA, errB); n != 1 {
		t.Fatalf("%d roots of the crossed pair rejected, want exactly one (A=%v B=%v)", n, errA, errB)
	}
}

// TestCertifyRefusesOutOfOrderStage: admission takes a stage's events in
// seq order, as the driver stages them, and checks that it does. A stage
// out of order — or with a seq drawn twice — is refused with an error
// naming its root, and nothing of it is filed; in order, the same stage is
// admitted.
func TestCertifyRefusesOutOfOrderStage(t *testing.T) {
	rt := BankTopology().NewRuntime(Hybrid)
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	invoke := event{seq: 4, comp: "bank", op: "T9/1", parentTx: "T9", item: "east/x", mode: data.ModeIncr}
	leaf := event{seq: 5, comp: "east", op: "T9/1/1", parentTx: "T9/1", item: "x", mode: data.ModeIncr}
	stage := func(evs ...event) *stagedRecord {
		return &stagedRecord{
			nodes: []front.DeltaNode{
				{ID: "T9", Sched: "bank"},
				{ID: "T9/1", Parent: "T9", Sched: "east"},
				{ID: "T9/1/1", Parent: "T9/1"},
			},
			events: evs,
		}
	}
	twice := leaf
	twice.seq = invoke.seq
	for _, bad := range []*stagedRecord{stage(leaf, invoke), stage(invoke, twice)} {
		v, err := rt.ix.admit(bad, 0)
		if v != nil || err == nil || !strings.Contains(err.Error(), "T9 out of seq order") {
			t.Fatalf("out-of-order stage: verdict %v, err %v; want an error naming T9", v, err)
		}
		if n := rt.ix.live(); n != 0 {
			t.Fatalf("a refused stage left %d nodes filed", n)
		}
	}
	if v, err := rt.ix.admit(stage(invoke, leaf), 0); v != nil || err != nil {
		t.Fatalf("in-order stage: verdict %v, err %v", v, err)
	}
}

// TestLocalPairsMatchesPairwise holds localPairs' screened sweep to the
// plain test of every pair of a stage's events (same item, same component,
// conflicting modes under that component's table), on seeded stages over
// two components with different tables and up to 24 distinct modes: past
// the screen's 15 classes into its overflow class. Every mode is a fresh
// copy of its name, so no test can pass by pointer equality.
func TestLocalPairsMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	modes := make([]data.Mode, 24)
	for i := range modes {
		modes[i] = data.Mode(fmt.Sprintf("m%d", i))
	}
	mode := func(n int) data.Mode { return data.Mode(strings.Clone(string(modes[rng.Intn(n)]))) }
	comps := map[string]*component{}
	for _, name := range []string{"c0", "c1"} {
		mt := data.NewModeTable()
		for k := 0; k < 60; k++ {
			mt.Declare(mode(len(modes)), mode(len(modes)))
		}
		comps[name] = &component{name: name, modes: mt}
	}
	ix := newExecIndex(comps)
	var evs []event
	for trial := 0; trial < 300; trial++ {
		distinct := 1 + rng.Intn(len(modes))
		evs = evs[:0]
		for i := range 1 + rng.Intn(40) {
			evs = append(evs, event{
				seq:      uint64(i + 1),
				comp:     fmt.Sprintf("c%d", rng.Intn(2)),
				op:       model.NodeID(fmt.Sprintf("T/%d", i+1)),
				parentTx: model.NodeID(fmt.Sprintf("T/p%d", rng.Intn(4))),
				item:     fmt.Sprintf("x%d", rng.Intn(3)),
				mode:     mode(distinct),
			})
		}
		var want []front.DeltaPair
		for i := range evs {
			for j := range i {
				p, e := &evs[j], &evs[i]
				if p.item == e.item && p.comp == e.comp && comps[e.comp].modes.ModeConflicts(p.mode, e.mode) {
					pairSeq(&want, e.comp, p.filed(), e.filed())
				}
			}
		}
		got, resolved := ix.localPairs(evs, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d events, %d modes): localPairs\n%v\nwant\n%v", trial, len(evs), distinct, got, want)
		}
		for i, rm := range resolved {
			if rm.table != comps[evs[i].comp].modes {
				t.Fatalf("trial %d: event %d resolved to another component's table", trial, i)
			}
		}
	}
}
