package compositetx_test

import (
	"bytes"
	"os"
	"strings"
	"testing"

	ctx "compositetx"
)

func TestPublicCheckFigures(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sys     *ctx.System
		correct bool
	}{
		{"figure1", ctx.Figure1System(), true},
		{"figure2", ctx.Figure2System(), true},
		{"figure3", ctx.Figure3System(), false},
		{"figure4", ctx.Figure4System(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.sys.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			v, err := ctx.Check(tc.sys, ctx.CheckOptions{KeepFronts: true})
			if err != nil {
				t.Fatal(err)
			}
			if v.Correct != tc.correct {
				t.Fatalf("Correct = %v, want %v: %s", v.Correct, tc.correct, v)
			}
			if v.Trace() == "" {
				t.Fatal("empty trace")
			}
		})
	}
}

func TestPublicBuildAndCheck(t *testing.T) {
	sys := ctx.NewSystem()
	sc := sys.AddSchedule("S")
	sys.AddRoot("T1", "S")
	sys.AddRoot("T2", "S")
	sys.AddLeaf("a", "T1")
	sys.AddLeaf("b", "T2")
	sc.AddConflict("a", "b")
	sc.WeakOut.Add("a", "b")
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	ok, err := ctx.IsCompC(sys)
	if err != nil || !ok {
		t.Fatalf("IsCompC = %v, %v", ok, err)
	}
	if !ctx.IsCC(sys, "S") {
		t.Fatal("schedule should be CC")
	}
	if ctx.IsCC(sys, "missing") {
		t.Fatal("unknown schedule must not be CC")
	}
}

func TestPublicCriteria(t *testing.T) {
	stack := ctx.GenerateStack(ctx.StackParams{Levels: 2, Roots: 2, Fanout: 2, ConflictRate: 0.3, Seed: 4})
	scc, err := ctx.IsSCC(stack.Sys)
	if err != nil {
		t.Fatal(err)
	}
	compC, err := ctx.IsCompC(stack.Sys)
	if err != nil {
		t.Fatal(err)
	}
	if scc != compC {
		t.Fatal("Theorem 2 violated through the public API")
	}
	if _, err := ctx.IsLLSR(stack.Sys); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.IsOPSR(stack.Sys, stack.Seqs); err != nil {
		t.Fatal(err)
	}

	fork := ctx.GenerateFork(ctx.ForkParams{Branches: 2, Roots: 2, Fanout: 2, LeavesPerSub: 2, ConflictRate: 0.3, Seed: 4})
	if _, err := ctx.IsFCC(fork.Sys); err != nil {
		t.Fatal(err)
	}
	join := ctx.GenerateJoin(ctx.JoinParams{Tops: 2, RootsPerTop: 2, Fanout: 2, LeavesPerSub: 2, ConflictRate: 0.3, Seed: 4})
	if _, err := ctx.IsJCC(join.Sys); err != nil {
		t.Fatal(err)
	}
	gen := ctx.GenerateGeneral(ctx.GeneralParams{Depth: 2, SchedsPerLevel: 2, Roots: 2, Fanout: 2, LeafRate: 0.4, ConflictRate: 0.3, Seed: 4})
	if err := gen.Sys.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRuntime(t *testing.T) {
	rt := ctx.BankTopology().NewRuntime(ctx.Hybrid)
	res, err := rt.Submit("T1", ctx.Invocation{
		Component: "bank",
		Steps: []ctx.Step{
			{Invoke: &ctx.Invocation{Component: "east", Item: "acct", Mode: ctx.ModeIncr,
				Steps: []ctx.Step{{Op: &ctx.Op{Mode: ctx.ModeIncr, Item: "acct", Arg: 5}}}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Root != "T1" {
		t.Fatalf("root = %s", res.Root)
	}
	if got := rt.Store("east").Get("acct"); got != 5 {
		t.Fatalf("acct = %d", got)
	}
	ok, err := ctx.IsCompC(rt.RecordedSystem())
	if err != nil || !ok {
		t.Fatalf("recorded execution: %v, %v", ok, err)
	}
}

func TestPublicParseProtocol(t *testing.T) {
	for _, p := range []ctx.Protocol{ctx.OpenNested, ctx.ClosedNested, ctx.Global2PL, ctx.Hybrid, ctx.NoCC} {
		if got, err := ctx.ParseProtocol(p.String()); err != nil || got != p {
			t.Fatalf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ctx.ParseProtocol("2pc"); err == nil {
		t.Fatal("ParseProtocol accepted an unknown name")
	}
}

func TestPublicJSONRoundTrip(t *testing.T) {
	sys := ctx.Figure3System()
	var buf bytes.Buffer
	if err := sys.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ctx.DecodeSystem(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := ctx.IsCompC(back)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("round-tripped Figure 3 must stay incorrect")
	}
}

func TestModeTables(t *testing.T) {
	if ctx.SemanticTable().ModeConflicts(ctx.ModeIncr, ctx.ModeIncr) {
		t.Fatal("increments commute semantically")
	}
	if !ctx.RWTable().ModeConflicts(ctx.ModeIncr, ctx.ModeIncr) {
		t.Fatal("increments conflict under read/write semantics")
	}
}

func TestPublicClassify(t *testing.T) {
	exec := ctx.GenerateStack(ctx.StackParams{Levels: 2, Roots: 2, Fanout: 2, ConflictRate: 0.3, Seed: 9})
	rep, err := ctx.Classify(exec.Sys, exec.Seqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shape != "stack" {
		t.Fatalf("shape = %s", rep.Shape)
	}
	if rep.Criteria["SCC"] != rep.CompC {
		t.Fatal("Theorem 2 must hold through the public API")
	}
}

func TestPublicDecodeTopology(t *testing.T) {
	f, err := os.Open("testdata/topology_shop.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	topo, err := ctx.DecodeTopology(f)
	if err != nil {
		t.Fatal(err)
	}
	rt := topo.NewRuntime(ctx.ClosedNested)
	rt.Deadlock = ctx.DetectWFG
	progs := ctx.GenPrograms(topo, ctx.WorkloadParams{
		Roots: 10, StepsPerTx: 2, Items: 2, ReadRatio: 0.3, WriteRatio: 0.3, Seed: 1,
	})
	if err := ctx.Run(rt, progs, 4); err != nil {
		t.Fatal(err)
	}
	if ok, err := ctx.IsCompC(rt.RecordedSystem()); err != nil || !ok {
		t.Fatalf("decoded topology run must be Comp-C: %v, %v", ok, err)
	}
}

func TestPublicDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := ctx.Figure2System().DOT(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph composite") {
		t.Fatal("DOT output malformed")
	}
}
