package sim

import (
	"fmt"
	"time"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/sched"
)

// E12 — online certification cost. Two questions, one per half of the
// table:
//
//  1. Checker side: a certifier must re-decide Comp-C after every root
//     commit. The naive way runs front.Check on the whole grown prefix
//     each time — a fresh engine built and drained over the history, O(N)
//     work per commit, O(N·R) per run; a live front.Incremental appends
//     the commit's delta and touches only the affected reduction state.
//     Both are the same engine; the table reports the amortized
//     per-commit cost of each on the same commit streams and the speedup
//     (≥10x at 256 commits).
//
//  2. Runtime side: what live certification costs end-to-end. The same
//     workload runs on the prototype runtime with certification off and
//     on (Runtime.EnableCertify); the ratio of throughputs is the price
//     of rejecting violations at commit time instead of detecting them
//     post-hoc.

// incrementalCost measures one commit stream both ways: streaming the
// per-root deltas of sys through a fresh incremental engine (Admit, the
// certification hot path — on success it decides without materializing a
// verdict), and the naive apply-then-Check loop a certifier would
// otherwise run (the engine rebuilt over every prefix). Costs are
// amortized ns per commit.
type incrementalCost struct {
	nodes   int
	commits int
	incNs   float64
	fullNs  float64
}

func (c incrementalCost) speedup() float64 { return c.fullNs / c.incNs }

// timeOp measures fn by repetition until minDur elapses, returning ns/op.
func timeOp(minDur time.Duration, fn func()) float64 {
	start := time.Now()
	reps := 0
	for time.Since(start) < minDur {
		fn()
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

func measureIncremental(sys *model.System, minDur time.Duration) incrementalCost {
	deltas := front.DecomposeByRoot(sys)
	cost := incrementalCost{nodes: sys.NumNodes(), commits: len(deltas)}

	cost.incNs = timeOp(minDur, func() {
		inc := front.NewIncremental(front.IncrementalOptions{})
		for _, d := range deltas {
			if v, err := inc.Admit(d); err != nil {
				panic(err)
			} else if v != nil {
				panic("E12 stream must be violation-free: " + v.Reason)
			}
		}
	}) / float64(len(deltas))

	cost.fullNs = timeOp(minDur, func() {
		prefix := model.NewSystem()
		for _, d := range deltas {
			d.Apply(prefix)
			if _, err := front.Check(prefix, front.Options{}); err != nil {
				panic(err)
			}
		}
	}) / float64(len(deltas))
	return cost
}

// e12Streams are the commit streams of the checker half: recorded
// executions of the prototype runtime on the diamond under the hybrid
// protocol — exactly what a live certifier sees, and correct by
// construction (random order-generated workloads are essentially never
// Comp-C, and the engine refuses a violating delta, after which the deltas
// naming its nodes no longer validate). Short OLTP-style
// transactions (two steps) keep commits fine-grained, the regime online
// certification is for.
func e12Streams() []*model.System {
	var out []*model.System
	for _, roots := range []int{32, 64, 128, 256} {
		topo := sched.DiamondTopology()
		rt := topo.NewRuntime(sched.Hybrid)
		progs := sched.GenPrograms(topo, sched.WorkloadParams{
			Roots: roots, StepsPerTx: 2, Items: 4,
			ReadRatio: 0.25, WriteRatio: 0.05, Seed: 7,
		})
		if err := sched.Run(rt, progs, 16); err != nil {
			panic(err)
		}
		out = append(out, rt.RecordedSystem())
	}
	return out
}

// certifyCost is one runtime workload timed with certification off/on.
type certifyCost struct {
	topo      string
	commits   int64
	plainTps  float64
	certTps   float64
	rejects   int64
	certified bool // the certified run finished and stayed correct
}

func (c certifyCost) overhead() float64 {
	if c.certTps == 0 {
		return 0
	}
	return c.plainTps / c.certTps
}

func measureCertify(name string, mk func() *sched.Topology, cfg RunConfig) certifyCost {
	out := certifyCost{topo: name}
	for _, certify := range []bool{false, true} {
		topo := mk()
		rt := topo.NewRuntime(sched.Hybrid)
		if certify {
			if err := rt.EnableCertify(); err != nil {
				panic(err)
			}
		}
		progs := sched.GenPrograms(topo, cfg.Workload())
		if cfg.StepDelay > 0 {
			progs = sched.Jitter(progs, cfg.StepDelay, cfg.Seed)
		}
		_, elapsed, err := runTimed(rt, progs, cfg.Clients)
		if err != nil {
			return out
		}
		m := rt.Metrics()
		tps := float64(m.Commits) / elapsed.Seconds()
		if certify {
			out.certTps = tps
			out.rejects = m.CertifyRejects
			out.commits = m.Commits
			sys := rt.RecordedSystem()
			if verr := sys.Validate(); verr == nil {
				if ok, cerr := front.IsCompC(sys); cerr == nil && ok {
					out.certified = true
				}
			}
		} else {
			out.plainTps = tps
		}
	}
	return out
}

// E12Incremental renders the online-certification cost table.
func E12Incremental(cfg RunConfig) *Table {
	const minDur = 100 * time.Millisecond
	t := &Table{
		ID:     "E12",
		Title:  "Online certification: incremental engine vs full recheck, and runtime overhead",
		Header: []string{"scenario", "size", "baseline", "incremental/certified", "ratio"},
	}
	for _, sys := range e12Streams() {
		c := measureIncremental(sys, minDur)
		t.AddRow(
			"per-commit Comp-C recheck (diamond)",
			fmt.Sprintf("%d nodes / %d commits", c.nodes, c.commits),
			fmt.Sprintf("full %s/commit", time.Duration(c.fullNs).Round(time.Microsecond)),
			fmt.Sprintf("inc %s/commit", time.Duration(c.incNs).Round(time.Microsecond)),
			fmt.Sprintf("%.1fx faster", c.speedup()),
		)
	}
	topos := []struct {
		name string
		mk   func() *sched.Topology
	}{
		{"stack(3)", func() *sched.Topology { return sched.StackTopology(3) }},
		{"bank", sched.BankTopology},
		{"diamond", sched.DiamondTopology},
	}
	for _, tc := range topos {
		c := measureCertify(tc.name, tc.mk, cfg)
		verdict := "Comp-C"
		if !c.certified {
			verdict = "VIOLATION"
		}
		t.AddRow(
			fmt.Sprintf("certified runtime (%s, hybrid)", c.topo),
			fmt.Sprintf("%d commits / %d rejects", c.commits, c.rejects),
			fmt.Sprintf("plain %.0f tx/s", c.plainTps),
			fmt.Sprintf("certified %.0f tx/s, %s", c.certTps, verdict),
			fmt.Sprintf("%.2fx overhead", c.overhead()),
		)
	}
	t.Note = "expected: the incremental engine turns per-commit certification from O(history) to " +
		"amortized O(delta) — ≥10x per commit by ~256 nodes and growing with history length — " +
		"while end-to-end certified throughput pays roughly 1.5-2x: the certifier serializes every " +
		"commit through one engine, so commits that used to overlap now queue at the admission point; " +
		"that is the measured price of rejecting violations at commit time instead of detecting them post-hoc"
	return t
}
