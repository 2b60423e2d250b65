package sim

import (
	"fmt"
	"sync"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/sched"
)

// E17 — certified commit throughput: conflict ratio × concurrency, with
// and without the certifier. Every cell drives the bank topology with N
// concurrent clients, each committing multi-leg transactions on its own
// private account items (ModeIncr legs — commuting, so disjoint by the
// mode table) plus, on a deterministic fraction of its transactions, one
// ModeWrite op on a single shared hot item (a genuine cross-transaction
// conflict the certifier must order). The modes compared:
//
//	uncertified — EnableCertify off: the cost ceiling.
//	pipeline    — EnableCertify: out-of-lock delta build, ticketed
//	              admission, footprint fast path.
//
// The measurement is commits/s; every certified cell must commit all its
// transactions with zero certify-rejects (the workload is generated
// conflict-serializable — clients conflict, but never violate Comp-C
// under a sound protocol). The headline (gated by `make certperf`) is the
// certification overhead at 8 clients on the 10%-conflict mix: the
// uncertified ceiling within 3x of the certified throughput. The serial
// and no-fast-path certifiers this matrix used to carry were deleted once
// measured; their last cells are frozen in EXPERIMENTS.md E17.

// CertPerfConfig sizes the E17 matrix.
type CertPerfConfig struct {
	ConflictPct []int // percent of each client's txns touching the hot item
	Clients     []int // concurrent clients per cell
	PerClient   int   // transactions each client submits
	Legs        int   // private ModeIncr legs per transaction
	Reps        int   // best-of-N reps per cell (0 = 2)
}

// DefaultCertPerfConfig sizes E17 for compbench.
func DefaultCertPerfConfig() CertPerfConfig {
	return CertPerfConfig{
		ConflictPct: []int{0, 10, 50},
		Clients:     []int{1, 4, 8},
		PerClient:   60,
		Legs:        12,
		Reps:        2,
	}
}

// certMode names one E17 configuration.
type certMode struct {
	name string
	on   bool // EnableCertify
}

func certModes() []certMode {
	return []certMode{{name: "uncertified"}, {name: "pipeline", on: true}}
}

// e17Point is one measured cell.
type e17Point struct {
	mode      string
	conflict  int
	clients   int
	committed int
	tps       float64
	p50, p99  time.Duration
	fastPath  int64
	rejects   int64
	ok        bool // all txns committed, zero rejects
}

// e17Program builds client c's transaction i: legs commuting increments
// on the client's private east/west items, plus — when the deterministic
// conflict schedule says so — one write on the shared hot item.
func e17Program(c, i, legs, conflictPct int) sched.Invocation {
	// Evenly spread: true for exactly conflictPct% of each client's txns.
	hot := conflictPct > 0 && (i*conflictPct)%100 < conflictPct
	steps := make([]sched.Step, 0, legs+1)
	for l := 0; l < legs; l++ {
		comp := "east"
		if l%2 == 1 {
			comp = "west"
		}
		steps = append(steps, transferLeg(comp, fmt.Sprintf("acct%d-%d", c, l%4), 1))
	}
	if hot {
		steps = append(steps, sched.Step{Invoke: &sched.Invocation{
			Component: "east", Item: "hot", Mode: data.ModeWrite,
			Steps: []sched.Step{{Op: &data.Op{Mode: data.ModeWrite, Item: "hot", Arg: int64(i)}}},
		}})
	}
	return sched.Invocation{Component: "bank", Steps: steps}
}

// runE17Cell measures one cell: clients × perClient transactions under
// one certifier mode.
func runE17Cell(m certMode, conflictPct, clients, perClient, legs int) (e17Point, error) {
	pt := e17Point{mode: m.name, conflict: conflictPct, clients: clients}
	rt := sched.BankTopology().NewRuntime(sched.Hybrid)
	if m.on {
		if err := rt.EnableCertify(); err != nil {
			return pt, err
		}
	}
	// Sustained load runs checkpointed (the PR-6 bounded-memory cadence):
	// periodic folds keep the certifier engine and the recorder at the
	// live tail, so every mode — uncertified included — is measured at
	// its steady state instead of against an unboundedly growing history.
	rt.EnableCheckpoints(sched.CheckpointConfig{Every: 64})

	// Programs and transaction names are built before the clock starts:
	// the cell measures the runtime's commit path, not the workload
	// generator's string formatting.
	type e17Txn struct {
		name string
		prog sched.Invocation
	}
	txns := make([][]e17Txn, clients)
	for c := 0; c < clients; c++ {
		txns[c] = make([]e17Txn, perClient)
		for i := 0; i < perClient; i++ {
			txns[c][i] = e17Txn{
				name: fmt.Sprintf("C%d-%d", c, i),
				prog: e17Program(c, i, legs, conflictPct),
			}
		}
	}

	var (
		mu   sync.Mutex
		lat  = make([]time.Duration, 0, clients*perClient)
		errc = make(chan error, clients)
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if _, err := rt.Submit(txns[c][i].name, txns[c][i].prog); err != nil {
					errc <- fmt.Errorf("client %d txn %d: %w", c, i, err)
					return
				}
				mine = append(mine, time.Since(t0))
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return pt, err
	default:
	}

	met := rt.Metrics()
	pt.committed = int(met.Commits)
	pt.tps = float64(met.Commits) / elapsed.Seconds()
	pt.p50 = percentile(lat, 0.50)
	pt.p99 = percentile(lat, 0.99)
	pt.fastPath = met.CertifyFastPath
	pt.rejects = met.CertifyRejects
	pt.ok = pt.committed == clients*perClient && pt.rejects == 0
	return pt, nil
}

// measureE17 runs one cell reps times and keeps the best-throughput rep
// (the E13/E16 methodology); the cell is ok only if EVERY rep was.
func measureE17(m certMode, conflictPct, clients, perClient, legs, reps int) (e17Point, error) {
	if reps < 1 {
		reps = 1
	}
	var best e17Point
	ok := true
	for i := 0; i < reps; i++ {
		pt, err := runE17Cell(m, conflictPct, clients, perClient, legs)
		if err != nil {
			return pt, err
		}
		ok = ok && pt.ok
		if i == 0 || pt.tps > best.tps {
			best = pt
		}
	}
	best.ok = ok
	return best, nil
}

// E17CertThroughput runs the matrix and renders one row per cell.
func E17CertThroughput(cfg CertPerfConfig) *Table {
	t := &Table{
		ID: "E17",
		Title: fmt.Sprintf("Certified commit throughput: conflict ratio × clients, certified vs not (%d txns × %d legs per client)",
			cfg.PerClient, cfg.Legs),
		Header: []string{"conflict%", "clients", "mode", "committed", "tx/s", "p50", "p99", "fast-path", "verdict"},
	}
	reps := cfg.Reps
	if reps <= 0 {
		reps = 2
	}
	// uncert[conflict/clients] anchors the overhead note.
	uncert := map[string]float64{}
	var overheads []string
	for _, conflict := range cfg.ConflictPct {
		for _, clients := range cfg.Clients {
			for _, m := range certModes() {
				pt, err := measureE17(m, conflict, clients, cfg.PerClient, cfg.Legs, reps)
				if err != nil {
					t.AddRow(conflict, clients, m.name, "error", "-", "-", "-", "-", err.Error())
					continue
				}
				verdict := "ok"
				if !pt.ok {
					verdict = fmt.Sprintf("LOST COMMITS (%d committed, %d rejects)", pt.committed, pt.rejects)
				}
				fast := "-"
				if m.on {
					fast = fmt.Sprintf("%d", pt.fastPath)
				}
				t.AddRow(conflict, clients, m.name, pt.committed,
					fmt.Sprintf("%.0f", pt.tps),
					pt.p50.Round(time.Microsecond).String(),
					pt.p99.Round(time.Microsecond).String(),
					fast, verdict)
				key := fmt.Sprintf("%d%%/%d", conflict, clients)
				if !m.on {
					uncert[key] = pt.tps
				} else if u := uncert[key]; u > 0 {
					overheads = append(overheads, fmt.Sprintf("%s %.2fx", key, u/pt.tps))
				}
			}
		}
	}
	t.Note = "expected: certified throughput converges toward the uncertified ceiling on low-conflict mixes " +
		"(delta construction runs out of lock and disjoint commits take the fast path past the engine " +
		"entirely); every certified cell commits everything with zero rejects. " +
		"uncertified-vs-pipeline overhead: " + fmt.Sprint(overheads)
	return t
}

// CertPerfBenchmarks measures the E17 headline cells for
// BENCH_checker.json: 8 clients across the conflict spread, certified and
// not — the uncertified/pipeline tps ratio pins the certification
// overhead in the perf trajectory.
func CertPerfBenchmarks() []BenchResult {
	const clients, perClient, legs, reps = 8, 60, 12, 2
	var out []BenchResult
	for _, conflict := range []int{0, 10, 50} {
		uncertTps := 0.0
		for _, m := range certModes() {
			pt, err := measureE17(m, conflict, clients, perClient, legs, reps)
			if err != nil {
				panic(err)
			}
			if !pt.ok {
				panic(fmt.Sprintf("E17 bench cell %s/%d%% lost commits or rejected", m.name, conflict))
			}
			metrics := map[string]float64{
				"tps":   pt.tps,
				"p50Ns": float64(pt.p50.Nanoseconds()),
				"p99Ns": float64(pt.p99.Nanoseconds()),
			}
			if !m.on {
				uncertTps = pt.tps
			} else {
				metrics["fastPathPct"] = 100 * float64(pt.fastPath) / float64(pt.committed)
				metrics["overheadVsUncertified"] = uncertTps / pt.tps
			}
			out = append(out, BenchResult{
				Name:    fmt.Sprintf("E17CertThroughput/%s/conflict=%d/clients=%d", m.name, conflict, clients),
				NsPerOp: float64(pt.p50.Nanoseconds()),
				Metrics: metrics,
			})
		}
	}
	return out
}
