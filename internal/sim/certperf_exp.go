package sim

import (
	"fmt"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/sched"
)

// E17 — certified commit throughput: conflict ratio × concurrency, with
// and without the certifier. Every cell drives the bank topology with N
// concurrent clients over N transaction streams dealt round-robin, each
// stream's multi-leg transactions on its own private account items
// (ModeIncr legs — commuting, so disjoint by the mode table) plus, on a
// deterministic fraction of its transactions, one ModeWrite op on a
// single shared hot item (a genuine cross-transaction
// conflict the certifier must order). The modes compared:
//
//	uncertified — EnableCertify off: the cost ceiling.
//	certified   — EnableCertify: probe, admission and index append
//	              under the certifier's mutex on the committing
//	              goroutine, footprint fast path.
//
// The measurement is commits/s; every certified cell must commit all its
// transactions with zero certify-rejects (the workload is generated
// conflict-serializable — clients conflict, but never violate Comp-C
// under a sound protocol). The headline is the certification overhead at
// 8 clients on the 10%-conflict mix (recorded 1.3-2.0x). The serial
// and no-fast-path certifiers this matrix used to carry were deleted once
// measured; their last cells are frozen in EXPERIMENTS.md E17.

// CertPerfConfig sizes the E17 matrix.
type CertPerfConfig struct {
	ConflictPct []int // percent of each client's txns touching the hot item
	Clients     []int // concurrent clients per cell
	PerClient   int   // transactions each client submits
	Legs        int   // private ModeIncr legs per transaction
	Reps        int   // best-of-N reps per cell (0 = 1)
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
	return []certMode{{name: "uncertified"}, {name: "certified", on: true}}
}

// e17Point is one measured cell.
type e17Point struct {
	rep       // ok: all txns committed, zero rejects
	mode      string
	conflict  int
	clients   int
	committed int
	p50, p99  time.Duration
	fastPath  int64
	rejects   int64
}

// e17Program builds stream c's transaction i: legs commuting increments
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
func runE17Cell(m certMode, conflictPct, clients, perClient, legs int) (*e17Point, error) {
	pt := &e17Point{mode: m.name, conflict: conflictPct, clients: clients}
	rt := sched.BankTopology().NewRuntime(sched.Hybrid)
	if m.on {
		if err := rt.EnableCertify(); err != nil {
			return pt, err
		}
	}
	// Sustained load runs checkpointed (the PR-6 bounded-memory cadence):
	// periodic folds keep the execution index and its engine at the
	// live tail, so every mode — uncertified included — is measured at
	// its steady state instead of against an unboundedly growing history.
	rt.EnableCheckpoints(sched.CheckpointConfig{Every: 64})

	progs := make([]sched.Invocation, 0, clients*perClient)
	for i := 0; i < perClient; i++ {
		for c := 0; c < clients; c++ {
			progs = append(progs, e17Program(c, i, legs, conflictPct))
		}
	}
	lat, elapsed, err := runTimed(rt, progs, clients)
	if err != nil {
		return pt, err
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

// E17CertThroughput runs the matrix and renders one row per cell.
func E17CertThroughput(cfg CertPerfConfig) *Table {
	t := &Table{
		ID: "E17",
		Title: fmt.Sprintf("Certified commit throughput: conflict ratio × clients, certified vs not (%d txns × %d legs per client)",
			cfg.PerClient, cfg.Legs),
		Header: []string{"conflict%", "clients", "mode", "committed", "tx/s", "p50", "p99", "fast-path", "verdict"},
	}
	// uncert[conflict/clients] anchors the overhead note.
	uncert := map[string]float64{}
	var overheads []string
	for _, conflict := range cfg.ConflictPct {
		for _, clients := range cfg.Clients {
			for _, m := range certModes() {
				pt, err := bestOf(cfg.Reps, func() (*e17Point, error) {
					return runE17Cell(m, conflict, clients, cfg.PerClient, cfg.Legs)
				})
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
		"(disjoint commits take the fast path past the engine entirely); " +
		"every certified cell commits everything with zero rejects. " +
		"uncertified-vs-certified overhead: " + fmt.Sprint(overheads)
	return t
}
