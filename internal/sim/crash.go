package sim

import (
	"errors"
	"fmt"
	"os"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/sched"
)

// E11 — the crash matrix: crash site × topology × protocol. Every cell
// runs a balanced-transfer workload against a WAL-backed runtime, kills
// the process at the site (FaultCrash, including the mid-WAL-append torn
// variant), recovers from the log directory alone, and checks the two
// things durability owes the paper's model: the recovered committed
// execution passes the Comp-C reduction, and escrow conservation holds —
// transfers are atomic across the crash (undone or redone, never half).

// crashSiteSpec is one column of the crash matrix.
type crashSiteSpec struct {
	name string
	step string // Trigger.Step: a leaf node ID, "commit", or "post-commit"
	tear bool   // abandon the WAL mid-append (torn record at the tail)
}

// crashTopo bundles a topology with its transfer workload and the leaf
// node ID of the crash transaction's second transfer leg (the point where
// the transfer is half-journaled).
type crashTopo struct {
	name     string
	mk       func() *sched.Topology
	programs func(n int) []sched.Invocation
	seed     func(rt *sched.Runtime, initial int64)
	leafStep string
}

// crashTxn is the transaction the deterministic triggers target; the
// workload must be large enough to reach it.
const crashTxn = "T13"

func transferLeg(comp, item string, amt int64) sched.Step {
	return sched.Step{Invoke: &sched.Invocation{Component: comp, Item: item, Mode: data.ModeIncr,
		Steps: []sched.Step{{Op: &data.Op{Mode: data.ModeIncr, Item: item, Arg: amt}}}}}
}

func crashTopos() []crashTopo {
	return []crashTopo{
		{
			name: "stack(3)",
			mk:   func() *sched.Topology { return sched.StackTopology(3) },
			seed: func(rt *sched.Runtime, initial int64) { rt.Store("C3").Set("src", initial) },
			programs: func(n int) []sched.Invocation {
				progs := make([]sched.Invocation, n)
				for i := range progs {
					amt := int64(i%7 + 1)
					mode, body := data.ModeIncr, []sched.Step{
						{Op: &data.Op{Mode: data.ModeIncr, Item: "src", Arg: -amt}},
						{Op: &data.Op{Mode: data.ModeIncr, Item: "dst", Arg: amt}},
					}
					if i%5 == 4 { // audit: reads conflict with increments
						mode, body = data.ModeRead, []sched.Step{
							{Op: &data.Op{Mode: data.ModeRead, Item: "src"}},
							{Op: &data.Op{Mode: data.ModeRead, Item: "dst"}},
						}
					}
					progs[i] = sched.Invocation{Component: "C1", Steps: []sched.Step{
						{Invoke: &sched.Invocation{Component: "C2", Item: "acct", Mode: mode,
							Steps: []sched.Step{{Invoke: &sched.Invocation{
								Component: "C3", Item: "acct", Mode: mode, Steps: body,
							}}}}},
					}}
				}
				return progs
			},
			// T13: root -> C2 (T13/1) -> C3 (T13/1/1) -> second leaf.
			leafStep: "T13/1/1/2",
		},
		{
			name: "bank",
			mk:   sched.BankTopology,
			seed: func(rt *sched.Runtime, initial int64) { rt.Store("east").Set("acct", initial) },
			programs: func(n int) []sched.Invocation {
				progs := make([]sched.Invocation, n)
				for i := range progs {
					amt := int64(i%7 + 1)
					if i%5 == 4 {
						progs[i] = sched.Invocation{Component: "bank", Steps: []sched.Step{
							{Invoke: &sched.Invocation{Component: "east", Item: "acct", Mode: data.ModeRead,
								Steps: []sched.Step{{Op: &data.Op{Mode: data.ModeRead, Item: "acct"}}}}},
						}}
						continue
					}
					progs[i] = sched.Invocation{Component: "bank", Steps: []sched.Step{
						transferLeg("east", "acct", -amt),
						transferLeg("west", "acct", amt),
					}}
				}
				return progs
			},
			leafStep: "T13/2/1",
		},
		{
			name: "diamond",
			mk:   sched.DiamondTopology,
			seed: func(rt *sched.Runtime, initial int64) { rt.Store("ledger").Set("pool", initial) },
			programs: func(n int) []sched.Invocation {
				progs := make([]sched.Invocation, n)
				for i := range progs {
					amt := int64(i%7 + 1)
					entry, from, to := "agencyA", "pool", "pool2"
					if i%2 == 1 {
						entry, from, to = "agencyB", "pool2", "pool"
					}
					if i%5 == 4 {
						progs[i] = sched.Invocation{Component: entry, Steps: []sched.Step{
							{Invoke: &sched.Invocation{Component: "ledger", Item: from, Mode: data.ModeRead,
								Steps: []sched.Step{{Op: &data.Op{Mode: data.ModeRead, Item: from}}}}},
						}}
						continue
					}
					progs[i] = sched.Invocation{Component: entry, Steps: []sched.Step{
						transferLeg("ledger", from, -amt),
						transferLeg("ledger", to, amt),
					}}
				}
				return progs
			},
			// T13 = programs[12]: agencyA -> ledger second leg's leaf.
			leafStep: "T13/2/1",
		},
	}
}

// storeTotal sums every item of every component store.
func storeTotal(rt *sched.Runtime, topo *sched.Topology) int64 {
	var total int64
	for _, spec := range topo.Specs {
		s := rt.Store(spec.Name)
		if s == nil {
			continue
		}
		for _, v := range s.Snapshot() {
			total += v
		}
	}
	return total
}

// E11CrashMatrix runs the crash matrix and renders one row per cell.
func E11CrashMatrix(cfg RunConfig) *Table {
	t := &Table{
		ID:     "E11",
		Title:  fmt.Sprintf("Crash matrix: WAL recovery at every crash site (%d txs, %d clients per cell)", cfg.Roots, cfg.Clients),
		Header: []string{"site", "topology", "protocol", "committed", "redone", "undone", "torn B", "conservation", "verdict"},
	}
	protos := []sched.Protocol{sched.Hybrid, sched.ClosedNested, sched.Global2PL}
	const initial = 100000
	for _, tc := range crashTopos() {
		sites := []crashSiteSpec{
			{"leaf", tc.leafStep, false},
			{"leaf-torn", tc.leafStep, true},
			{"commit", "commit", false},
			{"post-commit", "post-commit", false},
		}
		for _, site := range sites {
			for _, p := range protos {
				row, err := runE11Cell(tc, site, p, cfg, initial)
				if err != nil {
					t.AddRow(site.name, tc.name, p.String(), "error", "-", "-", "-", "-", err.Error())
					continue
				}
				t.AddRow(row...)
			}
		}
	}
	t.Note = "expected: every cell recovers to a Comp-C-correct committed execution with the transfer " +
		"sum conserved — a crash before the commit record undoes the transaction, after it redoes it, " +
		"and a torn mid-append record is truncated at recovery, never replayed"
	return t
}

func runE11Cell(tc crashTopo, site crashSiteSpec, p sched.Protocol, cfg RunConfig, initial int64) ([]any, error) {
	dir, err := os.MkdirTemp("", "compositetx-e11-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	topo := tc.mk()
	rt := topo.NewRuntime(p)
	tc.seed(rt, initial)
	if err := rt.EnableWAL(sched.WALConfig{Dir: dir}); err != nil {
		return nil, err
	}
	rt.SetFaults(sched.FaultPlan{
		Triggers:  []sched.Trigger{{Site: sched.FaultCrash, Txn: crashTxn, Step: site.step}},
		CrashTear: site.tear,
	})
	progs := tc.programs(cfg.Roots)
	if cfg.StepDelay > 0 {
		progs = sched.Jitter(progs, cfg.StepDelay, cfg.Seed)
	}
	// Every submission after the crash returns ErrCrashed; anything else
	// is the cell's failure.
	outcomes, _ := sched.Drive(rt, progs, cfg.Clients)
	for _, o := range outcomes {
		if o.Err != nil && !errors.Is(o.Err, sched.ErrCrashed) {
			return nil, o.Err
		}
	}
	if !rt.Crashed() {
		return nil, fmt.Errorf("crash trigger at %q never fired", site.step)
	}
	rec, err := sched.Recover(sched.WALConfig{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer rec.Runtime.CloseWAL()
	if site.tear && rec.Stats.TornBytes == 0 {
		return nil, fmt.Errorf("torn-record cell recovered without torn bytes")
	}
	conservation := "conserved"
	if got := storeTotal(rec.Runtime, topo); got != initial {
		conservation = fmt.Sprintf("VIOLATED (%+d)", got-initial)
	}
	verdict := "Comp-C"
	if !rec.Verdict.Correct {
		verdict = "VIOLATION (Comp-C)"
	}
	return []any{
		site.name, tc.name, p.String(),
		rec.Stats.Committed, rec.Stats.Redone, rec.Stats.Undone, rec.Stats.TornBytes,
		conservation, verdict,
	}, nil
}

// DefaultCrashConfig sizes E11 for compbench: enough transactions to put
// real concurrent work in flight at the crash, across 36 cells.
func DefaultCrashConfig() RunConfig {
	return RunConfig{
		Roots: 40, StepsPerTx: 2, Items: 2, Clients: 6,
		ReadRatio: 0.2, WriteRatio: 0, StepDelay: 60 * time.Microsecond,
		Seed: 19,
	}
}
