package sim

import (
	"fmt"
	"time"

	"compositetx/internal/front"
	"compositetx/internal/sched"
)

// chaosMix is one fault cocktail of the E10 sweep.
type chaosMix struct {
	name      string
	plan      sched.FaultPlan
	opTimeout time.Duration
}

func chaosMixes() []chaosMix {
	return []chaosMix{
		{"apply+lock", sched.FaultPlan{Seed: 11, ApplyProb: 0.04, LockFailProb: 0.02}, 0},
		{"latency+down", sched.FaultPlan{Seed: 13, LockDelayProb: 0.06,
			LockDelay: 2 * time.Millisecond, DownProb: 0.01, DownWindow: 2 * time.Millisecond},
			25 * time.Millisecond},
		{"heavy", sched.FaultPlan{Seed: 17, ApplyProb: 0.05, LockFailProb: 0.02,
			DownProb: 0.01, DownWindow: time.Millisecond, CompensationProb: 0.25}, 0},
	}
}

// E10Chaos is the chaos experiment: protocol × topology × fault mix,
// reporting how much injected failure the recovery machinery absorbed
// (faults, timeouts, local subtransaction retries, quarantined
// compensations) and whether the recorded execution still passes the
// Comp-C reduction. The paper's correctness stance survives faults by
// construction — aborted and re-run work never enters the record — and
// this table measures that claim instead of assuming it.
func E10Chaos(cfg RunConfig) *Table {
	t := &Table{
		ID:     "E10",
		Title:  fmt.Sprintf("Chaos: fault injection and recovery (%d txs, %d clients per cell)", cfg.Roots, cfg.Clients),
		Header: []string{"topology", "protocol", "fault mix", "tx/s", "faults", "timeouts", "sub-retries", "quarantined", "verdict"},
	}
	topos := []struct {
		name string
		mk   func() *sched.Topology
	}{
		{"stack(3)", func() *sched.Topology { return sched.StackTopology(3) }},
		{"bank", sched.BankTopology},
		{"diamond", sched.DiamondTopology},
	}
	protos := []sched.Protocol{sched.Hybrid, sched.ClosedNested, sched.Global2PL}
	for _, tc := range topos {
		for _, p := range protos {
			for _, mix := range chaosMixes() {
				topo := tc.mk()
				rt := topo.NewRuntime(p)
				rt.SetFaults(mix.plan)
				rt.OpTimeout = mix.opTimeout
				progs := sched.GenPrograms(topo, sched.WorkloadParams{
					Roots: cfg.Roots, StepsPerTx: cfg.StepsPerTx, Items: cfg.Items,
					ReadRatio: cfg.ReadRatio, WriteRatio: cfg.WriteRatio, Seed: mix.plan.Seed,
				})
				if cfg.StepDelay > 0 {
					progs = sched.Jitter(progs, cfg.StepDelay, mix.plan.Seed)
				}
				_, elapsed, err := runTimed(rt, progs, cfg.Clients)
				if err != nil {
					t.AddRow(tc.name, p.String(), mix.name, "error", "-", "-", "-", "-", err.Error())
					continue
				}
				m := rt.Metrics()
				sys := rt.RecordedSystem()
				verdict := "Comp-C"
				if err := sys.Validate(); err != nil {
					verdict = "VIOLATION (model)"
				} else if ok, err := front.IsCompC(sys); err != nil || !ok {
					verdict = "VIOLATION (Comp-C)"
				}
				t.AddRow(tc.name, p.String(), mix.name,
					fmt.Sprintf("%.0f", float64(m.Commits)/elapsed.Seconds()),
					m.InjectedFaults, m.Timeouts, m.SubRetries,
					m.CompensationFailures, verdict)
			}
		}
	}
	t.Note = "expected: every cell commits its full workload and records a Comp-C execution — injected " +
		"faults are absorbed by local subtransaction retries (open nesting), root retries, and " +
		"compensation quarantine, never by corrupting the recorded history; throughput degrades " +
		"with the fault mix instead of correctness"
	return t
}

// DefaultChaosConfig sizes E10 for compbench: smaller than E6 per cell
// (27 cells) but enough concurrency for faults to interleave with real
// contention.
func DefaultChaosConfig() RunConfig {
	return RunConfig{
		Roots: 80, StepsPerTx: 3, Items: 3, Clients: 8,
		ReadRatio: 0.25, WriteRatio: 0.3, StepDelay: 80 * time.Microsecond,
		Seed: 7,
	}
}
