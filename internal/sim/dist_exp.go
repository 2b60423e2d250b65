package sim

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"compositetx/internal/comm"
	"compositetx/internal/sched"
)

// E15 — distributed commit under network chaos: protocol × network-fault
// mix × crash site. Every cell runs a balanced-transfer workload through
// a WAL-backed distributed cluster (coordinator + one participant per
// component, presumed-abort 2PC over the channel transport), with the
// seeded network fault injector perturbing every message and one armed
// crash killing the coordinator or a participant at the worst possible
// window. The cell then recovers the dead side from its log, settles the
// in-doubt set via the termination protocol, and checks what distributed
// atomicity owes the paper's model: every transfer commits everywhere or
// aborts everywhere (escrow conservation plus an exact per-cell balance),
// and the merged committed history passes the Comp-C reduction. Each cell
// also checks, from the logs, that the coordinator ended no transaction
// before every updater held its commit record (sched.CheckEnded) — at the
// end, and at each participant crash, when a lost lazy record would show.

// e15Initial seeds the east account; transfers move value east → west,
// so east+west must equal it at every quiescent point.
const e15Initial = 10000

// e15CrashTxn is the root the armed crash fires on; cells need at least
// that many transfers.
const e15CrashTxn = "T5"

// e15Mix is one network-fault column: a fixed-seed injector plan, so a
// cell replays the same drops and partitions on every run.
type e15Mix struct {
	name string
	plan comm.NetFaultPlan
}

func e15Mixes() []e15Mix {
	return []e15Mix{
		{"none", comm.NetFaultPlan{}},
		{"drop+dup", comm.NetFaultPlan{Seed: 7, DropProb: 0.03, DupProb: 0.08}},
		{"delay+reorder", comm.NetFaultPlan{Seed: 11, DelayProb: 0.12, ReorderProb: 0.08, Delay: 300 * time.Microsecond}},
		{"partition", comm.NetFaultPlan{Seed: 13, PartitionProb: 0.01, PartitionWindow: 5 * time.Millisecond}},
	}
}

// e15Site is one crash column: a distributed crash site plus the
// participant it targets (coordinator sites leave part empty).
type e15Site struct {
	name string
	site string
	part string
}

func e15Sites() []e15Site {
	return []e15Site{
		{"none", "", ""},
		{"coord-pre", sched.DistCrashCoordPre, ""},
		{"coord-post", sched.DistCrashCoordPost, ""},
		{"part-prepare", sched.DistCrashPartPrepare, "east"},
		{"part-decide", sched.DistCrashPartDecide, "east"},
	}
}

func e15Transfer(i int) (sched.Invocation, int64) {
	amt := int64(i%7 + 1)
	return sched.Invocation{Component: "bank", Steps: []sched.Step{
		transferLeg("east", "acct", -amt),
		transferLeg("west", "acct", amt),
	}}, amt
}

// E15NetChaos runs the network-chaos matrix and renders one row per cell.
func E15NetChaos(cfg RunConfig) *Table {
	t := &Table{
		ID:    "E15",
		Title: fmt.Sprintf("Distributed 2PC under network chaos: protocol × fault mix × crash site (%d transfers per cell)", cfg.Roots),
		Header: []string{"protocol", "faults", "crash", "committed", "retries", "recovered",
			"lost msgs", "dup msgs", "atomicity", "verdict"},
	}
	for _, p := range []sched.Protocol{sched.Hybrid, sched.Global2PL} {
		for _, mix := range e15Mixes() {
			for _, site := range e15Sites() {
				row, err := runE15Cell(p, mix, site, cfg.Roots)
				if err != nil {
					t.AddRow(p.String(), mix.name, site.name, "error", "-", "-", "-", "-", "-", err.Error())
					continue
				}
				t.AddRow(row...)
			}
		}
	}
	t.Note = "expected: every cell atomic (transfer sum conserved and the west balance exactly the sum of " +
		"decided transfers — a coordinator crash before the decision force presumes abort, after it the " +
		"recovered coordinator re-delivers the commit; participant crashes recover their in-doubt " +
		"transactions from the prepare/decision records) and every merged history Comp-C; lost messages " +
		"are absorbed by RPC retry, duplicates by participant dedup"
	return t
}

// runE15Cell runs one cell: transfers submitted sequentially so the
// armed crash lands deterministically on e15CrashTxn, a watcher
// recovering any crashed participant (a dead participant surfaces to
// the coordinator only as RPC timeouts), and inline coordinator
// recovery when Submit reports ErrCrashed.
func runE15Cell(p sched.Protocol, mix e15Mix, site e15Site, roots int) ([]any, error) {
	dir, err := os.MkdirTemp("", "compositetx-e15-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cl, err := sched.StartCluster(sched.DistConfig{
		Protocol:  p,
		Topo:      sched.BankTopology(),
		NetFaults: mix.plan,
		WALRoot:   dir,
		SyncEvery: 8,
		// E15 runs with the coalesced force path on: the whole chaos matrix
		// re-proves atomicity and Comp-C with group commit + message
		// coalescing enabled, not just the per-txn-fsync configuration.
		GroupCommit: true,
		RPCTimeout:  15 * time.Millisecond, RPCRetries: 3,
		LockWait:     100 * time.Millisecond,
		MaxRetries:   60,
		AbandonAfter: 200 * time.Millisecond, QueryAfter: 40 * time.Millisecond,
		SweepEvery: 10 * time.Millisecond,
		Seeds:      map[string]map[string]int64{"east": {"acct": e15Initial}},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	if site.site != "" {
		cl.SetCrash(sched.DistCrash{Txn: e15CrashTxn, Site: site.site, Part: site.part})
	}

	var recovered atomic.Int64
	var watchErr atomic.Value
	stop := make(chan struct{})
	var stopOnce sync.Once
	defer stopOnce.Do(func() { close(stop) })
	if site.part != "" {
		go func() {
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for _, name := range cl.CrashedParticipants() {
						// The crashed log holds exactly its durable prefix: the
						// moment an early TypeEnd would show.
						err := sched.CheckEnded(dir)
						if err == nil {
							err = cl.RecoverParticipant(name)
						}
						if err != nil {
							watchErr.CompareAndSwap(nil, err)
							return
						}
						recovered.Add(1)
					}
				}
			}
		}()
	}

	committed := 0
	var expectWest int64
	for i := 1; i <= roots; i++ {
		name := fmt.Sprintf("T%d", i)
		prog, amt := e15Transfer(i)
		_, err := cl.Submit(name, prog)
		switch {
		case err == nil:
			committed++
			expectWest += amt
		case errors.Is(err, sched.ErrCrashed):
			if err := cl.RecoverCoordinator(); err != nil {
				return nil, fmt.Errorf("%s: recover coordinator: %w", name, err)
			}
			recovered.Add(1)
			if site.site == sched.DistCrashCoordPost {
				// The decision was forced before the crash: the recovered
				// coordinator re-delivers the commit, so the transfer lands.
				expectWest += amt
			}
		default:
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}

	if err := cl.Settle(10 * time.Second); err != nil {
		return nil, err
	}
	if e, _ := watchErr.Load().(error); e != nil {
		return nil, e
	}
	if err := sched.CheckEnded(dir); err != nil {
		return nil, err
	}

	east, west := cl.StoreSnapshot("east")["acct"], cl.StoreSnapshot("west")["acct"]
	atomicity := "atomic"
	if east+west != e15Initial || west != expectWest {
		atomicity = fmt.Sprintf("VIOLATED (east=%d west=%d want-west=%d)", east, west, expectWest)
	}
	v, err := cl.Audit()
	if err != nil {
		return nil, err
	}
	verdict := "Comp-C"
	if !v.Correct {
		verdict = "VIOLATION (Comp-C)"
	}
	m := cl.Metrics()
	return []any{
		p.String(), mix.name, site.name,
		committed, int(m.Retries), int(recovered.Load()),
		int64(m.Net.Dropped + m.Net.PartDrops), int64(m.Net.Duplicated),
		atomicity, verdict,
	}, nil
}

// DefaultNetChaosConfig sizes E15 for compbench: enough transfers per
// cell to put real 2PC traffic through the injector, across 40 cells.
func DefaultNetChaosConfig() RunConfig {
	return RunConfig{Roots: 12, Clients: 1, Seed: 7}
}
