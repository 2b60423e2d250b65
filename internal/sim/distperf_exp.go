package sim

import (
	"fmt"
	"os"
	"time"

	"compositetx/internal/sched"
)

// E16 — sustained distributed commit throughput: concurrency × force mode
// × transport. Every cell drives a WAL-backed two-branch cluster with N
// concurrent clients over N account pairs, the transfers dealt round-robin
// across the pairs (the transfers in flight are on disjoint items, so lock
// contention cannot mask the fsync cost the experiment isolates). The
// per-txn-fsync column forces each of a commit's three force points (two
// prepares, the decision) with its own fsync; the group column routes the
// same force points through the WAL flush daemon, so concurrent commits
// share O(1) fsyncs per window. The
// measurement is commits/s plus client-observed p50/p99 latency, and
// every cell must conserve value across its account pairs with every
// submitted transfer committed.

// e16Seed is the per-account seed; transfers move 1 per leg, so a cell
// never exhausts the escrow quota.
const e16Seed = int64(1 << 20)

// DistPerfConfig sizes the E16 matrix.
type DistPerfConfig struct {
	Conc       []int    // concurrent clients per cell
	PerClient  int      // transfers each client submits
	Transports []string // "chan", "tcp"
	Reps       int      // best-of-N reps per cell (0 = 1), rides out scheduler noise
}

// DefaultDistPerfConfig sizes E16 for compbench: enough concurrency to
// saturate the per-txn fsync path, on both transports.
func DefaultDistPerfConfig() DistPerfConfig {
	return DistPerfConfig{
		Conc:       []int{8, 32, 64},
		PerClient:  25,
		Transports: []string{"chan", "tcp"},
		Reps:       2,
	}
}

// e16Point is one measured cell.
type e16Point struct {
	rep       // ok: every transfer committed and every account pair conserved
	transport string
	group     bool
	conc      int
	committed int
	p50, p99  time.Duration
	windows   uint64 // shared fsync windows (group mode only)
	forces    uint64
}

func forceMode(group bool) string {
	if group {
		return "group"
	}
	return "per-txn-fsync"
}

// runE16Cell measures one cell: conc clients draining perClient transfers
// on each of conc disjoint east/west account pairs.
func runE16Cell(transport string, group bool, conc, perClient int) (*e16Point, error) {
	pt := &e16Point{transport: transport, group: group, conc: conc}

	dir, err := os.MkdirTemp("", "compositetx-e16-*")
	if err != nil {
		return pt, err
	}
	defer os.RemoveAll(dir)

	seeds := map[string]int64{}
	for c := 0; c < conc; c++ {
		seeds[fmt.Sprintf("a%d", c)] = e16Seed
	}
	cl, err := sched.StartCluster(sched.DistConfig{
		Protocol:  sched.Hybrid,
		Topo:      sched.BankTopology(),
		Transport: transport,
		WALRoot:   dir,
		SyncEvery: 64,
		// Under 64 concurrent per-txn fsyncs a participant's force queue can
		// back an RPC up past the dist_test defaults; the timeout covers the
		// worst serialized fsync wave so both modes run timeout-free, and
		// the liveness timers sit far above the p99 commit latency so the
		// sweeper and re-delivery loop don't inject extra traffic into the
		// measurement.
		RPCTimeout: 250 * time.Millisecond, RPCRetries: 3,
		LockWait:     500 * time.Millisecond,
		MaxRetries:   30,
		AbandonAfter: 10 * time.Second, QueryAfter: 2 * time.Second,
		SweepEvery: time.Second,
		Seeds:      map[string]map[string]int64{"east": seeds},

		GroupCommit: group,
	})
	if err != nil {
		return pt, err
	}
	defer cl.Close()

	progs := make([]sched.Invocation, 0, conc*perClient)
	for i := 0; i < perClient; i++ {
		for c := 0; c < conc; c++ {
			item := fmt.Sprintf("a%d", c)
			progs = append(progs, sched.Invocation{Component: "bank", Steps: []sched.Step{
				transferLeg("east", item, -1),
				transferLeg("west", item, 1),
			}})
		}
	}
	lat, elapsed, err := runTimed(cl, progs, conc)
	if err != nil {
		return pt, err
	}
	if err := cl.Settle(10 * time.Second); err != nil {
		return pt, err
	}

	m := cl.Metrics()
	pt.committed = int(m.Commits)
	pt.tps = float64(m.Commits) / elapsed.Seconds()
	pt.p50 = percentile(lat, 0.50)
	pt.p99 = percentile(lat, 0.99)
	pt.forces = m.GroupForces
	pt.windows = m.GroupWindows

	east, west := cl.StoreSnapshot("east"), cl.StoreSnapshot("west")
	pt.ok = pt.committed == conc*perClient
	for c := 0; c < conc; c++ {
		item := fmt.Sprintf("a%d", c)
		if east[item]+west[item] != e16Seed || west[item] != int64(perClient) {
			pt.ok = false
		}
	}
	return pt, nil
}

// E16DistThroughput runs the matrix and renders one row per cell.
func E16DistThroughput(cfg DistPerfConfig) *Table {
	t := &Table{
		ID: "E16",
		Title: fmt.Sprintf("Sustained distributed commit throughput: concurrency × force mode × transport (%d transfers per client)",
			cfg.PerClient),
		Header: []string{"transport", "mode", "conc", "committed", "tx/s", "p50", "p99", "fsync windows", "verdict"},
	}
	// speedup[transport][conc] = grouped tps / per-txn tps, noted below.
	base := map[string]float64{}
	var notes []string
	for _, transport := range cfg.Transports {
		for _, conc := range cfg.Conc {
			for _, group := range []bool{false, true} {
				pt, err := bestOf(cfg.Reps, func() (*e16Point, error) {
					return runE16Cell(transport, group, conc, cfg.PerClient)
				})
				if err != nil {
					t.AddRow(transport, forceMode(group), conc, "error", "-", "-", "-", "-", err.Error())
					continue
				}
				verdict := "conserved"
				if !pt.ok {
					verdict = "VIOLATED"
				}
				windows := "-"
				if pt.group {
					windows = fmt.Sprintf("%d (%d forces)", pt.windows, pt.forces)
				}
				t.AddRow(transport, forceMode(group), conc, pt.committed,
					fmt.Sprintf("%.0f", pt.tps),
					pt.p50.Round(time.Microsecond).String(),
					pt.p99.Round(time.Microsecond).String(),
					windows, verdict)
				key := fmt.Sprintf("%s/%d", transport, conc)
				if !group {
					base[key] = pt.tps
				} else if b := base[key]; b > 0 {
					notes = append(notes, fmt.Sprintf("%s@%d %.1fx", transport, conc, pt.tps/b))
				}
			}
		}
	}
	t.Note = "expected: grouped throughput pulls ahead of per-txn fsync as concurrency grows (the flush " +
		"daemon serves a whole window of concurrent force points with one fsync per WAL, so fsync cost is " +
		"O(windows) instead of O(transactions)); every cell conserved with all transfers committed. " +
		"group-vs-per-txn speedup: " + fmt.Sprint(notes)
	return t
}
