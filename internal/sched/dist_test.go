package sched

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"compositetx/internal/comm"
)

// Distributed runtime suite: coordinator + participants over a message
// transport, presumed-abort 2PC, network fault injection, crash-site
// recovery. Reuses the conservation harness from crash_test.go
// (transferTopo / transferPrograms): every committed program moves money
// between east and west, so east+west must equal the seed no matter
// which attempts aborted, crashed, or were compensated.

const distInitial = int64(10000)

func distConfig(t *testing.T, proto Protocol, transport string, durable bool) DistConfig {
	t.Helper()
	cfg := DistConfig{
		Protocol:  proto,
		Topo:      transferTopo(),
		Transport: transport,

		RPCTimeout: 20 * time.Millisecond,
		RPCRetries: 3,
		LockWait:   120 * time.Millisecond,
		MaxRetries: 30,

		AbandonAfter: 250 * time.Millisecond,
		QueryAfter:   60 * time.Millisecond,
		SweepEvery:   15 * time.Millisecond,

		Seeds: map[string]map[string]int64{"east": {"acct": distInitial}},
	}
	if durable {
		cfg.WALRoot = t.TempDir()
	}
	return cfg
}

func startCluster(t *testing.T, cfg DistConfig) *Cluster {
	t.Helper()
	cl, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func distConserved(t *testing.T, cl *Cluster) {
	t.Helper()
	east := cl.StoreSnapshot("east")["acct"]
	west := cl.StoreSnapshot("west")["acct"]
	if east+west != distInitial {
		t.Fatalf("east(%d) + west(%d) = %d, want %d: conservation violated",
			east, west, east+west, distInitial)
	}
}

func distAudit(t *testing.T, cl *Cluster) {
	t.Helper()
	v, err := cl.Audit()
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if !v.Correct {
		t.Fatalf("audit: committed history is not Comp-C: %s", v.Reason)
	}
}

// distEnded checks CheckEnded over the cluster's logs: no transaction is
// ended at the coordinator before every updater holds its commit record.
func distEnded(t *testing.T, root string) {
	t.Helper()
	if err := CheckEnded(root); err != nil {
		t.Fatal(err)
	}
}

// TestDistCommit runs sequential transfers through every protocol over
// both transports, durable, and re-verifies the committed history.
func TestDistCommit(t *testing.T) {
	protocols := map[string]Protocol{
		"hybrid": Hybrid, "closed-nested": ClosedNested,
		"open-nested": OpenNested, "global-2pl": Global2PL,
	}
	for _, transport := range []string{"chan", "tcp"} {
		for pname, proto := range protocols {
			t.Run(transport+"/"+pname, func(t *testing.T) {
				t.Parallel()
				cl := startCluster(t, distConfig(t, proto, transport, true))
				progs := transferPrograms(10)
				for i, prog := range progs {
					res, err := cl.Submit(fmt.Sprintf("T%d", i+1), prog)
					if err != nil {
						t.Fatalf("T%d: %v", i+1, err)
					}
					if res == nil {
						t.Fatalf("T%d: nil result", i+1)
					}
				}
				if err := cl.Settle(5 * time.Second); err != nil {
					t.Fatal(err)
				}
				distConserved(t, cl)
				distAudit(t, cl)
				if m := cl.Metrics(); m.Commits != int64(len(progs)) {
					t.Fatalf("commits = %d, want %d (%s)", m.Commits, len(progs), m)
				}
			})
		}
	}
}

// TestDistVolatile runs a WAL-less cluster: commits still work, the
// history is still checkable; only crash recovery is off the table.
func TestDistVolatile(t *testing.T) {
	cl := startCluster(t, distConfig(t, Hybrid, "chan", false))
	for i, prog := range transferPrograms(6) {
		if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), prog); err != nil {
			t.Fatalf("T%d: %v", i+1, err)
		}
	}
	if err := cl.Settle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	distConserved(t, cl)
	distAudit(t, cl)
}

// distRun submits programs on a client pool, tolerating ErrCrashed (the
// expected drain of a crashing run), and returns the committed names.
func distRun(t *testing.T, cl *Cluster, progs []Invocation, clients int) map[string]bool {
	t.Helper()
	outcomes, _ := Drive(cl, progs, clients)
	committed := map[string]bool{}
	for i, o := range outcomes {
		name := fmt.Sprintf("T%d", i+1)
		switch {
		case o.Err == nil:
			committed[name] = true
		case errors.Is(o.Err, ErrCrashed):
		default:
			t.Errorf("%s: unexpected error: %v", name, o.Err)
		}
	}
	return committed
}

// TestDistConcurrent hammers one cluster with concurrent conflicting
// transfers (every program touches the same two accounts under an RW
// table), so wait-die sacrifices, retries, and cross-participant lock
// waits all fire.
func TestDistConcurrent(t *testing.T) {
	cl := startCluster(t, distConfig(t, Hybrid, "chan", true))
	progs := transferPrograms(24)
	committed := distRun(t, cl, progs, 4)
	if len(committed) != len(progs) {
		t.Fatalf("%d of %d programs committed", len(committed), len(progs))
	}
	if err := cl.Settle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	distConserved(t, cl)
	distAudit(t, cl)
}

// TestDistSentinelErrors asserts errors.Is works across the RPC layer
// for every sentinel a distributed client can see (satellite: sentinel
// wrapping with %w end to end).
func TestDistSentinelErrors(t *testing.T) {
	t.Run("overload", func(t *testing.T) {
		cfg := distConfig(t, Hybrid, "chan", false)
		cfg.MaxActive = 1
		cl := startCluster(t, cfg)

		entered := make(chan struct{})
		release := make(chan struct{})
		slow := transferPrograms(1)[0]
		slow.Steps[0].Sync = func() {
			close(entered)
			<-release
		}

		done := make(chan error, 1)
		go func() {
			_, err := cl.Submit("Tslow", slow)
			done <- err
		}()
		<-entered
		_, err := cl.Submit("Tover", transferPrograms(1)[0])
		if !errors.Is(err, ErrOverload) {
			t.Fatalf("err = %v, want ErrOverload", err)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("slow transaction: %v", err)
		}
	})

	t.Run("participant-down", func(t *testing.T) {
		cfg := distConfig(t, Hybrid, "chan", true)
		cfg.MaxRetries = 2
		cfg.RPCTimeout = 10 * time.Millisecond
		cfg.RPCRetries = 1
		cl := startCluster(t, cfg)
		if err := cl.CrashParticipant("east"); err != nil {
			t.Fatal(err)
		}
		_, err := cl.Submit("T1", transferPrograms(1)[0])
		if !errors.Is(err, ErrTooManyRetries) {
			t.Fatalf("err = %v, want ErrTooManyRetries", err)
		}
		// The last abort cause (an RPC deadline against the dead
		// participant) must stay visible through the %w chain.
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout in the chain", err)
		}
	})

	t.Run("coordinator-crashed", func(t *testing.T) {
		cl := startCluster(t, distConfig(t, Hybrid, "chan", true))
		cl.CrashCoordinator()
		if _, err := cl.Submit("T1", transferPrograms(1)[0]); !errors.Is(err, ErrCrashed) {
			t.Fatalf("err = %v, want ErrCrashed", err)
		}
	})

	t.Run("client-abort", func(t *testing.T) {
		cl := startCluster(t, distConfig(t, Hybrid, "chan", false))
		prog := transferPrograms(1)[0]
		cause := errors.New("boom")
		prog.Steps = append(prog.Steps, Step{Fail: cause})
		_, err := cl.Submit("T1", prog)
		if !errors.Is(err, ErrClientAbort) || !errors.Is(err, cause) {
			t.Fatalf("err = %v, want ErrClientAbort wrapping the cause", err)
		}
		if err := cl.Settle(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		distConserved(t, cl) // the partial first leg must be compensated
	})
}

// TestDistCoordinatorCrash covers both coordinator crash sites. Pre-
// decision: every participant is prepared, no decision is durable, so
// recovery presumes abort and the termination protocol rolls the
// prepared effects back. Post-decision: the decision is durable but
// undelivered, so recovery must re-deliver it from the log alone.
func TestDistCoordinatorCrash(t *testing.T) {
	for _, tc := range []struct {
		site string
		want bool // the armed transaction's effects must survive
	}{
		{DistCrashCoordPre, false},
		{DistCrashCoordPost, true},
	} {
		t.Run(tc.site, func(t *testing.T) {
			cl := startCluster(t, distConfig(t, Hybrid, "chan", true))
			progs := transferPrograms(8)
			for i := 0; i < 4; i++ {
				if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), progs[i]); err != nil {
					t.Fatalf("T%d: %v", i+1, err)
				}
			}
			cl.SetCrash(DistCrash{Txn: "T5", Site: tc.site})
			if _, err := cl.Submit("T5", progs[4]); !errors.Is(err, ErrCrashed) {
				t.Fatalf("T5: err = %v, want ErrCrashed", err)
			}
			if err := cl.RecoverCoordinator(); err != nil {
				t.Fatal(err)
			}
			// Fresh roots must make progress against the recovered
			// coordinator while T5's in-doubt state drains.
			for i := 5; i < 8; i++ {
				if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), progs[i]); err != nil {
					t.Fatalf("T%d after recovery: %v", i+1, err)
				}
			}
			if err := cl.Settle(5 * time.Second); err != nil {
				t.Fatalf("%v (metrics: %s)", err, cl.Metrics())
			}
			distConserved(t, cl)
			distAudit(t, cl)

			// Atomicity of the armed transaction: T5 moves amt from east
			// to west; both legs or neither.
			amt := int64(4%7 + 1) // transferPrograms amount for index 4
			var want int64
			for i := 0; i < 8; i++ {
				if i == 4 && !tc.want {
					continue
				}
				want += int64(i%7 + 1)
			}
			_ = amt
			if west := cl.StoreSnapshot("west")["acct"]; west != want {
				t.Fatalf("west = %d, want %d: %s decision not applied atomically", west, want, tc.site)
			}
		})
	}
}

// TestDistParticipantCrash covers both participant crash sites.
// part-prepare: east forces its prepare then dies before voting; the
// attempt is presumed aborted, east recovers with the transaction in
// doubt, and the retried attempt supersedes it. part-decide: east
// forces the commit decision then dies before acking; recovery finds
// the transaction durably committed and the re-delivered decision acks.
func TestDistParticipantCrash(t *testing.T) {
	for _, site := range []string{DistCrashPartPrepare, DistCrashPartDecide} {
		t.Run(site, func(t *testing.T) {
			cl := startCluster(t, distConfig(t, Hybrid, "chan", true))
			progs := transferPrograms(8)
			for i := 0; i < 4; i++ {
				if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), progs[i]); err != nil {
					t.Fatalf("T%d: %v", i+1, err)
				}
			}
			cl.SetCrash(DistCrash{Txn: "T5", Site: site, Part: "east"})

			// The submit retries against the dead participant; recover it
			// concurrently so a later attempt can land.
			var recErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				deadline := time.Now().Add(5 * time.Second)
				for {
					if p := cl.participant("east"); p != nil && p.crashed.Load() {
						recErr = cl.RecoverParticipant("east")
						return
					}
					if time.Now().After(deadline) {
						recErr = errors.New("east never crashed")
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
			if _, err := cl.Submit("T5", progs[4]); err != nil {
				t.Fatalf("T5: %v", err)
			}
			wg.Wait()
			if recErr != nil {
				t.Fatal(recErr)
			}
			for i := 5; i < 8; i++ {
				if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), progs[i]); err != nil {
					t.Fatalf("T%d: %v", i+1, err)
				}
			}
			if err := cl.Settle(5 * time.Second); err != nil {
				t.Fatalf("%v (metrics: %s)", err, cl.Metrics())
			}
			distConserved(t, cl)
			distAudit(t, cl)

			// All eight programs committed: west holds every amount.
			var want int64
			for i := 0; i < 8; i++ {
				want += int64(i%7 + 1)
			}
			if west := cl.StoreSnapshot("west")["acct"]; west != want {
				t.Fatalf("west = %d, want %d after %s recovery", west, want, site)
			}
		})
	}
}

// TestDistNetworkFaults runs the full workload through a hostile
// network — drops, duplicates, delays, reorders, one-way partitions —
// and demands the exact same outcome as a clean run: everything
// commits, money conserved, history Comp-C.
func TestDistNetworkFaults(t *testing.T) {
	plans := map[string]comm.NetFaultPlan{
		"drop-dup":      {Seed: 7, DropProb: 0.05, DupProb: 0.10},
		"delay-reorder": {Seed: 11, DelayProb: 0.20, ReorderProb: 0.15, Delay: time.Millisecond},
		"partition":     {Seed: 13, PartitionProb: 0.01, PartitionWindow: 10 * time.Millisecond},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := distConfig(t, Hybrid, "chan", true)
			cfg.NetFaults = plan
			cfg.MaxRetries = 60
			cl := startCluster(t, cfg)
			progs := transferPrograms(16)
			committed := distRun(t, cl, progs, 2)
			if len(committed) != len(progs) {
				t.Fatalf("%d of %d programs committed (net: %+v)", len(committed), len(progs), cl.NetStats())
			}
			if err := cl.Settle(10 * time.Second); err != nil {
				t.Fatalf("%v (metrics: %s)", err, cl.Metrics())
			}
			distConserved(t, cl)
			distAudit(t, cl)
			if s := cl.NetStats(); s.Sent == 0 {
				t.Fatal("fault injector saw no traffic")
			}
		})
	}
}

// TestDistIdempotence is the duplicate/reorder property test: a
// sequential client's programs, delivered through a network that
// duplicates and reorders (but never loses) every message class, must
// leave every participant store byte-identical to exactly-once
// delivery, across a seed sweep.
func TestDistIdempotence(t *testing.T) {
	run := func(t *testing.T, plan comm.NetFaultPlan) (map[string]int64, map[string]int64) {
		cfg := distConfig(t, Hybrid, "chan", true)
		cfg.NetFaults = plan
		cfg.MaxRetries = 60
		cl := startCluster(t, cfg)
		for i, prog := range transferPrograms(12) {
			if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), prog); err != nil {
				t.Fatalf("T%d: %v", i+1, err)
			}
		}
		if err := cl.Settle(10 * time.Second); err != nil {
			t.Fatalf("%v (metrics: %s)", err, cl.Metrics())
		}
		distAudit(t, cl)
		return cl.StoreSnapshot("east"), cl.StoreSnapshot("west")
	}

	cleanEast, cleanWest := run(t, comm.NetFaultPlan{})
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			east, west := run(t, comm.NetFaultPlan{
				Seed: seed, DupProb: 0.25, ReorderProb: 0.25, Delay: time.Millisecond,
			})
			if !reflect.DeepEqual(east, cleanEast) || !reflect.DeepEqual(west, cleanWest) {
				t.Fatalf("stores diverged under duplication/reordering:\n east = %v, want %v\n west = %v, want %v",
					east, cleanEast, west, cleanWest)
			}
		})
	}
}

// TestDistDoubleCrash crashes a participant mid-run, recovers it, then
// crashes and recovers the coordinator too — the log-only state on both
// sides must still reconcile to a conserved, Comp-C history.
func TestDistDoubleCrash(t *testing.T) {
	cl := startCluster(t, distConfig(t, Hybrid, "chan", true))
	progs := transferPrograms(10)
	for i := 0; i < 4; i++ {
		if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), progs[i]); err != nil {
			t.Fatalf("T%d: %v", i+1, err)
		}
	}
	cl.SetCrash(DistCrash{Txn: "T5", Site: DistCrashPartDecide, Part: "west"})
	var wg sync.WaitGroup
	wg.Add(1)
	var recErr error
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if p := cl.participant("west"); p != nil && p.crashed.Load() {
				recErr = cl.RecoverParticipant("west")
				return
			}
			if time.Now().After(deadline) {
				recErr = errors.New("west never crashed")
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	if _, err := cl.Submit("T5", progs[4]); err != nil {
		t.Fatalf("T5: %v", err)
	}
	wg.Wait()
	if recErr != nil {
		t.Fatal(recErr)
	}
	cl.CrashCoordinator()
	if err := cl.RecoverCoordinator(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), progs[i]); err != nil {
			t.Fatalf("T%d: %v", i+1, err)
		}
	}
	if err := cl.Settle(5 * time.Second); err != nil {
		t.Fatalf("%v (metrics: %s)", err, cl.Metrics())
	}
	distConserved(t, cl)
	distAudit(t, cl)
}

// TestDistWALGuards checks the durability guard rails: a second cluster
// on the same WAL root is refused, and a coordinator log is refused by
// the single-process Recover.
func TestDistWALGuards(t *testing.T) {
	cfg := distConfig(t, Hybrid, "chan", true)
	cl := startCluster(t, cfg)
	if _, err := cl.Submit("T1", transferPrograms(1)[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := StartCluster(cfg); !errors.Is(err, ErrWALExists) {
		t.Fatalf("second cluster on the same WAL root: err = %v, want ErrWALExists", err)
	}
	cl.Close()
	if _, err := Recover(WALConfig{Dir: coordDir(cfg.WALRoot)}); err == nil {
		t.Fatal("single-process Recover accepted a distributed coordinator log")
	}
}
