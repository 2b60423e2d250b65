package sched

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"compositetx/internal/comm"
	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// Regression suite for review findings against the distributed runtime:
// participant recovery must replay applies and compensations in log
// order, the termination protocol must resolve per attempt, and decision
// re-delivery must carry the committing attempt.

// TestDistRecoverLogOrderReplay pins the participant recovery replay
// order. ModeWrite compensations write back Prev and do not commute with
// later applies: after Apply(x=5, T1), Comp(x=seed, T1 aborted),
// Apply(x=7, T2 committed), a recovery that replays all applies first
// and all compensations second rebuilds x=seed instead of x=7.
func TestDistRecoverLogOrderReplay(t *testing.T) {
	cfg := distConfig(t, Hybrid, "chan", true)
	cl := startCluster(t, cfg)

	write := func(arg int64, fail bool) Invocation {
		steps := []Step{{Invoke: &Invocation{Component: "east", Item: "acct", Mode: data.ModeWrite,
			Steps: []Step{{Op: &data.Op{Mode: data.ModeWrite, Item: "acct", Arg: arg}}}}}}
		if fail {
			steps = append(steps, Step{Fail: errors.New("client abort")})
		}
		return Invocation{Component: "bank", Steps: steps}
	}

	// T1 writes and aborts client-side: its apply and its compensation
	// (write back the seed) are journaled. T2 then writes and commits.
	if _, err := cl.Submit("T1", write(5, true)); !errors.Is(err, ErrClientAbort) {
		t.Fatalf("T1: got %v, want ErrClientAbort", err)
	}
	if _, err := cl.Submit("T2", write(7, false)); err != nil {
		t.Fatalf("T2: %v", err)
	}
	if got := cl.StoreSnapshot("east")["acct"]; got != 7 {
		t.Fatalf("pre-crash east acct = %d, want 7", got)
	}

	if err := cl.CrashParticipant("east"); err != nil {
		t.Fatal(err)
	}
	if err := cl.RecoverParticipant("east"); err != nil {
		t.Fatal(err)
	}
	if got := cl.StoreSnapshot("east")["acct"]; got != 7 {
		t.Fatalf("recovered east acct = %d, want 7 (compensations replayed out of log order)", got)
	}
	distEnded(t, cfg.WALRoot)
}

// TestDistQueryPerAttempt pins the coordinator's termination-protocol
// answer to the queried attempt: a durable commit decision answers
// commit only for the attempt that committed; a prepared-but-superseded
// earlier attempt gets the presumed abort, an in-flight transaction gets
// retry, an unknown one the presumed abort.
func TestDistQueryPerAttempt(t *testing.T) {
	net := comm.NewChanNetwork()
	t.Cleanup(func() { net.Close() })

	cfg := distConfig(t, Hybrid, "chan", false).normalized()
	c := newCoordinator(cfg, transferTopo(), &distCrashState{})
	ep, err := net.Endpoint(coordName)
	if err != nil {
		t.Fatal(err)
	}
	c.run(ep, c.handle, nil)
	t.Cleanup(func() { c.close() })
	c.mu.Lock()
	c.committed["Tc"] = &coTxn{attempt: 2, parts: []string{"east"}, ended: true}
	c.inflight["Tf"] = true
	c.mu.Unlock()

	pep, err := net.Endpoint("probe")
	if err != nil {
		t.Fatal(err)
	}
	mux := comm.NewMux(pep, func(comm.Message) {})
	mux.Start()
	t.Cleanup(func() { mux.Close() })
	query := func(txn string, attempt uint32) comm.Message {
		t.Helper()
		rep, err := mux.Call(coordName, comm.Message{Kind: comm.KindQuery, Txn: txn, Attempt: attempt},
			cfg.RPCTimeout, cfg.RPCRetries)
		if err != nil {
			t.Fatalf("query %s attempt %d: %v", txn, attempt, err)
		}
		return rep
	}

	if rep := query("Tc", 2); !rep.Commit || rep.Code != dcodeOK {
		t.Fatalf("committed attempt: got commit=%v code=%d, want commit", rep.Commit, rep.Code)
	}
	if rep := query("Tc", 1); rep.Commit || rep.Code != dcodeOK {
		t.Fatalf("superseded attempt: got commit=%v code=%d, want presumed abort", rep.Commit, rep.Code)
	}
	if rep := query("Tf", 1); rep.Code != dcodeRetry {
		t.Fatalf("in-flight: got code=%d, want dcodeRetry", rep.Code)
	}
	if rep := query("Tu", 1); rep.Commit || rep.Code != dcodeOK {
		t.Fatalf("unknown: got commit=%v code=%d, want presumed abort", rep.Commit, rep.Code)
	}
}

// TestDistGroupCommitCrashBetweenFlushAndSend pins the crash window
// between a participant journaling a record and the protocol message that
// reveals it (the Vote after the prepare's shared group flush, the Ack
// after the decision record). A flushed prepare must be durable —
// recovery rebuilds the in-doubt state from it — and the never-sent
// message must be recovered by retry, re-delivery, or the termination
// protocol, never by a false ack.
func TestDistGroupCommitCrashBetweenFlushAndSend(t *testing.T) {
	t.Run("decision-flush-before-ack", func(t *testing.T) {
		cfg := distConfig(t, Hybrid, "chan", true)
		cfg.GroupCommit = true
		cl := startCluster(t, cfg)

		cl.SetCrash(DistCrash{Txn: "T1", Site: DistCrashPartDecide, Part: "east"})
		// The coordinator's decision is durable and west acks, so Submit
		// succeeds; east journaled its TypeDecision record and crashed
		// before the Ack went out.
		if _, err := cl.Submit("T1", transferPrograms(1)[0]); err != nil {
			t.Fatalf("T1: %v", err)
		}
		if err := cl.RecoverParticipant("east"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Settle(5 * time.Second); err != nil {
			t.Fatalf("settle after recovery: %v", err)
		}
		distConserved(t, cl)
		distAudit(t, cl)
		if east := cl.StoreSnapshot("east")["acct"]; east == distInitial {
			t.Fatalf("east acct = %d (unchanged): the decision was lost", east)
		}
		if m := cl.Metrics(); m.GroupForces == 0 {
			t.Fatalf("cell ran without the coalesced force path: %s", m)
		}
		distEnded(t, cfg.WALRoot)
	})

	t.Run("prepare-flush-before-vote", func(t *testing.T) {
		cfg := distConfig(t, Hybrid, "chan", true)
		cfg.GroupCommit = true
		cl := startCluster(t, cfg)

		cl.SetCrash(DistCrash{Txn: "T1", Site: DistCrashPartPrepare, Part: "east"})
		// east group-flushes its TypePrepare record then crashes before the
		// yes-vote; the coordinator times out the vote and presumes abort.
		// A watcher recovers east so a retried attempt can commit.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					for _, name := range cl.CrashedParticipants() {
						_ = cl.RecoverParticipant(name)
					}
				}
			}
		}()
		if _, err := cl.Submit("T1", transferPrograms(1)[0]); err != nil {
			t.Fatalf("T1: %v", err)
		}
		if err := cl.Settle(5 * time.Second); err != nil {
			t.Fatalf("settle: %v", err)
		}
		distConserved(t, cl)
		distAudit(t, cl)
		// Exactly one attempt committed: the crashed attempt's in-doubt
		// prepare must have resolved to abort, not a second commit.
		if east := cl.StoreSnapshot("east")["acct"]; east == distInitial {
			t.Fatalf("east acct = %d (unchanged): retried attempt never committed", east)
		}
		if m := cl.Metrics(); m.Commits != 1 {
			t.Fatalf("commits = %d, want exactly 1: %s", m.Commits, m)
		}
		distEnded(t, cfg.WALRoot)
	})
}

// TestDistRedeliveryCarriesAttempt pins decision re-delivery after a
// coordinator crash: the re-delivered Decide must name the attempt that
// committed, or prepared participants ack idempotently without ever
// committing. The participant sweeper is parked (SweepEvery = 1h) so the
// termination-protocol query path cannot mask a broken re-delivery path.
func TestDistRedeliveryCarriesAttempt(t *testing.T) {
	cfg := distConfig(t, Hybrid, "chan", true)
	cfg.SweepEvery = time.Hour
	cfg.QueryAfter = 40 * time.Millisecond // re-delivery tick
	cl := startCluster(t, cfg)

	cl.SetCrash(DistCrash{Txn: "T1", Site: DistCrashCoordPost})
	prog := transferPrograms(1)[0]
	if _, err := cl.Submit("T1", prog); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Submit: got %v, want ErrCrashed", err)
	}
	// The decision is durable but undelivered: both legs sit prepared.
	if got := cl.participant("east").inDoubt() + cl.participant("west").inDoubt(); got == 0 {
		t.Fatal("no prepared participant transactions before recovery")
	}

	if err := cl.RecoverCoordinator(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Settle(5 * time.Second); err != nil {
		t.Fatalf("re-delivery did not land the decision: %v", err)
	}
	distConserved(t, cl)
	distAudit(t, cl)
	m := cl.Metrics()
	if m.Resolved != 0 {
		t.Fatalf("resolved = %d, want 0 (query path was supposed to be parked)", m.Resolved)
	}
	if m.Redelivers == 0 {
		t.Fatal("redelivers = 0, want at least one re-delivery round")
	}
	// The transfer must have actually committed at both participants.
	if east := cl.StoreSnapshot("east")["acct"]; east == distInitial {
		t.Fatalf("east acct = %d (unchanged): the commit never landed", east)
	}
	distEnded(t, cfg.WALRoot)
}

// TestDistRecoverRejectsMalformedDecision pins that recovery never guesses
// at a CRC-valid but undecodable outcome record. A coordinator commit
// decision without a readable participant list used to recover with no
// participants (retired with TypeEnd on the first re-delivery tick, nobody
// told); one without a readable attempt recovered as attempt 0 (every
// termination query for the real attempt answered "abort" for a committed
// transaction). Both — and a participant prepare with an unreadable
// attempt — must fail recovery with a message naming the record.
func TestDistRecoverRejectsMalformedDecision(t *testing.T) {
	for _, tc := range []struct {
		name, dir string
		rec       wal.Record
	}{
		{"participant list", "coord", wal.Record{Type: wal.TypeDecision, Txn: "Tx", Mode: "commit",
			Node: attemptStr(3), Seq: 9, Meta: []byte(`["east",`)}},
		{"coordinator attempt", "coord", wal.Record{Type: wal.TypeDecision, Txn: "Tx", Mode: "commit",
			Node: "attempt-three", Seq: 9, Meta: []byte(`["east"]`)}},
		{"participant attempt", "part-east", wal.Record{Type: wal.TypePrepare, Txn: "Tx",
			Node: "3", Comp: "east", Seq: 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := distConfig(t, Hybrid, "chan", true)
			cl, err := StartCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Submit("T1", transferPrograms(1)[0]); err != nil {
				t.Fatal(err)
			}
			if err := cl.Settle(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(cfg.WALRoot, tc.dir)
			l, _, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lsn, err := l.Append(tc.rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := RecoverCluster(DistConfig{WALRoot: cfg.WALRoot})
			if err == nil {
				rec.Close()
				t.Fatal("recovery accepted an undecodable outcome record")
			}
			if want := fmt.Sprintf("LSN %d", lsn); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name the record (%s)", err, want)
			}
			// A failed recovery leaves the log closed: it opens again.
			l, _, err = wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
		})
	}
}
