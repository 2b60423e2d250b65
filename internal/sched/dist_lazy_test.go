package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// Protocol tests of the lazy participant commit record: the ack that runs
// ahead of the log, the durable watermark that catches up with it, and the
// incarnation that keeps the two comparable across a participant crash.

// lazyConfig is a durable group-commit cluster whose logs fsync only at
// force points (so a lazy commit record really is unsynced when acked) and
// whose liveness timers are parked: nothing but the protocol's own
// messages — and the re-delivery rounds Settle kicks — resolves anything.
func lazyConfig(t *testing.T) DistConfig {
	cfg := distConfig(t, Hybrid, "chan", true)
	cfg.GroupCommit = true
	cfg.SyncEvery = 64
	cfg.SweepEvery, cfg.QueryAfter = time.Hour, time.Hour
	cfg.Seeds = map[string]map[string]int64{"east": {"a1": distInitial, "a2": distInitial}}
	return cfg
}

// transferOn moves amt from east to west on one item.
func transferOn(item string, amt int64) Invocation {
	leg := func(comp string, amt int64) Step {
		return Step{Invoke: &Invocation{Component: comp, Item: item, Mode: data.ModeIncr,
			Steps: []Step{{Op: &data.Op{Mode: data.ModeIncr, Item: item, Arg: amt}}}}}
	}
	return Invocation{Component: "bank", Steps: []Step{leg("east", -amt), leg("west", amt)}}
}

// commitRecordOnDisk reports whether part's log holds a commit record for
// txn (after a crash: whether it was durable).
func commitRecordOnDisk(t *testing.T, root, part, txn string) bool {
	t.Helper()
	recs, _, err := wal.ReadAll(partDir(root, part))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == wal.TypeDecision && r.Txn == txn && r.Mode == "commit" {
			return true
		}
	}
	return false
}

func pendingAt(cl *Cluster, txn string) []string {
	c := cl.coordinator()
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.committed[txn].pending...)
}

// A crash at part-decide loses the lazy commit record: the participant
// recovers in doubt — its prepare and the global decision are durable, its
// own record is not — and re-delivery commits it, because the coordinator
// never ended a transaction whose record it had not seen durable.
func TestDistLazyCommitRecordLost(t *testing.T) {
	cfg := lazyConfig(t)
	cl := startCluster(t, cfg)

	cl.SetCrash(DistCrash{Txn: "T1", Site: DistCrashPartDecide, Part: "east"})
	if _, err := cl.Submit("T1", transferOn("a1", 5)); err != nil {
		t.Fatalf("T1: %v", err)
	}
	if commitRecordOnDisk(t, cfg.WALRoot, "east", "T1") {
		t.Fatal("east's commit record survived the crash: it was forced, not lazy")
	}
	distEnded(t, cfg.WALRoot)
	if err := cl.RecoverParticipant("east"); err != nil {
		t.Fatal(err)
	}
	if n := cl.participant("east").inDoubt(); n != 1 {
		t.Fatalf("east recovered with %d in-doubt transactions, want T1", n)
	}
	if err := cl.Settle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if east, west := cl.StoreSnapshot("east")["a1"], cl.StoreSnapshot("west")["a1"]; east != distInitial-5 || west != 5 {
		t.Fatalf("east a1 = %d, west a1 = %d: T1 did not commit on both sides", east, west)
	}
	if !commitRecordOnDisk(t, cfg.WALRoot, "east", "T1") {
		t.Fatal("settled, but east still holds no commit record for T1")
	}
	distAudit(t, cl)
	distEnded(t, cfg.WALRoot)
}

// The LSN-reuse schedule. east acks T1's commit lazily at some LSN and
// crashes before any sync, so the record is gone and its next life hands
// the LSN out again. T2's prepare force then pushes the new life's
// watermark past it. A coordinator comparing bare LSNs would take that
// watermark for T1's record, end T1, and — its decision log now saying
// nobody is owed anything — never re-deliver it after its own crash: T1
// would stay in doubt at east for good. The incarnation stamp keeps T1
// pending across both crashes.
func TestDistLazyAckIncarnation(t *testing.T) {
	cfg := lazyConfig(t)
	cl := startCluster(t, cfg)

	if _, err := cl.Submit("T1", transferOn("a1", 5)); err != nil {
		t.Fatalf("T1: %v", err)
	}
	if err := cl.CrashParticipant("east"); err != nil {
		t.Fatal(err)
	}
	if commitRecordOnDisk(t, cfg.WALRoot, "east", "T1") {
		t.Fatal("east's commit record survived the crash: it was forced, not lazy")
	}
	if err := cl.RecoverParticipant("east"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit("T2", transferOn("a2", 3)); err != nil {
		t.Fatalf("T2: %v", err)
	}
	if got := pendingAt(cl, "T1"); len(got) != 1 || got[0] != "east" {
		t.Fatalf("T1 pending at %v after T2's vote, want [east]: a watermark of east's new life retired an ack of the old one", got)
	}
	distEnded(t, cfg.WALRoot)

	cl.CrashCoordinator()
	if err := cl.RecoverCoordinator(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Settle(5 * time.Second); err != nil {
		t.Fatalf("T1 was not re-delivered to east: %v", err)
	}
	east, west := cl.StoreSnapshot("east"), cl.StoreSnapshot("west")
	if east["a1"] != distInitial-5 || west["a1"] != 5 || east["a2"] != distInitial-3 || west["a2"] != 3 {
		t.Fatalf("east %v west %v: T1 and T2 did not both commit on both sides", east, west)
	}
	distAudit(t, cl)
	distEnded(t, cfg.WALRoot)
}

// A read-only participant still validates the attempt at Prepare. bank
// holds one semantic lock and then hears nothing while east works through
// a slow invocation, so bank's sweeper abandons the attempt; east, touched
// by every apply, keeps it. bank must answer the Prepare stale — not READ —
// so the attempt aborts everywhere and the retry commits exactly once.
func TestDistReadOnlyAbandonedAbortsAtPrepare(t *testing.T) {
	cfg := distConfig(t, Hybrid, "chan", true)
	cfg.GroupCommit = true
	cfg.AbandonAfter, cfg.SweepEvery = 60*time.Millisecond, 5*time.Millisecond
	cl := startCluster(t, cfg)

	var attempts atomic.Int32
	steps := make([]Step, 12)
	for i := range steps {
		steps[i] = Step{
			Op: &data.Op{Mode: data.ModeIncr, Item: "acct", Arg: -1},
			Sync: func() {
				if i == 0 {
					attempts.Add(1)
				}
				if attempts.Load() == 1 {
					time.Sleep(10 * time.Millisecond)
				}
			},
		}
	}
	prog := Invocation{Component: "bank", Steps: []Step{
		{Invoke: &Invocation{Component: "east", Item: "acct", Mode: data.ModeIncr, Steps: steps}},
	}}
	res, err := cl.Submit("T1", prog)
	if err != nil {
		t.Fatalf("T1: %v", err)
	}
	m := cl.Metrics()
	if res.Retries == 0 || m.Unilateral == 0 {
		t.Fatalf("retries=%d unilateral=%d: the abandoned attempt was not turned into an abort (%s)", res.Retries, m.Unilateral, m)
	}
	if err := cl.Settle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if east := cl.StoreSnapshot("east")["acct"]; east != distInitial-int64(len(steps)) || m.Commits != 1 {
		t.Fatalf("east acct = %d after %d commits, want exactly one attempt's %d decrements", east, m.Commits, len(steps))
	}
	distAudit(t, cl)
	distEnded(t, cfg.WALRoot)
}

// CheckEnded must see what it exists to see: an end record for a
// transaction whose updater never got a commit record.
func TestDistCheckEndedFlagsEarlyEnd(t *testing.T) {
	cfg := lazyConfig(t)
	cl := startCluster(t, cfg)
	cl.SetCrash(DistCrash{Txn: "T1", Site: DistCrashPartDecide, Part: "east"})
	if _, err := cl.Submit("T1", transferOn("a1", 5)); err != nil {
		t.Fatalf("T1: %v", err)
	}
	distEnded(t, cfg.WALRoot)
	c := cl.coordinator()
	if _, err := c.wal.append(wal.Record{Type: wal.TypeEnd, Txn: "T1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.wal.sync(); err != nil {
		t.Fatal(err)
	}
	if err := CheckEnded(cfg.WALRoot); err == nil {
		t.Fatal("CheckEnded accepted a TypeEnd for T1 while east holds no commit record")
	}
}
