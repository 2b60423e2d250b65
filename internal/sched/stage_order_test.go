package sched

import (
	"slices"
	"strconv"
	"sync"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// assertBatchesParentsFirst reads the log in dir back and checks every
// commit batch (the node, event and terminator records one stageRecords
// call journals) declares each node after its parent and journals its
// events in strictly ascending seq order.
func assertBatchesParentsFirst(t *testing.T, dir string, terminator wal.Type) {
	t.Helper()
	recs, _, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var last uint64 // seq of the batch's previous event
	batches := 0
	for _, r := range recs {
		switch r.Type {
		case wal.TypeNode:
			if r.Parent != "" && !declared[r.Parent] {
				t.Fatalf("%s: node %s is journaled before its parent %s", r.Txn, r.Node, r.Parent)
			}
			declared[r.Node] = true
		case wal.TypeEvent:
			if r.Seq <= last {
				t.Fatalf("%s: event %s (seq %d) is journaled after seq %d", r.Txn, r.Node, r.Seq, last)
			}
			last = r.Seq
		case terminator:
			clear(declared)
			last = 0
			batches++
		}
	}
	if batches == 0 {
		t.Fatal("the log holds no commit batch")
	}
}

// TestStagesParentsFirst: a stage declares every subtransaction before
// its subtree and stages its events in seq order, under every protocol,
// through subtransaction retries (OpenNested and Hybrid re-run a faulted
// subtree and truncate the stage back to the declaration), optimistic
// roots and a commit-time read refresh, and in a cluster's coordinator
// log. The certifier and recovery read stages in this order.
func TestStagesParentsFirst(t *testing.T) {
	topo := StackTopology(3)
	for _, proto := range []Protocol{OpenNested, ClosedNested, Global2PL, Hybrid, NoCC} {
		t.Run(proto.String(), func(t *testing.T) {
			dir := t.TempDir()
			rt := topo.NewRuntime(proto)
			if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
				t.Fatal(err)
			}
			rt.SetFaults(FaultPlan{Seed: 5, ApplyProb: 0.15})
			progs := GenPrograms(topo, WorkloadParams{
				Roots: 24, StepsPerTx: 3, Items: 4,
				ReadRatio: 0.4, WriteRatio: 0.3, Seed: 5,
			})
			for i := range progs {
				progs[i].SnapshotRead = i%3 == 0
			}
			if err := Run(rt, progs, 2); err != nil {
				t.Fatal(err)
			}
			if m := rt.Metrics(); (proto == OpenNested || proto == Hybrid) && m.SubRetries == 0 {
				t.Fatalf("no subtransaction re-ran (%s)", m)
			}
			if err := rt.CloseWAL(); err != nil {
				t.Fatal(err)
			}
			assertBatchesParentsFirst(t, dir, wal.TypeCommit)
		})
	}
	t.Run("cluster", func(t *testing.T) {
		cfg := distConfig(t, Hybrid, "chan", true)
		cl, err := StartCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, prog := range transferPrograms(8) {
			if _, err := cl.Submit("T"+strconv.Itoa(i+1), prog); err != nil {
				cl.Close()
				t.Fatal(err)
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		assertBatchesParentsFirst(t, coordDir(cfg.WALRoot), wal.TypeDecision)
	})
	// T1 snapshot-reads x at east, a writer commits an increment of x, and
	// T1 goes on to increment y at west. Validation finds the read stale
	// and refreshes it, which re-sequences the read after T1's later
	// events: the certifier admits the stage only in seq order.
	t.Run("refresh", func(t *testing.T) {
		dir := t.TempDir()
		rt := BankTopology().NewRuntime(Hybrid)
		rt.Exec = ExecOptimistic
		if err := rt.EnableCertify(); err != nil {
			t.Fatal(err)
		}
		if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		// The two roots declare distinct semantic items at the bank, so
		// the writer never waits on the reader's invocation lock.
		at := func(comp, item string, mode data.Mode, step Step) Step {
			return Step{Invoke: &Invocation{Component: comp, Item: item, Mode: mode, Steps: []Step{step}}}
		}
		writerGo, writerDone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(writerDone)
			<-writerGo
			if _, err := rt.Submit("T2", Invocation{Component: "bank", Steps: []Step{
				at("east", "w", data.ModeIncr, stepIncr("x", 5)),
			}}); err != nil {
				t.Error(err)
			}
		}()
		var once sync.Once
		second := at("west", "y", data.ModeIncr, stepIncr("y", 1))
		second.Sync = func() { once.Do(func() { close(writerGo); <-writerDone }) }
		res, err := rt.Submit("T1", Invocation{Component: "bank", Steps: []Step{
			at("east", "r", data.ModeRead, stepRead("x")),
			second,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if m := rt.Metrics(); m.ValidationRefreshes == 0 || res.Retries != 0 || !slices.Equal(res.Values, []int64{5}) {
			t.Fatalf("refreshes=%d retries=%d values=%v: want the read refreshed to 5 on the first attempt",
				m.ValidationRefreshes, res.Retries, res.Values)
		}
		if err := rt.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		assertBatchesParentsFirst(t, dir, wal.TypeCommit)
	})
}
