package sched

import (
	"strconv"
	"testing"

	"compositetx/internal/wal"
)

// assertBatchesParentsFirst reads the log in dir back and checks every
// commit batch (the node, event and terminator records one stageRecords
// call journals) declares each node after its parent.
func assertBatchesParentsFirst(t *testing.T, dir string, terminator wal.Type) {
	t.Helper()
	recs, _, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	batches := 0
	for _, r := range recs {
		switch r.Type {
		case wal.TypeNode:
			if r.Parent != "" && !declared[r.Parent] {
				t.Fatalf("%s: node %s is journaled before its parent %s", r.Txn, r.Node, r.Parent)
			}
			declared[r.Node] = true
		case terminator:
			clear(declared)
			batches++
		}
	}
	if batches == 0 {
		t.Fatal("the log holds no commit batch")
	}
}

// TestStagesParentsFirst: a stage declares every subtransaction before
// its subtree, under every protocol, through subtransaction retries
// (OpenNested and Hybrid re-run a faulted subtree and truncate the stage
// back to the declaration) and optimistic roots, and in a cluster's
// coordinator log. The certifier and recovery read stages in this order.
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
}
