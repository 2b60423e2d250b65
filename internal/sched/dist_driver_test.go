package sched

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"
)

// TestDistDriverParity pins the one driver: the same seeded programs, run
// by one client through a Runtime and through a volatile chan Cluster,
// must return the same read values per root and record byte-identical
// executions, on every topology shape and under every protocol.
func TestDistDriverParity(t *testing.T) {
	topos := []struct {
		name string
		topo func() *Topology
	}{
		{"bank", BankTopology},
		{"stack3", func() *Topology { return StackTopology(3) }},
		{"diamond", DiamondTopology},
	}
	for _, tc := range topos {
		for _, proto := range []Protocol{OpenNested, ClosedNested, Global2PL, Hybrid, NoCC} {
			t.Run(tc.name+"/"+proto.String(), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 2; seed++ {
					progs := GenPrograms(tc.topo(), WorkloadParams{
						Roots: 16, StepsPerTx: 3, Items: 4,
						ReadRatio: 0.3, WriteRatio: 0.3, Seed: seed,
					})
					rt := tc.topo().NewRuntime(proto)
					cl := startCluster(t, DistConfig{Protocol: proto, Topo: tc.topo(), Transport: "chan"})
					for i, prog := range progs {
						name := fmt.Sprintf("T%d", i+1)
						local, err := rt.Submit(name, prog)
						if err != nil {
							t.Fatalf("seed %d: runtime %s: %v", seed, name, err)
						}
						dist, err := cl.Submit(name, prog)
						if err != nil {
							t.Fatalf("seed %d: cluster %s: %v", seed, name, err)
						}
						if !slices.Equal(local.Values, dist.Values) {
							t.Fatalf("seed %d: %s read %v in process, %v in the cluster", seed, name, local.Values, dist.Values)
						}
					}
					if a, b := encodeSystem(t, rt.RecordedSystem()), encodeSystem(t, cl.RecordedSystem()); !bytes.Equal(a, b) {
						t.Fatalf("seed %d: recorded executions differ:\nruntime: %s\ncluster: %s", seed, a, b)
					}
				}
			})
		}
	}
}

// TestDistInvocationDeadline: a cluster checks Invocation.Deadline between
// steps, as the Runtime does, and an expired client-supplied deadline is
// final — the root fails with ErrTimeout, is not retried, and its first
// leg is undone at its participant.
func TestDistInvocationDeadline(t *testing.T) {
	cl := startCluster(t, distConfig(t, Hybrid, "chan", true))
	east, west := cl.StoreSnapshot("east"), cl.StoreSnapshot("west")
	retries := cl.Metrics().Retries

	prog := transferPrograms(1)[0]
	prog.Deadline = time.Now().Add(30 * time.Millisecond)
	prog.Steps[1].Sync = func() { time.Sleep(60 * time.Millisecond) }
	if _, err := cl.Submit("T1", prog); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if err := cl.Settle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if m.Retries != retries {
		t.Fatalf("retries moved %d -> %d: an expired client deadline must be final", retries, m.Retries)
	}
	if m.InDoubt != 0 || m.Commits != 0 {
		t.Fatalf("in-doubt = %d, commits = %d, want 0 and 0", m.InDoubt, m.Commits)
	}
	if !maps.Equal(cl.StoreSnapshot("east"), east) || !maps.Equal(cl.StoreSnapshot("west"), west) {
		t.Fatalf("stores changed: east %v -> %v, west %v -> %v",
			east, cl.StoreSnapshot("east"), west, cl.StoreSnapshot("west"))
	}
}
