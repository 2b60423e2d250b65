package sched

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"compositetx/internal/comm"
	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// nodeGoroutines lists the goroutines inside a node's background code: a
// frame of its loops or in-doubt query, not a goroutine they created and
// not one past its last call. (A node's mux is comm.Mux.Close's to wait
// for.)
func nodeGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, line := range strings.Split(g, "\n") {
			if !strings.HasPrefix(line, "created by") && (strings.Contains(line, "(*Coordinator).redeliverLoop(") ||
				strings.Contains(line, "(*Participant).sweeper(") || strings.Contains(line, "(*Participant).resolveInDoubt(")) {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// TestCrashNodeLifecycle crashes each node kind, then closes it twice. A crash
// drains every blocked lock waiter with ErrCrashed and loses what the log
// had not synced; a close after it, and a second close, do nothing but
// wait, and once close returns no background goroutine of the node runs —
// a participant's in-doubt query included.
func TestCrashNodeLifecycle(t *testing.T) {
	cfg := DistConfig{Protocol: Hybrid, Topo: transferTopo(),
		SweepEvery: time.Millisecond, QueryAfter: time.Millisecond,
		RPCTimeout: 5 * time.Millisecond, RPCRetries: 1}.normalized()
	unsynced := wal.Options{SyncEvery: 1 << 20}
	type node struct {
		n     *lifecycle
		lm    *lockManager // nil: the kind holds no locks of its own
		crash func()
	}
	for _, tc := range []struct {
		name  string
		start func(t *testing.T, dir string, net comm.Network) node
	}{
		{"runtime", func(t *testing.T, dir string, _ comm.Network) node {
			rt := transferTopo().NewRuntime(Hybrid)
			if err := rt.EnableWAL(WALConfig{Dir: dir, SyncEvery: unsynced.SyncEvery}); err != nil {
				t.Fatal(err)
			}
			return node{&rt.lifecycle, rt.comps["east"].lm, func() {
				defer func() { _ = recover().(crashPanic) }()
				rt.crashNow(nil)
			}}
		}},
		{"coordinator", func(t *testing.T, dir string, net comm.Network) node {
			c := newCoordinator(cfg, cfg.Topo, nil)
			j, err := attachFresh(dir, unsynced, []byte(`{}`), nil)
			if err != nil {
				t.Fatal(err)
			}
			c.wal = j
			ep, err := net.Endpoint(coordName)
			if err != nil {
				t.Fatal(err)
			}
			c.run(ep, c.handle, func() { c.redeliverLoop(cfg.QueryAfter) })
			return node{&c.lifecycle, nil, c.crashNow}
		}},
		{"participant", func(t *testing.T, dir string, net comm.Network) node {
			p := newParticipant(ComponentSpec{Name: "east", HasStore: true}, cfg, nil)
			j, err := attachFresh(dir, unsynced, []byte(`{}`), nil)
			if err != nil {
				t.Fatal(err)
			}
			p.wal = j
			// A prepared attempt idle past QueryAfter: the sweeper asks a
			// coordinator nobody runs, and the query waits out its RPCs.
			p.txns["Tq"] = &ptxn{attempt: 1, prepared: true, steps: map[string]*pdedup{}, lastTouch: time.Now().Add(-time.Hour)}
			ep, err := net.Endpoint("east")
			if err != nil {
				t.Fatal(err)
			}
			p.run(ep, p.handle, p.sweeper)
			for p.queries.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			return node{&p.lifecycle, p.c.lm, p.crashNow}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := nodeGoroutines()
			net := comm.NewChanNetwork()
			defer net.Close()
			dir := t.TempDir()
			nd := tc.start(t, dir, net)
			synced := nd.n.wal.records()
			if _, err := nd.n.wal.append(wal.Record{Type: wal.TypeAbort, Txn: "lost"}); err != nil {
				t.Fatal(err)
			}
			waited := make(chan error, 1)
			if nd.lm != nil {
				rw := data.RWTable()
				if err := nd.lm.acquireUntil(rw, "x", data.ModeWrite, "young", 2, WaitDie, nil, time.Time{}); err != nil {
					t.Fatal(err)
				}
				go func() { waited <- nd.lm.acquireUntil(rw, "x", data.ModeWrite, "old", 1, WaitDie, nil, time.Time{}) }()
				for nd.lm.waitCount() == 0 {
					time.Sleep(time.Millisecond)
				}
			}

			nd.crash()
			if nd.lm != nil {
				if err := <-waited; !errors.Is(err, ErrCrashed) {
					t.Fatalf("blocked waiter returned %v, want ErrCrashed", err)
				}
			}
			for i := 0; i < 2; i++ {
				if err := nd.n.close(); err != nil {
					t.Fatalf("close %d after the crash: %v", i+1, err)
				}
			}
			if after := nodeGoroutines(); len(after) > len(before) {
				t.Fatalf("%d node goroutines outlive close (%d before the node started):\n%s", len(after), len(before), strings.Join(after, "\n\n"))
			}
			scan, err := wal.ScanDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := uint64(scan.Info.Records); got != synced {
				t.Fatalf("rescan finds %d records, want the %d synced before the crash", got, synced)
			}
		})
	}
}
