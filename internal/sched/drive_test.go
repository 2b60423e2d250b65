package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compositetx/internal/comm"
)

// fakeSubmitter records what a drive did to it. Program i carries its
// index in Item, so a Submit can tell which name it should arrive under.
type fakeSubmitter struct {
	mu             sync.Mutex
	calls          map[string]int
	inflight, peak int
	fail           map[int]error
}

func (f *fakeSubmitter) Submit(name string, root Invocation) (*TxResult, error) {
	f.mu.Lock()
	f.calls[name+"="+root.Item]++
	f.inflight++
	f.peak = max(f.peak, f.inflight)
	f.mu.Unlock()
	time.Sleep(50 * time.Microsecond)
	f.mu.Lock()
	f.inflight--
	f.mu.Unlock()
	var i int
	fmt.Sscan(root.Item, &i)
	return nil, f.fail[i]
}

// The driver's contract: every program is submitted exactly once under
// the name of its index, outcomes come back indexed by program whatever
// other programs returned (an ErrCrashed on one client loses nobody
// else's), and the degenerate sizes behave as Run always has — zero
// programs submit nothing, fewer than one client means one.
func TestDriveContract(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name              string
		programs, clients int
		fail              map[int]error
		wantPeak          int // 0 = any
	}{
		{name: "pool", programs: 50, clients: 8},
		{name: "errors stay with their program", programs: 20, clients: 4,
			fail: map[int]error{3: ErrCrashed, 7: boom, 19: ErrCrashed}},
		{name: "every program fails", programs: 6, clients: 3,
			fail: map[int]error{0: boom, 1: boom, 2: boom, 3: boom, 4: boom, 5: boom}},
		{name: "zero programs", programs: 0, clients: 4},
		{name: "zero clients is one client", programs: 5, clients: 0, wantPeak: 1},
		{name: "negative clients is one client", programs: 5, clients: -3, wantPeak: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			progs := make([]Invocation, tc.programs)
			for i := range progs {
				progs[i].Item = fmt.Sprint(i)
			}
			f := &fakeSubmitter{calls: map[string]int{}, fail: tc.fail}
			outcomes, wall := Drive(f, progs, tc.clients)
			if len(outcomes) != tc.programs || len(f.calls) != tc.programs {
				t.Fatalf("%d outcomes and %d distinct submissions for %d programs",
					len(outcomes), len(f.calls), tc.programs)
			}
			for i, o := range outcomes {
				if n := f.calls[fmt.Sprintf("T%d=%d", i+1, i)]; n != 1 {
					t.Errorf("program %d submitted %d times as T%d", i, n, i+1)
				}
				if o.Err != tc.fail[i] {
					t.Errorf("program %d: err = %v, want %v", i, o.Err, tc.fail[i])
				}
				if o.Latency <= 0 || o.Latency > wall {
					t.Errorf("program %d: latency %v outside (0, wall %v]", i, o.Latency, wall)
				}
			}
			if tc.wantPeak != 0 && f.peak != tc.wantPeak {
				t.Errorf("%d submissions in flight at once, want %d", f.peak, tc.wantPeak)
			}
			if f.peak > max(tc.clients, 1) {
				t.Errorf("%d submissions in flight at once with %d clients", f.peak, tc.clients)
			}
		})
	}
}

// countingNet counts every message handed to the fabric.
type countingNet struct {
	comm.Network
	sent atomic.Int64
}

func (n *countingNet) Endpoint(name string) (comm.Endpoint, error) {
	ep, err := n.Network.Endpoint(name)
	return countingEndpoint{ep, n}, err
}

type countingEndpoint struct {
	comm.Endpoint
	net *countingNet
}

func (e countingEndpoint) Send(to string, m comm.Message) error {
	e.net.sent.Add(1)
	return e.Endpoint.Send(to, m)
}

// The counted cost of one distributed commit, which cannot be noisy: one
// serial client, the channel transport, and every liveness timer (RPC
// retry, sweeper, decision re-delivery) far above commit latency, so the
// only traffic is the protocol's own. A committed root costs
//
//	messages = 2 * (L + A + 2t) - 2r  every RPC is a request and a reply:
//	                                  L semantic-lock calls (one per
//	                                  invocation, at the caller), A leaf
//	                                  applies, a Prepare to each of the t
//	                                  participants touched and a Decide to
//	                                  each but the r that voted READ
//	forces   = n + 1                  n prepares and the coordinator's
//	                                  decision, over the n <= t - r updaters
//	                                  that own a log; their n commit records
//	                                  are appended unforced
//
// A bank transfer invokes east and west from bank: L = 2, A = 2, t = 3,
// r = 1 (bank holds the two semantic locks but no store), n = 2 — 18
// messages and 3 forces. The lazy commit records cost no force of their
// own: the next transfer's prepare force at each branch makes them durable
// and its vote says so, which is when the coordinator ends a transfer —
// exactly one is unended after every commit, with no re-delivery round.
func TestDistCountedCommitCost(t *testing.T) {
	const wantMsgs, wantForces = 2*(2+2+2*3) - 2*1, 2 + 1
	net := &countingNet{Network: comm.NewChanNetwork()}
	cfg := distConfig(t, Hybrid, "chan", true)
	cfg.Net = net
	cfg.GroupCommit = true
	cfg.SyncEvery = 64
	cfg.RPCTimeout = 30 * time.Second
	cfg.AbandonAfter, cfg.QueryAfter, cfg.SweepEvery = time.Minute, time.Minute, time.Minute
	cl := startCluster(t, cfg)

	msgs, forces := net.sent.Load(), cl.Metrics().GroupForces
	for i, prog := range transferPrograms(8) {
		if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), prog); err != nil {
			t.Fatalf("T%d: %v", i+1, err)
		}
		m := cl.Metrics()
		if m.Retries != 0 || m.Redelivers != 0 {
			t.Fatalf("T%d: a serial client retried or re-delivered: %s", i+1, m)
		}
		if d := net.sent.Load() - msgs; d != wantMsgs {
			t.Errorf("T%d: %d messages, want %d", i+1, d, wantMsgs)
		}
		if d := m.GroupForces - forces; d != wantForces {
			t.Errorf("T%d: %d forces, want %d", i+1, d, wantForces)
		}
		if n := cl.coordinator().unended(); n != 1 {
			t.Errorf("T%d: %d transfers unended, want 1 (this one)", i+1, n)
		}
		msgs, forces = net.sent.Load(), m.GroupForces
	}
	if err := cl.Settle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	distConserved(t, cl)
	distEnded(t, cfg.WALRoot)
}
