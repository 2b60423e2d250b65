package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"time"

	"compositetx/internal/comm"
	"compositetx/internal/data"
	"compositetx/internal/sched"
)

const (
	distClients  = 2
	distAccounts = 8 // account pairs per client
	distPool     = 1024
	distSeedV    = 1 << 20
)

// dist2PC: op = one committed distributed transfer through presumed-abort
// 2PC over the tcp transport, per-node WALs, group commit with the default
// 1 ms window. Two clients on disjoint account pairs: latency is wait-bound
// (force points and round trips), so this is the one workload where comm
// and wal.Log.Force are on the blocking path.
type dist2PC struct {
	seed    int64
	scratch string

	root  string // durability root: coord/ and part-*/ logs
	cl    *sched.Cluster
	pools [distClients][]program
	model bankModel
	next  [distClients]int

	corruptModel bool // tests: expect the wrong stores on purpose
}

func newDist2PC(seed int64, _ sizes, scratch string) workload {
	return &dist2PC{seed: seed, scratch: scratch}
}

// distConfig carries E16's timer settings: the RPC deadline covers a
// serialized fsync wave and the liveness timers sit far above commit
// latency, so sweeper and re-delivery add no traffic to the measurement.
func distConfig(root string) sched.DistConfig {
	return sched.DistConfig{
		Protocol:    sched.Hybrid,
		Topo:        sched.BankTopology(),
		Transport:   "tcp",
		WALRoot:     root,
		SyncEvery:   64,
		GroupCommit: true,
		RPCTimeout:  250 * time.Millisecond, RPCRetries: 3,
		LockWait:     500 * time.Millisecond,
		MaxRetries:   30,
		AbandonAfter: 10 * time.Second, QueryAfter: 2 * time.Second,
		SweepEvery: time.Second,
	}
}

func distItem(client, k int) string { return fmt.Sprintf("c%d-a%d", client, k) }

func (w *dist2PC) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.model = bankModel{"east": {}, "west": {}}
	for c := 0; c < distClients; c++ {
		for k := 0; k < distAccounts; k++ {
			w.model["east"][distItem(c, k)] = distSeedV
			w.model["west"][distItem(c, k)] = 0
		}
		w.pools[c] = make([]program, distPool)
		for i := range w.pools[c] {
			item, amt := distItem(c, rng.Intn(distAccounts)), int64(1+rng.Intn(7))
			w.pools[c][i] = newProgram([]leg{
				{"east", data.Op{Mode: data.ModeIncr, Item: item, Arg: -amt}},
				{"west", data.Op{Mode: data.ModeIncr, Item: item, Arg: amt}},
			})
		}
	}
	root, err := os.MkdirTemp(w.scratch, "dist-wal-*")
	if err != nil {
		return err
	}
	w.root = root
	cfg := distConfig(root)
	cfg.Seeds = w.model.clone()
	w.cl, err = sched.StartCluster(cfg)
	if w.corruptModel {
		w.model["east"][distItem(0, 0)]++
	}
	return err
}

func (w *dist2PC) prepare(ops int) (opFunc, error) {
	per := ops / distClients
	var base [distClients]int
	var names [distClients][]string
	for c := 0; c < distClients; c++ {
		base[c] = w.next[c]
		w.next[c] += per
		names[c] = make([]string, per)
		for i := range names[c] {
			names[c][i] = "C" + strconv.Itoa(c) + "-" + strconv.Itoa(base[c]+i)
			w.model.apply(&w.pools[c][(base[c]+i)%distPool])
		}
	}
	return func(c, i int) error {
		if _, err := w.cl.Submit(names[c][i], w.pools[c][(base[c]+i)%distPool].inv); err != nil {
			return fmt.Errorf("%s: %w", names[c][i], err)
		}
		return nil
	}, nil
}

func (w *dist2PC) counters() map[string]float64 {
	m := w.cl.Metrics()
	return map[string]float64{
		"commits":  float64(m.Commits),
		"retries":  float64(m.Retries),
		"forces":   float64(m.GroupForces),
		"windows":  float64(m.GroupWindows),
		"messages": float64(m.Coal.Messages),
		"flushes":  float64(m.Coal.Flushes),
	}
}

// verify: the in-doubt set drains, every submitted transfer committed,
// the participant stores are exactly the model (value conserved), and the
// committed history passes the Comp-C audit.
func (w *dist2PC) verify() []error {
	return verifyCluster(w.cl, w.model, w.next[0]+w.next[1])
}

func verifyCluster(cl *sched.Cluster, model bankModel, submitted int) []error {
	var errs []error
	if err := cl.Settle(10 * time.Second); err != nil {
		errs = append(errs, err)
	}
	m := cl.Metrics()
	if m.InDoubt != 0 {
		errs = append(errs, fmt.Errorf("%d transactions in doubt after Settle", m.InDoubt))
	}
	if int(m.Commits) != submitted {
		errs = append(errs, fmt.Errorf("%d commits, %d transfers submitted", m.Commits, submitted))
	}
	var sum int64
	for _, comp := range []string{"east", "west"} {
		snap := cl.StoreSnapshot(comp)
		if err := model.diff(comp, snap); err != nil {
			errs = append(errs, err)
		}
		for _, v := range snap {
			sum += v
		}
	}
	if want := int64(distClients * distAccounts * distSeedV); sum != want {
		errs = append(errs, fmt.Errorf("account total %d, expected %d: value not conserved", sum, want))
	}
	v, err := cl.Audit()
	switch {
	case err != nil:
		errs = append(errs, fmt.Errorf("audit: %w", err))
	case !v.Correct:
		errs = append(errs, fmt.Errorf("committed history is not Comp-C: %s", v.Reason))
	}
	return errs
}

func (w *dist2PC) close() error {
	var err error
	if w.cl != nil {
		err = w.cl.Close()
	}
	if w.root != "" {
		err = errors.Join(err, os.RemoveAll(w.root))
	}
	return err
}

func (w *dist2PC) probe(p *prober) error {
	commits := max(p.delta["commits"], 1)
	p.set("sched.forces_per_commit", p.delta["forces"]/commits)
	p.set("sched.dist_retries_per_commit", p.delta["retries"]/commits)
	p.set("wal.windows_per_commit", p.delta["windows"]/commits)
	p.set("wal.max_batch", float64(w.cl.Metrics().GroupMaxBatch))
	p.set("comm.msgs_per_commit", p.delta["messages"]/commits)
	p.set("comm.flushes_per_msg", p.delta["flushes"]/max(p.delta["messages"], 1))

	probeCodec(p)
	for _, tr := range []struct {
		name string
		net  comm.Network
	}{{"chan", comm.NewChanNetwork()}, {"tcp", comm.NewTCPNetwork()}} {
		rtt, err := probeRTT(p, tr.name, tr.net)
		if err != nil {
			return fmt.Errorf("%s round trip: %w", tr.name, err)
		}
		p.set("comm.rtt_us."+tr.name, rtt)
	}
	// Every 2PC force point forces a single record.
	if err := probeWAL(p, w.scratch, 1); err != nil {
		return err
	}
	return w.probeRecover(p)
}

// probeCodec encodes and decodes one message of each kind the commit path
// sends: apply, prepare, decide and their replies.
func probeCodec(p *prober) {
	msg := func(m comm.Message) comm.Message {
		m.From, m.ID, m.Txn, m.Attempt, m.TS, m.Clock = "coord", 123456, "C1-123456", 1, 1<<33, 987654
		return m
	}
	msgs := []comm.Message{
		msg(comm.Message{Kind: comm.KindApply, Node: "C1-123456/1/1", Item: "c1-a3", Mode: "incr", Arg: -5, Wait: int64(500 * time.Millisecond)}),
		msg(comm.Message{Kind: comm.KindApplyReply, Value: 1048571, Seq: 4242424, OK: true}),
		msg(comm.Message{Kind: comm.KindPrepare}),
		msg(comm.Message{Kind: comm.KindVote, OK: true}),
		msg(comm.Message{Kind: comm.KindDecide, Commit: true}),
		msg(comm.Message{Kind: comm.KindAck, OK: true}),
	}
	rounds := p.n(50000)
	bodies := make([][]byte, len(msgs))
	enc := p.call("comm.Encode", func() {
		for r := 0; r < rounds; r++ {
			for i, m := range msgs {
				bodies[i] = comm.Encode(bodies[i][:0], m)
			}
		}
	})
	dec := p.call("comm.Decode", func() {
		for r := 0; r < rounds; r++ {
			for _, b := range bodies {
				if _, err := comm.Decode(b); err != nil {
					panic(err) // the bytes come from Encode one line up
				}
			}
		}
	})
	p.set("comm.encode_ns_per_msg", float64(enc.Nanoseconds())/float64(rounds*len(msgs)))
	p.set("comm.decode_ns_per_msg", float64(dec.Nanoseconds())/float64(rounds*len(msgs)))
}

// probeRTT is the median echo round trip of Mux.Call between two
// endpoints, one caller.
func probeRTT(p *prober, name string, net comm.Network) (us float64, err error) {
	defer func() { err = errors.Join(err, net.Close()) }()
	epA, err := net.Endpoint("a")
	if err != nil {
		return 0, err
	}
	epB, err := net.Endpoint("b")
	if err != nil {
		return 0, err
	}
	var server *comm.Mux
	server = comm.NewMux(epB, func(m comm.Message) {
		_ = server.Reply(m, comm.Message{Kind: comm.KindAck, OK: true}) // a lost echo fails the caller's Call
	})
	server.Start()
	defer server.Close()
	client := comm.NewMux(epA, nil).Start()
	defer client.Close()

	lat := make([]int64, p.n(2000))
	p.call("comm.Mux.Call/"+name, func() {
		for i := range lat {
			t0 := time.Now()
			if _, err = client.Call("b", comm.Message{Kind: comm.KindDecide, Txn: "C1-123456", Commit: true}, time.Second, 0); err != nil {
				return
			}
			lat[i] = int64(time.Since(t0))
		}
	})
	if err != nil {
		return 0, err
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return float64(percentile(lat, 0.5)) / 1e3, nil
}

// probeRecover stops the cluster and rebuilds it from the run's own
// durability root: RecoverCluster, Settle, and a first committed transfer.
func (w *dist2PC) probeRecover(p *prober) error {
	if err := w.cl.Close(); err != nil {
		return fmt.Errorf("closing the cluster: %w", err)
	}
	w.cl = nil
	var op opFunc
	var err error
	d := p.call("sched.RecoverCluster", func() {
		if w.cl, err = sched.RecoverCluster(distConfig(w.root)); err != nil {
			return
		}
		if err = w.cl.Settle(10 * time.Second); err != nil {
			return
		}
		if op, err = w.prepare(distClients); err != nil {
			return
		}
		err = op(0, 0)
	})
	if err != nil {
		return fmt.Errorf("cluster recovery: %w", err)
	}
	p.set("sched.dist_recover_ms", float64(d.Microseconds())/1e3)
	if err := op(1, 0); err != nil {
		return err
	}
	for comp := range w.model {
		if err := w.model.diff(comp, w.cl.StoreSnapshot(comp)); err != nil {
			return fmt.Errorf("recovered cluster: %w", err)
		}
	}
	return nil
}
