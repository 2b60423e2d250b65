package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"compositetx/internal/comm"
	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/wal"
)

// DistConfig configures a distributed cluster: one coordinator plus one
// participant per component of the topology, wired over a message
// transport.
type DistConfig struct {
	Protocol Protocol
	Topo     *Topology

	// Net supplies the transport. Nil picks by Transport: "tcp" builds a
	// loopback socket network, anything else an in-process channel
	// network.
	Net       comm.Network
	Transport string

	// NetFaults, when enabled, wraps the transport in the seeded fault
	// injector (drop, duplicate, delay, reorder, one-way partition).
	NetFaults comm.NetFaultPlan

	// WALRoot is the durability root: the coordinator logs under
	// <WALRoot>/coord, each store-bearing participant under
	// <WALRoot>/part-<name>. Empty runs the cluster volatile.
	WALRoot   string
	SyncEvery int

	// GroupCommit routes every 2PC force point (participant prepare,
	// coordinator decision, participant abort) through the WAL's coalescing
	// Force API: concurrent transactions share flush-daemon fsyncs instead
	// of paying one each, the daemon holding each window open
	// DefaultGroupWindow so they pile into one. Correctness-neutral — each
	// force still completes before its dependent protocol message is sent.
	GroupCommit bool

	// RPC policy: per-attempt deadline and capped-backoff retry budget
	// for every message the coordinator or a participant sends.
	RPCTimeout time.Duration // default 25ms
	RPCRetries int           // default 4

	// LockWait bounds a participant-side lock wait per request (default
	// 150ms); the RPC layer keeps re-sending (same correlation ID, so the
	// wait is never duplicated) while the participant blocks.
	LockWait time.Duration

	// MaxRetries bounds a root's abort-retry rounds (default 40).
	MaxRetries int
	// MaxActive throttles root admission with ErrOverload (0 = off).
	MaxActive int

	// Participant liveness: an unprepared attempt idle past AbandonAfter
	// is aborted unilaterally (default 400ms); a prepared one idle past
	// QueryAfter runs the termination protocol (default 250ms); the
	// sweeper wakes every SweepEvery (default 50ms).
	AbandonAfter time.Duration
	QueryAfter   time.Duration
	SweepEvery   time.Duration

	// Seeds preloads participant stores (component -> item -> value),
	// journaled as TypeSeed when a WAL is attached.
	Seeds map[string]map[string]int64
}

func (cfg DistConfig) normalized() DistConfig {
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 25 * time.Millisecond
	}
	if cfg.RPCRetries <= 0 {
		cfg.RPCRetries = 4
	}
	if cfg.LockWait <= 0 {
		cfg.LockWait = 150 * time.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 40
	}
	if cfg.AbandonAfter <= 0 {
		cfg.AbandonAfter = 400 * time.Millisecond
	}
	if cfg.QueryAfter <= 0 {
		cfg.QueryAfter = 250 * time.Millisecond
	}
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = 50 * time.Millisecond
	}
	if cfg.SyncEvery == 0 {
		cfg.SyncEvery = 1
	}
	return cfg
}

// DefaultGroupWindow is the flush-daemon window of a GroupCommit
// cluster. One millisecond is small against every protocol timeout in
// the config but long enough that a window collects the force points of
// every transaction concurrently at a force point, so fsync cost per
// commit drops to O(1/batch). A committed transaction crosses two windows
// in sequence (prepare, decision), so the hold is also most of its
// latency at low load, and the part of it the disk cannot move.
const DefaultGroupWindow = time.Millisecond

// walOptions builds the log options every cluster log opens with.
func (cl *Cluster) walOptions() wal.Options {
	opts := wal.Options{SyncEvery: cl.cfg.SyncEvery}
	if cl.cfg.GroupCommit {
		opts.GroupWindow = DefaultGroupWindow
	}
	return opts
}

// partMeta is the TypeMeta payload of a participant log.
type partMeta struct {
	Version int    `json:"version"`
	Part    string `json:"part"`
}

func coordDir(root string) string      { return filepath.Join(root, "coord") }
func partDir(root, name string) string { return filepath.Join(root, "part-"+name) }

// DistMetrics is a cluster-wide counter snapshot.
type DistMetrics struct {
	Commits    int64 // transactions durably decided commit
	Retries    int64 // abort-retry rounds across all roots
	Redelivers int64 // decision re-delivery rounds
	Unilateral int64 // participant abandon-aborts of idle unprepared attempts
	Queries    int64 // termination-protocol queries sent by participants
	Resolved   int64 // in-doubt transactions resolved by query
	InDoubt    int64 // currently prepared, undecided (should settle to 0)

	// Group-commit coalescing, summed over every log in the cluster
	// (coordinator + participants): force calls, the flush windows that
	// served them (one fsync each), and the largest single window.
	GroupForces   uint64
	GroupWindows  uint64
	GroupMaxBatch uint64

	Net  comm.NetStats
	Coal comm.CoalesceStats // TCP transport message coalescing
}

func (m DistMetrics) String() string {
	s := fmt.Sprintf("commits=%d retries=%d redelivers=%d unilateral=%d queries=%d resolved=%d in-doubt=%d net[sent=%d drop=%d dup=%d delay=%d reorder=%d part=%d]",
		m.Commits, m.Retries, m.Redelivers, m.Unilateral, m.Queries, m.Resolved, m.InDoubt,
		m.Net.Sent, m.Net.Dropped, m.Net.Duplicated, m.Net.Delayed, m.Net.Reordered, m.Net.Partitions)
	if m.GroupForces > 0 {
		s += fmt.Sprintf(" group[forces=%d windows=%d maxbatch=%d]", m.GroupForces, m.GroupWindows, m.GroupMaxBatch)
	}
	if m.Coal.Messages > 0 {
		s += fmt.Sprintf(" coal[msgs=%d flushes=%d maxbatch=%d]", m.Coal.Messages, m.Coal.Flushes, m.Coal.MaxBatch)
	}
	return s
}

// Cluster is a running distributed composite: the coordinator, one
// participant per component, and the shared transport. Crash and recover
// either side through its methods; Settle waits for the in-doubt set to
// drain; Audit re-verifies the committed history.
type Cluster struct {
	cfg    DistConfig
	topo   *Topology
	base   comm.Network
	faults *comm.FaultNetwork
	net    comm.Network
	crash  *distCrashState

	mu    sync.Mutex
	coord *Coordinator
	parts map[string]*Participant
}

// newCluster builds the shell every cluster starts from: the configured
// transport, wrapped in the fault injector when the plan asks for one.
// cfg must be normalized and carry its topology.
func newCluster(cfg DistConfig) *Cluster {
	cl := &Cluster{cfg: cfg, topo: cfg.Topo, crash: &distCrashState{}, parts: map[string]*Participant{}}
	cl.base = cfg.Net
	if cl.base == nil {
		if cfg.Transport == "tcp" {
			cl.base = comm.NewTCPNetwork()
		} else {
			cl.base = comm.NewChanNetwork()
		}
	}
	cl.net = cl.base
	if cfg.NetFaults.Enabled() {
		cl.faults = comm.NewFaultNetwork(cl.base, cfg.NetFaults)
		cl.net = cl.faults
	}
	return cl
}

// StartCluster builds and starts a fresh cluster. With a durability root,
// each store-bearing participant starts a log of its metadata plus one
// seed record per preloaded item, and the coordinator a decision log of
// its metadata (protocol + topology), each fsynced before the node
// connects.
func StartCluster(cfg DistConfig) (*Cluster, error) {
	cfg = cfg.normalized()
	if cfg.Topo == nil || len(cfg.Topo.Specs) == 0 {
		return nil, errors.New("sched: distributed cluster needs a topology")
	}
	for _, spec := range cfg.Topo.Specs {
		if spec.Name == coordName {
			return nil, fmt.Errorf("sched: component name %q is reserved for the coordinator", coordName)
		}
	}
	cl := newCluster(cfg)

	for _, spec := range cfg.Topo.Specs {
		p := newParticipant(spec, cfg, cl.crash)
		if p.c.store != nil {
			for item, v := range cfg.Seeds[spec.Name] {
				p.c.store.Set(item, v)
			}
			if cfg.WALRoot != "" {
				meta, err := json.Marshal(partMeta{Version: 1, Part: p.c.name})
				if err == nil {
					seeds := itemRecords(nil, wal.TypeSeed, p.c.name, p.c.store.Snapshot())
					p.wal, err = attachFresh(partDir(cfg.WALRoot, p.c.name), cl.walOptions(), meta, seeds)
				}
				if err != nil {
					cl.Close()
					return nil, fmt.Errorf("sched: participant %s: %w", p.c.name, err)
				}
			}
		}
		if err := cl.join(p); err != nil {
			cl.Close()
			return nil, err
		}
	}

	coord := newCoordinator(cfg, cfg.Topo, cl.crash)
	if cfg.WALRoot != "" {
		meta, err := json.Marshal(walMeta{
			Version: 1, Protocol: cfg.Protocol.String(),
			Topology: topologyToDoc(cfg.Topo), Dist: true,
		})
		if err == nil {
			coord.wal, err = attachFresh(coordDir(cfg.WALRoot), cl.walOptions(), meta, nil)
		}
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("sched: coordinator: %w", err)
		}
	}
	if err := cl.joinCoordinator(coord); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// join runs a fully built (or rebuilt) participant on the network and
// registers it; on failure its log is closed.
func (cl *Cluster) join(p *Participant) error {
	ep, err := cl.net.Endpoint(p.c.name)
	if err != nil {
		p.close()
		return err
	}
	p.run(ep, p.handle, p.sweeper)
	cl.mu.Lock()
	cl.parts[p.c.name] = p
	cl.mu.Unlock()
	return nil
}

// joinCoordinator is join for the coordinator.
func (cl *Cluster) joinCoordinator(c *Coordinator) error {
	ep, err := cl.net.Endpoint(coordName)
	if err != nil {
		c.close()
		return err
	}
	c.run(ep, c.handle, func() { c.redeliverLoop(cl.cfg.QueryAfter) })
	cl.mu.Lock()
	cl.coord = c
	cl.mu.Unlock()
	return nil
}

// Submit runs one root transaction through the coordinator.
func (cl *Cluster) Submit(name string, root Invocation) (*TxResult, error) {
	return cl.coordinator().Submit(name, root)
}

func (cl *Cluster) coordinator() *Coordinator {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.coord
}

func (cl *Cluster) participant(name string) *Participant {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.parts[name]
}

func (cl *Cluster) participants() []*Participant {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	parts := make([]*Participant, 0, len(cl.parts))
	for _, p := range cl.parts {
		parts = append(parts, p)
	}
	return parts
}

// SetCrash arms one crash-site injection (fires at most once).
func (cl *Cluster) SetCrash(d DistCrash) { cl.crash.arm(d) }

// CoordinatorCrashed reports whether the coordinator is currently down.
func (cl *Cluster) CoordinatorCrashed() bool {
	c := cl.coordinator()
	return c == nil || c.crashed.Load()
}

// CrashedParticipants lists the participants currently down, sorted.
// Callers watching for participant crash faults poll this and call
// RecoverParticipant — a dead participant only surfaces to clients as
// RPC timeouts, never as ErrCrashed.
func (cl *Cluster) CrashedParticipants() []string {
	var out []string
	for _, p := range cl.participants() {
		if p.crashed.Load() {
			out = append(out, p.c.name)
		}
	}
	slices.Sort(out)
	return out
}

// CrashCoordinator simulates a coordinator crash now.
func (cl *Cluster) CrashCoordinator() { cl.coordinator().crashNow() }

// CrashParticipant simulates a participant crash now.
func (cl *Cluster) CrashParticipant(name string) error {
	p := cl.participant(name)
	if p == nil {
		return fmt.Errorf("sched: unknown participant %q", name)
	}
	p.crashNow()
	return nil
}

// RecoverParticipant rebuilds a crashed participant from its log:
// baseline seeds, redo in log order of every journaled apply and
// compensation that took effect (a cancelled apply and a quarantined
// compensation are skipped), undo (with fresh journaled compensations) of
// loser transactions, quarantines re-reported, and re-registration of
// in-doubt transactions — prepared but undecided — whose locks are
// re-acquired at their original wait-die timestamps and whose outcomes
// the termination protocol resolves.
func (cl *Cluster) RecoverParticipant(name string) error {
	i := slices.IndexFunc(cl.topo.Specs, func(s ComponentSpec) bool { return s.Name == name })
	if i < 0 {
		return fmt.Errorf("sched: unknown participant %q", name)
	}
	old := cl.participant(name)
	if old != nil && !old.crashed.Load() {
		return fmt.Errorf("sched: participant %q has not crashed", name)
	}
	p := newParticipant(cl.topo.Specs[i], cl.cfg, cl.crash)
	if old != nil {
		p.inc = old.inc + 1
	}
	if p.c.store == nil || cl.cfg.WALRoot == "" {
		return cl.join(p)
	}
	scan, err := wal.ScanDir(partDir(cl.cfg.WALRoot, p.c.name))
	if err != nil {
		return err
	}
	// Undo: un-compensated applies of transactions with no durable
	// outcome and no prepare — they can never commit (a commit decision
	// requires this participant's durable prepare), so presumed abort
	// applies.
	sl, log, err := recoverLog(scan, false, cl.walOptions(), map[string]*component{p.c.name: p.c}, &p.leaks)
	if err == nil {
		err = log.sync()
	}
	if err != nil {
		log.close()
		return fmt.Errorf("sched: participant %s: %w", p.c.name, err)
	}
	p.wal = log
	for txn, o := range sl.txns {
		switch o.fate {
		case fateWinner:
			p.resolved[txn] = true
		case fateInDoubt:
			p.txns[txn] = &ptxn{attempt: o.attempt, ts: o.ts, steps: map[string]*pdedup{}, prepared: true, lastTouch: time.Now()}
		}
		if o.aborted > 0 {
			p.aborted[txn] = o.aborted
		}
	}
	// In-doubt transactions keep their effects, get their undo lists back
	// (in log order), so a later abort decision can still compensate
	// them, and their locks at the original timestamps; the coordinator
	// owes their outcome (the sweeper's termination protocol collects it).
	for k := len(sl.inDoubt) - 1; k >= 0; k-- {
		u := sl.undoEntry(int(sl.inDoubt[k]), p.c)
		txn := sl.recs[sl.inDoubt[k]].Txn
		tx := p.txns[txn]
		tx.undo = append(tx.undo, u)
		if table, mode := p.c.lockSpace(p.cfg.Protocol, u.op); table != nil {
			deadline := time.Now().Add(cl.cfg.LockWait)
			if err := p.c.lm.acquireUntil(table, u.op.Item, mode, txn, tx.ts, WaitDie, nil, deadline); err != nil {
				log.close()
				return fmt.Errorf("sched: participant %s re-acquiring %s for in-doubt %s: %w", p.c.name, u.op.Item, txn, err)
			}
			tx.locks = append(tx.locks, u.op.Item)
		}
	}
	return cl.join(p)
}

// readCoordLog reads a coordinator's decision log once and decodes the
// configuration it was written under.
func readCoordLog(root string) (*wal.Scan, Protocol, *Topology, error) {
	dir := coordDir(root)
	scan, err := wal.ScanDir(dir)
	if err != nil {
		return nil, 0, nil, err
	}
	meta, proto, topo, err := readLogMeta(dir, scan.Records, scan.Info)
	if err == nil && !meta.Dist {
		err = fmt.Errorf("sched: %q is not a distributed log root (use Recover)", root)
	}
	return scan, proto, topo, err
}

// RecoverCoordinator rebuilds a crashed coordinator from its decision
// log: the committed projection (nodes, events) for re-verification, the
// commit set for the termination protocol, and re-delivery of every
// decision without a TypeEnd. Aborts are presumed — anything not durably
// committed answers "abort" to queries. The timestamp source jumps an
// epoch so fresh transactions can never collide with in-doubt locks held
// under pre-crash timestamps.
func (cl *Cluster) RecoverCoordinator() error {
	old := cl.coordinator()
	if old != nil && !old.crashed.Load() {
		return errors.New("sched: coordinator has not crashed")
	}
	if cl.cfg.WALRoot == "" {
		return errors.New("sched: volatile coordinator cannot recover")
	}
	scan, _, _, err := readCoordLog(cl.cfg.WALRoot)
	if err != nil {
		return err
	}
	return cl.recoverCoordinator(scan)
}

// recoverCoordinator is RecoverCoordinator over a log already read: every
// commit decision not ended comes back pending at each updater it names,
// the committed projection is filed, and the clocks resume past the log.
func (cl *Cluster) recoverCoordinator(scan *wal.Scan) error {
	c := newCoordinator(cl.cfg, cl.topo, cl.crash)
	sl, log, err := recoverLog(scan, true, cl.walOptions(), nil, new(leaks)) // no store records, no leaks
	if err != nil {
		return fmt.Errorf("sched: coordinator log: %w", err)
	}
	c.wal = log
	for _, d := range sl.decided {
		txn := sl.recs[d].Txn
		o, parts := sl.txns[txn], sl.updaters[txn]
		ct := &coTxn{attempt: o.attempt, parts: parts, ended: o.ended || len(parts) == 0}
		if !ct.ended {
			ct.pending = slices.Clone(parts)
		}
		c.committed[txn] = ct
	}
	sl.fileCommitted(c.ix)
	c.clock.Store(sl.maxSeq)
	c.tsc.Store(sl.maxTS + 1<<32)
	return cl.joinCoordinator(c)
}

// RecoverCluster rebuilds a whole cluster from its durability root in a
// fresh process — the cross-process analogue of Recover for distributed
// runs. Protocol and topology come from the coordinator log's metadata;
// every store-bearing participant is rebuilt from its own log
// (in-doubt transactions re-registered with their locks); the recovered
// coordinator then re-delivers forced decisions and answers termination
// queries, so a Settle call drains the in-doubt set. cfg needs WALRoot
// plus any transport/RPC policy overrides; Protocol, Topo and Seeds are
// ignored (the logs are authoritative).
func RecoverCluster(cfg DistConfig) (*Cluster, error) {
	cfg = cfg.normalized()
	if cfg.WALRoot == "" {
		return nil, errors.New("sched: RecoverCluster needs a WAL root")
	}
	scan, proto, topo, err := readCoordLog(cfg.WALRoot)
	if err != nil {
		return nil, err
	}
	cfg.Protocol, cfg.Topo, cfg.Seeds = proto, topo, nil

	cl := newCluster(cfg)
	for _, spec := range topo.Specs {
		if err := cl.RecoverParticipant(spec.Name); err != nil {
			cl.Close()
			return nil, err
		}
	}
	if err := cl.recoverCoordinator(scan); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// Settle waits until no transaction is in doubt anywhere: every
// committed decision durably recorded at every updater, every prepared
// participant transaction resolved. Re-delivery and the termination
// protocol do the work; Settle watches, and kicks re-delivery rounds
// rather than wait out the QueryAfter tick — the last lazy commit at each
// participant stays unended until a round forces its tail.
func (cl *Cluster) Settle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		coord := cl.coordinator()
		pending := coord.unended()
		if pending > 0 {
			select {
			case coord.kick <- struct{}{}:
			default:
			}
		}
		doubt := 0
		for _, p := range cl.participants() {
			if !p.crashed.Load() {
				doubt += p.inDoubt()
			}
		}
		if pending == 0 && doubt == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sched: cluster did not settle: %d unacked decisions, %d in-doubt participant transactions", pending, doubt)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// CheckEnded verifies, from the logs under a durability root alone, the
// rule that lets a coordinator forget a transaction: a TypeEnd implies a
// commit record at every updater the commit decision names. Sharpest on
// logs at rest or just crashed (Abandon leaves exactly the durable
// prefix); of a live log it sees what is written, fsynced or not.
func CheckEnded(root string) error {
	analyze := func(dir string, coord bool) (*storeLog, error) {
		scan, err := wal.ScanDir(dir)
		if err != nil {
			return nil, err
		}
		return scanStoreLog(scan.Records, scan.Info, coord)
	}
	coord, err := analyze(coordDir(root), true)
	if err != nil {
		return err
	}
	parts := map[string]*storeLog{}
	for _, d := range coord.decided {
		txn := coord.recs[d].Txn
		if !coord.txns[txn].ended {
			continue
		}
		for _, part := range coord.updaters[txn] {
			if parts[part] == nil {
				if parts[part], err = analyze(partDir(root, part), false); err != nil {
					return err
				}
			}
			if parts[part].fate(txn) != fateWinner {
				return fmt.Errorf("sched: %s is ended in the decision log but %s holds no commit record for it", txn, part)
			}
		}
	}
	return nil
}

// RecordedSystem assembles the committed execution for the checker.
func (cl *Cluster) RecordedSystem() *model.System { return cl.coordinator().RecordedSystem() }

// Audit re-verifies the committed history against the Comp-C criterion.
func (cl *Cluster) Audit() (*front.Verdict, error) {
	sys := cl.RecordedSystem()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return front.Check(sys, front.Options{})
}

// StoreSnapshot returns a copy of one participant's store state.
func (cl *Cluster) StoreSnapshot(name string) map[string]int64 {
	p := cl.participant(name)
	if p == nil || p.c.store == nil {
		return nil
	}
	return p.c.store.Snapshot()
}

// Metrics snapshots cluster-wide counters.
func (cl *Cluster) Metrics() DistMetrics {
	m := DistMetrics{}
	addGroup := func(j journal) {
		if !j.attached() {
			return
		}
		gs := j.log.GroupStats()
		m.GroupForces += gs.Forces
		m.GroupWindows += gs.Windows
		if gs.MaxBatch > m.GroupMaxBatch {
			m.GroupMaxBatch = gs.MaxBatch
		}
	}
	if c := cl.coordinator(); c != nil {
		m.Commits = c.commits.Load()
		m.Retries = c.retries.Load()
		m.Redelivers = c.redelivers.Load()
		addGroup(c.wal)
	}
	for _, p := range cl.participants() {
		m.Unilateral += p.unilats.Load()
		m.Queries += p.queries.Load()
		m.Resolved += p.resolves.Load()
		if !p.crashed.Load() {
			m.InDoubt += int64(p.inDoubt())
		}
		addGroup(p.wal)
	}
	if cl.faults != nil {
		m.Net = cl.faults.Stats()
	}
	if tcp, ok := cl.base.(*comm.TCPNetwork); ok {
		m.Coal = tcp.CoalesceStats()
	}
	return m
}

// NetStats returns the fault injector's traffic counters (zero without
// injection), with the TCP transport's frames-vs-messages coalescing
// counters merged in when the cluster runs over TCP.
func (cl *Cluster) NetStats() comm.NetStats {
	var st comm.NetStats
	if cl.faults != nil {
		st = cl.faults.Stats()
	}
	if tcp, ok := cl.base.(*comm.TCPNetwork); ok {
		st.Coalesce = tcp.CoalesceStats()
	}
	return st
}

// Close shuts the whole cluster down cleanly. With every node up it first
// runs one re-delivery round, so a cluster closed at rest has ended every
// transaction and recovery has nothing to re-deliver.
func (cl *Cluster) Close() error {
	coord, parts := cl.coordinator(), cl.participants()
	if coord != nil {
		if !coord.crashed.Load() && len(cl.CrashedParticipants()) == 0 {
			coord.redeliver()
		}
		coord.close()
	}
	for _, p := range parts {
		p.close()
	}
	if cl.net != nil {
		return cl.net.Close()
	}
	return nil
}
