package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compositetx/internal/comm"
	"compositetx/internal/data"
	"compositetx/internal/model"
	"compositetx/internal/wal"
)

// coordName is the coordinator's reserved endpoint name.
const coordName = "coord"

// dcomp is the coordinator's view of one component: just enough topology
// to route operations and assemble the recorded system (the component's
// actual store and locks live at its participant).
type dcomp struct {
	name     string
	hasStore bool
	modes    *data.ModeTable
}

// coTxn tracks one durably committed transaction until every updater in
// pending holds a durable commit record for it (then TypeEnd retires it
// from re-delivery). attempt is the attempt that committed — re-delivered
// Decides and termination-protocol answers are only valid for that attempt.
type coTxn struct {
	attempt uint32
	parts   []string
	pending []string
	ended   bool
}

// lazyAck is one commit a participant acked ahead of its log, at lsn.
type lazyAck struct {
	txn string
	ct  *coTxn
	lsn uint64
}

// partDurable is what one participant has reported about its log: its
// incarnation, the highest durable watermark seen under it, and the lazy
// acks still above the watermark (one list per participant, reused).
type partDurable struct {
	inc, mark uint64
	lazy      []lazyAck
}

// Coordinator is the root scheduler of the distributed runtime. It walks
// transaction programs exactly like the single-process Runtime — but
// every lock grant and store operation is an RPC to the owning
// participant — and commits through presumed-abort 2PC. It is also the
// event-sequence authority: sequence numbers are stamped centrally when
// a grant's reply arrives, which is order-consistent because every
// participant holds its locks to the decision (two conflicting grants
// are always separated by a full decision round-trip through here).
type Coordinator struct {
	protocol Protocol
	topo     *Topology
	comps    map[string]*dcomp
	mux      *comm.Mux
	wal      journal
	clock    lamport       // event-sequence authority
	tsc      atomic.Uint64 // wait-die timestamp source
	crashed  atomic.Bool
	crash    *distCrashState

	rpcTimeout time.Duration
	rpcRetries int
	maxRetries int
	maxActive  int
	lockWait   time.Duration

	mu        sync.Mutex
	rec       *recorder
	inflight  map[string]bool         // txns between first RPC and decision (Query -> retry)
	committed map[string]*coTxn       // durable commit decisions
	durable   map[string]*partDurable // per participant: watermark and lazy acks
	active    int

	commits    atomic.Int64
	abortRetry atomic.Int64
	redelivers atomic.Int64

	stop chan struct{}
	kick chan struct{} // buffered(1): run a re-delivery round now
	bg   sync.WaitGroup
}

// dattempt is one attempt of one root transaction at the coordinator.
type dattempt struct {
	txn     string
	root    model.NodeID
	attempt uint32
	ts      uint64
	stage   *stagedRecord
	values  []int64
	touched map[string]bool
	rng     *rand.Rand // backoff jitter, built lazily on first retry
	rngSeed int64
}

func (a *dattempt) jitter(n int) int {
	if a.rng == nil {
		a.rng = rand.New(rand.NewSource(a.rngSeed))
	}
	return a.rng.Intn(n)
}

func newCoordinator(cfg DistConfig, topo *Topology, crash *distCrashState) *Coordinator {
	c := &Coordinator{
		protocol: cfg.Protocol,
		topo:     topo,
		comps:    map[string]*dcomp{},
		crash:    crash,

		rpcTimeout: cfg.RPCTimeout,
		rpcRetries: cfg.RPCRetries,
		maxRetries: cfg.MaxRetries,
		maxActive:  cfg.MaxActive,
		lockWait:   cfg.LockWait,

		rec:       newRecorder(),
		inflight:  map[string]bool{},
		committed: map[string]*coTxn{},
		durable:   map[string]*partDurable{},
		stop:      make(chan struct{}),
		kick:      make(chan struct{}, 1),
	}
	for _, spec := range topo.Specs {
		modes := spec.Modes
		if modes == nil {
			modes = data.SemanticTable()
		}
		c.comps[spec.Name] = &dcomp{name: spec.Name, hasStore: spec.HasStore, modes: modes}
		c.durable[spec.Name] = &partDurable{}
	}
	return c
}

// connect registers the coordinator on the network (after any recovery
// rebuild, so queries never observe partial state).
func (c *Coordinator) connect(ep comm.Endpoint) {
	c.mux = comm.NewMux(ep, c.handle)
	c.mux.Start()
}

// start launches the decision re-delivery loop.
func (c *Coordinator) start(every time.Duration) {
	c.bg.Add(1)
	go c.redeliverLoop(every)
}

// crashNow simulates a coordinator crash: log abandoned, endpoint closed
// (participant queries go unanswered until recovery re-registers it).
func (c *Coordinator) crashNow() {
	if !c.crashed.CompareAndSwap(false, true) {
		return
	}
	c.wal.abandon(nil)
	close(c.stop)
	c.mux.Close()
}

func (c *Coordinator) close() {
	if c.crashed.CompareAndSwap(false, true) {
		close(c.stop)
		c.mux.Close()
		c.wal.close()
	}
	c.bg.Wait()
}

// handle answers the termination protocol: a prepared participant asking
// for one attempt's outcome gets commit (a durable decision exists for
// exactly that attempt), retry (the transaction is still executing or
// voting), or the presumed abort. A prepared attempt other than the
// committed one was superseded before the commit — it aborts.
func (c *Coordinator) handle(m comm.Message) {
	if c.crashed.Load() || m.Kind != comm.KindQuery {
		return
	}
	c.clock.merge(m.Clock)
	rep := comm.Message{Kind: comm.KindQueryReply, OK: true, Txn: m.Txn, Attempt: m.Attempt}
	c.mu.Lock()
	if ct, ok := c.committed[m.Txn]; ok {
		rep.Commit = ct.attempt == m.Attempt
	} else if c.inflight[m.Txn] {
		rep.Code = dcodeRetry
	}
	c.mu.Unlock()
	rep.Clock = c.clock.tick()
	c.mux.Reply(m, rep)
}

// call performs one RPC with the coordinator's deadline/retry policy and
// maps transport failures onto the runtime's sentinels.
func (c *Coordinator) call(to string, req comm.Message) (comm.Message, error) {
	if c.crashed.Load() {
		return comm.Message{}, ErrCrashed
	}
	req.Clock = c.clock.tick()
	rep, err := c.mux.Call(to, req, c.rpcTimeout, c.rpcRetries)
	if err != nil {
		if c.crashed.Load() || errors.Is(err, comm.ErrClosed) {
			return comm.Message{}, ErrCrashed
		}
		if errors.Is(err, comm.ErrRPCTimeout) {
			return comm.Message{}, fmt.Errorf("sched: rpc %s to %s: %w: %w", req.Kind, to, ErrTimeout, err)
		}
		return comm.Message{}, fmt.Errorf("sched: rpc %s to %s: %w", req.Kind, to, err)
	}
	c.clock.merge(rep.Clock)
	return rep, nil
}

// replyErr maps a participant's reply code back onto the sentinel errors,
// wrapped with %w so errors.Is(err, ErrDie/ErrTimeout/ErrComponentDown/
// ErrOverload) holds across the RPC boundary.
func replyErr(from string, rep comm.Message) error {
	switch rep.Code {
	case dcodeDie:
		return fmt.Errorf("sched: wait-die sacrifice at %s: %w", from, ErrDie)
	case dcodeTimeout:
		return fmt.Errorf("sched: lock wait expired at %s: %w", from, ErrTimeout)
	case dcodeCrashed:
		return fmt.Errorf("sched: participant %s is crashed: %w", from, ErrComponentDown)
	case dcodeOverload:
		return fmt.Errorf("sched: participant %s refused admission: %w", from, ErrOverload)
	case dcodeStale:
		return fmt.Errorf("sched: participant %s abandoned the attempt: %w", from, ErrTimeout)
	default:
		return fmt.Errorf("sched: participant %s: %s", from, rep.Err)
	}
}

// Submit runs the program as a distributed root transaction: the same
// retry loop as the single-process Runtime (wait-die sacrifices, lock
// timeouts, and down participants retry with the attempt's original
// timestamp), but each failed attempt is aborted at every touched
// participant before the next begins, and a successful walk commits
// through 2PC.
func (c *Coordinator) Submit(name string, root Invocation) (*TxResult, error) {
	if _, ok := c.comps[root.Component]; !ok {
		return nil, fmt.Errorf("sched: unknown component %q", root.Component)
	}
	if c.crashed.Load() {
		return nil, ErrCrashed
	}
	if err := c.admit(); err != nil {
		return nil, err
	}
	defer c.release()

	ts := c.tsc.Add(1)
	rootID := model.NodeID(name)
	retries := 0
	for {
		if c.crashed.Load() {
			return nil, ErrCrashed
		}
		a := &dattempt{
			txn:     name,
			root:    rootID,
			attempt: uint32(retries + 1),
			ts:      ts,
			stage:   newStagedRecord(),
			touched: map[string]bool{},
			rngSeed: int64(ts)*7919 + int64(retries),
		}
		a.stage.declareNode(nodeDecl{id: rootID, sched: root.Component})
		c.setInflight(name, true)
		err := c.exec(a, rootID, root)
		if err == nil {
			err = c.commit2PC(a)
			if err == nil {
				return &TxResult{Root: rootID, Retries: retries, Values: a.values}, nil
			}
		} else {
			c.setInflight(name, false)
			c.abortAttempt(a)
		}
		if errors.Is(err, ErrCrashed) {
			return nil, ErrCrashed
		}
		switch {
		case errors.Is(err, ErrDie), errors.Is(err, ErrTimeout), errors.Is(err, ErrInjected):
			// Retryable: sacrifices, expired lock waits and RPC deadlines
			// (partitions heal, crashed participants recover), abandoned
			// attempts. The transaction keeps its timestamp and ages into
			// priority under wait-die.
		default:
			return nil, err
		}
		retries++
		c.abortRetry.Add(1)
		if retries > c.maxRetries {
			return nil, fmt.Errorf("%w (last abort: %w)", ErrTooManyRetries, err)
		}
		shift := retries
		if shift > 6 {
			shift = 6
		}
		base := 50 << shift
		select {
		case <-c.stop:
			return nil, ErrCrashed
		case <-time.After(time.Duration(base/2+a.jitter(base)) * time.Microsecond):
		}
	}
}

func (c *Coordinator) admit() error {
	if c.maxActive <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active >= c.maxActive {
		return fmt.Errorf("sched: %d distributed roots in flight: %w", c.active, ErrOverload)
	}
	c.active++
	return nil
}

func (c *Coordinator) release() {
	if c.maxActive <= 0 {
		return
	}
	c.mu.Lock()
	c.active--
	c.mu.Unlock()
}

func (c *Coordinator) setInflight(txn string, v bool) {
	c.mu.Lock()
	if v {
		c.inflight[txn] = true
	} else {
		delete(c.inflight, txn)
	}
	c.mu.Unlock()
}

// exec walks one (sub)transaction's steps, issuing Apply RPCs for leaf
// operations and Lock RPCs plus recursion for invocations.
func (c *Coordinator) exec(a *dattempt, node model.NodeID, inv Invocation) error {
	dc := c.comps[inv.Component]
	if dc == nil {
		return fmt.Errorf("sched: unknown component %q", inv.Component)
	}
	for i, step := range inv.Steps {
		if c.crashed.Load() {
			return ErrCrashed
		}
		childID := model.NodeID(fmt.Sprintf("%s/%d", node, i+1))
		if step.Sync != nil {
			step.Sync()
		}
		if step.Fail != nil {
			return fmt.Errorf("%w: step %s: %w", ErrClientAbort, childID, step.Fail)
		}
		switch {
		case step.Op != nil && step.Invoke != nil:
			return fmt.Errorf("sched: step %s has both Op and Invoke", childID)
		case step.Op != nil:
			if !dc.hasStore {
				return fmt.Errorf("sched: component %q has no store for %s", dc.name, step.Op)
			}
			if err := c.leafOp(a, dc, node, childID, *step.Op); err != nil {
				return err
			}
		case step.Invoke != nil:
			if err := c.invoke(a, dc, node, childID, *step.Invoke); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sched: empty step %s", childID)
		}
	}
	return nil
}

// leafOp sends one store operation to its participant and stamps the
// event when the reply (the grant) arrives.
func (c *Coordinator) leafOp(a *dattempt, dc *dcomp, parent, id model.NodeID, op data.Op) error {
	rep, err := c.call(dc.name, comm.Message{
		Kind: comm.KindApply, Txn: a.txn, Attempt: a.attempt, TS: a.ts,
		Node: string(id), Item: op.Item, Mode: string(op.Mode), Impl: string(op.Impl),
		Arg: op.Arg, Wait: int64(c.lockWait),
	})
	a.touched[dc.name] = true
	if err != nil {
		return fmt.Errorf("sched: apply %s at %s: %w", op, id, err)
	}
	if !rep.OK {
		return fmt.Errorf("sched: apply %s at %s: %w", op, id, replyErr(dc.name, rep))
	}
	seq := c.clock.tick()
	if op.Physical() == data.ModeRead {
		a.values = append(a.values, rep.Value)
	}
	a.stage.declareNode(nodeDecl{id: id, parent: parent})
	a.stage.addEvent(event{seq: seq, comp: dc.name, op: id, parentTx: parent, item: op.Item, mode: op.Mode})
	return nil
}

// invoke grants the semantic lock at the caller's participant (nested
// protocols only; Global2PL and NoCC take no component-level locks) and
// recurses into the child component's steps.
func (c *Coordinator) invoke(a *dattempt, caller *dcomp, parent, id model.NodeID, inv Invocation) error {
	child := c.comps[inv.Component]
	if child == nil {
		return fmt.Errorf("sched: unknown component %q", inv.Component)
	}
	if child == caller {
		return fmt.Errorf("sched: component %q invoking itself (recursion is not allowed)", caller.name)
	}
	semItem := inv.Component + "/" + inv.Item

	var seq uint64
	switch c.protocol {
	case Global2PL, NoCC:
		// No component-level locks; the event is sequenced at completion,
		// where leaf-lock strictness (Global2PL) makes the order
		// consistent with the leaf serialization.
	default:
		rep, err := c.call(caller.name, comm.Message{
			Kind: comm.KindLock, Txn: a.txn, Attempt: a.attempt, TS: a.ts,
			Node: string(id), Item: semItem, Mode: string(inv.Mode), Wait: int64(c.lockWait),
		})
		a.touched[caller.name] = true
		if err != nil {
			return fmt.Errorf("sched: invoke %s at %s: %w", semItem, id, err)
		}
		if !rep.OK {
			return fmt.Errorf("sched: invoke %s at %s: %w", semItem, id, replyErr(caller.name, rep))
		}
		seq = c.clock.tick()
	}

	if err := c.exec(a, id, inv); err != nil {
		return err
	}
	if seq == 0 {
		seq = c.clock.tick()
	}
	a.stage.declareNode(nodeDecl{id: id, parent: parent, sched: inv.Component})
	a.stage.addEvent(event{seq: seq, comp: caller.name, op: id, parentTx: parent, item: semItem, mode: inv.Mode})
	return nil
}

// abortAttempt tears a failed attempt down at every touched participant.
// Best-effort: an unreachable participant's sweeper abandons the attempt
// on its own once it idles past AbandonAfter.
func (c *Coordinator) abortAttempt(a *dattempt) {
	var wg sync.WaitGroup
	for part := range a.touched {
		wg.Add(1)
		go func(part string) {
			defer wg.Done()
			c.call(part, comm.Message{Kind: comm.KindAbort, Txn: a.txn, Attempt: a.attempt})
		}(part)
	}
	wg.Wait()
}

// observe folds the durability report on a vote or ack from part — its
// incarnation (TS) and durable watermark (Value) — into that participant's
// state, files the ack of ct's lazy commit record (ct non-nil), and
// retires every commit the watermark has passed. A newer incarnation means
// the participant crashed: the old one's lazy acks may name records the
// crash dropped and LSNs the new life re-uses, so they are forgotten and
// stay pending for re-delivery; an older incarnation's report is ignored.
func (c *Coordinator) observe(part string, rep comm.Message, txn string, ct *coTxn) {
	var ended []string
	c.mu.Lock()
	d := c.durable[part]
	if rep.TS > d.inc {
		clear(d.lazy)
		d.inc, d.mark, d.lazy = rep.TS, 0, d.lazy[:0]
	}
	if rep.TS == d.inc {
		d.mark = max(d.mark, uint64(rep.Value))
		if ct != nil {
			d.lazy = append(d.lazy, lazyAck{txn, ct, rep.Seq})
		}
		keep := d.lazy[:0]
		for _, a := range d.lazy {
			if a.lsn > d.mark {
				keep = append(keep, a)
			} else if a.ct.settle(part) {
				ended = append(ended, a.txn)
			}
		}
		clear(d.lazy[len(keep):])
		d.lazy = keep
	}
	c.mu.Unlock()
	for _, txn := range ended {
		c.wal.append(wal.Record{Type: wal.TypeEnd, Txn: txn})
	}
}

// settle strikes part off the pending list (a no-op if a re-delivered ack
// already did) and reports, once, that the transaction has ended.
func (ct *coTxn) settle(part string) bool {
	for i, p := range ct.pending {
		if p == part {
			ct.pending = append(ct.pending[:i], ct.pending[i+1:]...)
			break
		}
	}
	if len(ct.pending) > 0 || ct.ended {
		return false
	}
	ct.ended = true
	return true
}

// commit2PC drives presumed-abort two-phase commit for a fully executed
// attempt: collect votes, force the decision (with the staged execution
// record in the same batch), and fan it out to the updaters — the
// participants that did not vote READ. Their commit records are lazy, so
// phase two costs a round trip and no force; observe appends the
// non-forced TypeEnd once every updater's record is known durable.
func (c *Coordinator) commit2PC(a *dattempt) error {
	// Phase one. Votes are collected in parallel; any no-vote or vote
	// timeout turns the decision into the (unlogged, presumed) abort.
	var abortCause error
	type vres struct {
		part string
		rep  comm.Message
		err  error
	}
	ch := make(chan vres, len(a.touched))
	for part := range a.touched {
		go func(part string) {
			rep, err := c.call(part, comm.Message{Kind: comm.KindPrepare, Txn: a.txn, Attempt: a.attempt, TS: a.ts})
			ch <- vres{part, rep, err}
		}(part)
	}
	// A participant that voted READ is done: it holds nothing and hears
	// nothing more, whatever the decision. The rest are the updaters.
	updaters := make([]string, 0, len(a.touched))
	for range a.touched {
		v := <-ch
		if v.err == nil {
			c.observe(v.part, v.rep, "", nil)
			if v.rep.OK && v.rep.Code == dcodeReadOnly {
				continue
			}
		}
		updaters = append(updaters, v.part)
		if v.err != nil {
			if errors.Is(v.err, ErrCrashed) {
				abortCause = ErrCrashed
			} else if abortCause == nil {
				abortCause = fmt.Errorf("sched: prepare at %s: %w", v.part, v.err)
			}
		} else if !v.rep.OK && abortCause == nil {
			abortCause = fmt.Errorf("sched: vote no: %w", replyErr(v.part, v.rep))
		}
	}
	sort.Strings(updaters)
	if errors.Is(abortCause, ErrCrashed) {
		return ErrCrashed
	}
	if abortCause != nil {
		c.setInflight(a.txn, false)
		c.fanDecide(a.txn, a.attempt, updaters, false, nil)
		return abortCause
	}

	// Crash site: unanimous yes votes, decision not yet durable. Every
	// updater is prepared and in doubt; recovery presumes abort.
	if c.crash.fire(DistCrashCoordPre, "", a.txn) {
		c.crashNow()
		return ErrCrashed
	}

	// Force the commit decision. The staged record rides in the same
	// contiguous batch, so a durable decision implies a durable record of
	// what committed; the updater list in the decision's Meta is what
	// recovery re-delivers to.
	partsJSON, _ := json.Marshal(updaters)
	recs := stageRecords(a.txn, a.stage, wal.Record{
		Type: wal.TypeDecision, Txn: a.txn, Mode: "commit",
		Node: attemptStr(a.attempt), Seq: a.ts, Meta: partsJSON,
	})
	if err := c.wal.force(recs); err != nil {
		// A non-crash WAL failure means this transaction can never commit
		// (no durable decision) but every updater is prepared and holding
		// locks. Clear the inflight entry — termination queries must get
		// the presumed abort, not retry-forever — and fan the abort out so
		// the locks drain now. A crash leaves both to recovery, which
		// rebuilds from the log.
		if !errors.Is(err, ErrCrashed) {
			c.setInflight(a.txn, false)
			c.fanDecide(a.txn, a.attempt, updaters, false, nil)
		}
		return err
	}

	ct := &coTxn{attempt: a.attempt, parts: updaters, pending: append([]string(nil), updaters...)}
	ct.ended = len(updaters) == 0
	c.mu.Lock()
	c.committed[a.txn] = ct
	delete(c.inflight, a.txn)
	c.rec.merge(a.stage)
	c.mu.Unlock()
	c.commits.Add(1)
	if ct.ended {
		c.wal.append(wal.Record{Type: wal.TypeEnd, Txn: a.txn})
	}

	// Crash site: the decision is durable but no participant knows it.
	// Recovery must re-deliver from the log alone.
	if c.crash.fire(DistCrashCoordPost, "", a.txn) {
		c.crashNow()
		return ErrCrashed
	}

	// Phase two. Undelivered decisions stay pending; the re-delivery loop
	// (and participant queries) finish them.
	c.fanDecide(a.txn, a.attempt, updaters, true, ct)
	return nil
}

// fanDecide sends the decision to the listed participants in parallel and
// waits for the replies; a commit's (ct non-nil) acks go to observe.
func (c *Coordinator) fanDecide(txn string, attempt uint32, parts []string, commit bool, ct *coTxn) {
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part string) {
			defer wg.Done()
			rep, err := c.call(part, comm.Message{Kind: comm.KindDecide, Txn: txn, Attempt: attempt, Commit: commit})
			if err == nil && rep.OK && ct != nil {
				c.observe(part, rep, txn, ct)
			}
		}(part)
	}
	wg.Wait()
}

// redeliverLoop re-sends committed decisions still owed a durable record,
// on a tick and when Settle kicks it — the recovery path for participant
// crashes and lost Decides, and what ends the last lazy commit of an idle
// participant. Presumed-abort needs no counterpart for aborts.
func (c *Coordinator) redeliverLoop(every time.Duration) {
	defer c.bg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		case <-c.kick:
		}
		c.redeliver()
	}
}

// redeliver runs one round, batched per peer: one sender goroutine per
// participant drains all of that peer's missing Decides, so a round is
// bounded by the slowest peer, not by the number of unended transactions.
func (c *Coordinator) redeliver() {
	type item struct {
		txn string
		ct  *coTxn
	}
	unended := 0
	byPeer := map[string][]item{}
	c.mu.Lock()
	for txn, ct := range c.committed {
		if ct.ended {
			continue
		}
		unended++
		for _, p := range ct.pending {
			byPeer[p] = append(byPeer[p], item{txn, ct})
		}
	}
	c.mu.Unlock()
	if unended == 0 {
		return
	}
	c.redelivers.Add(int64(unended))

	var wg sync.WaitGroup
	for part, items := range byPeer {
		wg.Add(1)
		go func(part string, items []item) {
			defer wg.Done()
			for _, it := range items {
				rep, err := c.call(part, comm.Message{Kind: comm.KindDecide, Txn: it.txn, Attempt: it.ct.attempt, Commit: true})
				if err == nil && rep.OK {
					c.observe(part, rep, it.txn, it.ct)
				}
			}
		}(part, items)
	}
	wg.Wait()
}

// unended counts committed transactions still awaiting acks.
func (c *Coordinator) unended() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ct := range c.committed {
		if !ct.ended {
			n++
		}
	}
	return n
}

// RecordedSystem assembles the committed distributed execution for the
// Comp-C checker, through the same assembly as the single-process
// runtime.
func (c *Coordinator) RecordedSystem() *model.System {
	c.mu.Lock()
	defer c.mu.Unlock()
	return assembleSystem(c.rec, func(comp string) *data.ModeTable {
		if dc := c.comps[comp]; dc != nil {
			return dc.modes
		}
		return data.SemanticTable()
	})
}
