package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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
// transaction programs exactly like the single-process Runtime, because
// it runs them through the same driver (driver.go: one retry loop, one
// walker) as that driver's cluster scheduler: each lock grant and store
// operation is an RPC to the owning participant, and a walked attempt
// commits through presumed-abort 2PC. It is also the event-sequence
// authority: sequence numbers are stamped centrally when a grant's reply
// arrives, which is order-consistent because every participant holds its
// locks to the decision (two conflicting grants are always separated by a
// full decision round-trip through here).
type Coordinator struct {
	driver
	clock lamport // event-sequence authority
	crash *distCrashState

	rpcTimeout time.Duration
	rpcRetries int
	maxRetries int
	maxActive  int
	lockWait   time.Duration

	ix *execIndex // the committed distributed execution

	mu        sync.Mutex
	inflight  map[string]bool         // txns between first RPC and decision (Query -> retry)
	committed map[string]*coTxn       // durable commit decisions
	durable   map[string]*partDurable // per participant: watermark and lazy acks
	active    int

	commits    atomic.Int64
	redelivers atomic.Int64

	kick chan struct{} // buffered(1): run a re-delivery round now
}

func newCoordinator(cfg DistConfig, topo *Topology, crash *distCrashState) *Coordinator {
	c := &Coordinator{
		driver: driver{protocol: cfg.Protocol, comps: map[string]*component{}},
		crash:  crash,

		rpcTimeout: cfg.RPCTimeout,
		rpcRetries: cfg.RPCRetries,
		maxRetries: cfg.MaxRetries,
		maxActive:  cfg.MaxActive,
		lockWait:   cfg.LockWait,

		inflight:  map[string]bool{},
		committed: map[string]*coTxn{},
		durable:   map[string]*partDurable{},
		kick:      make(chan struct{}, 1),
	}
	c.sch, c.stop = c, make(chan struct{})
	for _, spec := range topo.Specs {
		c.comps[spec.Name] = newComponent(spec)
		c.durable[spec.Name] = &partDurable{}
	}
	c.ix = newExecIndex(c.comps)
	return c
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

// Submit runs the program as a distributed root transaction through the
// driver's retry loop: each failed attempt is aborted at every touched
// participant before the next begins, and a fully walked one commits
// through 2PC. Remote lock waits are bounded by LockWait, the root by its
// Invocation.Deadline.
func (c *Coordinator) Submit(name string, root Invocation) (*TxResult, error) {
	return c.submit(name, root, c.maxRetries, 0)
}

// The Coordinator is the driver's cluster scheduler.

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

func (c *Coordinator) begin(a *attempt, _ Invocation) {
	if a.touched == nil {
		a.touched = map[string]bool{}
	}
	c.setInflight(string(a.root), true)
}

// Locks are the participants' own, held to the decision.
func (c *Coordinator) enter(_ *attempt, _ *component, _ model.NodeID, owner string) (string, error) {
	return owner, nil
}
func (c *Coordinator) leave(*attempt, *component, string) {}

// apply sends one store operation to its participant and stamps the
// event when the reply (the grant) arrives.
func (c *Coordinator) apply(a *attempt, comp *component, id model.NodeID, _ string, op data.Op, _ time.Time) (uint64, int64, error) {
	rep, err := c.grant(a, comp.name, comm.Message{Kind: comm.KindApply, Node: string(id),
		Item: op.Item, Mode: string(op.Mode), Impl: string(op.Impl), Arg: op.Arg})
	if err != nil {
		return 0, 0, fmt.Errorf("sched: apply %s at %s: %w", op, id, err)
	}
	return c.clock.tick(), rep.Value, nil
}

// lock grants the semantic lock on an invocation at the caller's
// participant.
func (c *Coordinator) lock(a *attempt, caller *component, id model.NodeID, item string, mode data.Mode, _ string, _ time.Time) error {
	if _, err := c.grant(a, caller.name, comm.Message{Kind: comm.KindLock, Node: string(id), Item: item, Mode: string(mode)}); err != nil {
		return fmt.Errorf("sched: invoke %s at %s: %w", item, id, err)
	}
	return nil
}

// grant sends an apply or lock request of a to part — which from then on
// votes on the attempt, or hears its abort — and maps a refusal onto the
// sentinel errors.
func (c *Coordinator) grant(a *attempt, part string, req comm.Message) (comm.Message, error) {
	req.Txn, req.Attempt, req.TS, req.Wait = string(a.root), a.number, a.ts, int64(c.lockWait)
	rep, err := c.call(part, req)
	a.touched[part] = true
	if err == nil && !rep.OK {
		err = replyErr(part, rep)
	}
	return rep, err
}

func (c *Coordinator) nextSeq() uint64 { return c.clock.tick() }

// A failed subtransaction fails its root: its participants' locks are
// held to the decision, so there is nothing local to re-run under.
func (c *Coordinator) retrySub(*attempt, snapshot, int, error) bool { return false }

// commit runs 2PC, which ends the attempt at every participant it touched
// whatever the outcome: a failed commit2PC has fanned its abort out
// already (or left it to recovery), so abort has no one left to tell.
func (c *Coordinator) commit(a *attempt) error {
	err := c.commit2PC(a)
	clear(a.touched)
	return err
}

// abort tears a failed attempt down at every touched participant.
// Best-effort: an unreachable participant's sweeper abandons the attempt
// on its own once it idles past AbandonAfter.
func (c *Coordinator) abort(a *attempt, _ bool) {
	c.setInflight(string(a.root), false)
	var wg sync.WaitGroup
	for part := range a.touched {
		wg.Add(1)
		go func(part string) {
			defer wg.Done()
			c.call(part, comm.Message{Kind: comm.KindAbort, Txn: string(a.root), Attempt: a.number})
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
func (c *Coordinator) commit2PC(a *attempt) error {
	txn := string(a.root)
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
			rep, err := c.call(part, comm.Message{Kind: comm.KindPrepare, Txn: txn, Attempt: a.number, TS: a.ts})
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
	slices.Sort(updaters)
	if errors.Is(abortCause, ErrCrashed) {
		return ErrCrashed
	}
	if abortCause != nil {
		c.setInflight(txn, false)
		c.fanDecide(txn, a.number, updaters, false, nil)
		return abortCause
	}

	// Crash site: unanimous yes votes, decision not yet durable. Every
	// updater is prepared and in doubt; recovery presumes abort.
	if c.crash.fire(DistCrashCoordPre, "", txn) {
		c.crashNow()
		return ErrCrashed
	}

	// Force the commit decision. The staged record rides in the same
	// contiguous batch, so a durable decision implies a durable record of
	// what committed; the updater list in the decision's Meta is what
	// recovery re-delivers to.
	partsJSON, _ := json.Marshal(updaters)
	recs := stageRecords(txn, &a.stage, wal.Record{
		Type: wal.TypeDecision, Txn: txn, Mode: "commit",
		Node: attemptStr(a.number), Seq: a.ts, Meta: partsJSON,
	})
	if err := c.wal.force(recs); err != nil {
		// A non-crash WAL failure means this transaction can never commit
		// (no durable decision) but every updater is prepared and holding
		// locks. Clear the inflight entry — termination queries must get
		// the presumed abort, not retry-forever — and fan the abort out so
		// the locks drain now. A crash leaves both to recovery, which
		// rebuilds from the log.
		if !errors.Is(err, ErrCrashed) {
			c.setInflight(txn, false)
			c.fanDecide(txn, a.number, updaters, false, nil)
		}
		return err
	}

	// Once published, ct is the re-delivery loop's too (it may settle it
	// under c.mu): whether it starts ended is decided here.
	readOnly := len(updaters) == 0
	ct := &coTxn{attempt: a.number, parts: updaters, pending: append([]string(nil), updaters...), ended: readOnly}
	c.mu.Lock()
	c.committed[txn] = ct
	delete(c.inflight, txn)
	c.mu.Unlock()
	c.ix.file(&a.stage)
	c.commits.Add(1)
	if readOnly {
		c.wal.append(wal.Record{Type: wal.TypeEnd, Txn: txn})
	}

	// Crash site: the decision is durable but no participant knows it.
	// Recovery must re-deliver from the log alone.
	if c.crash.fire(DistCrashCoordPost, "", txn) {
		c.crashNow()
		return ErrCrashed
	}

	// Phase two. Undelivered decisions stay pending; the re-delivery loop
	// (and participant queries) finish them.
	c.fanDecide(txn, a.number, updaters, true, ct)
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
// Comp-C checker, through the same execution index as the single-process
// runtime.
func (c *Coordinator) RecordedSystem() *model.System { return c.ix.system() }
