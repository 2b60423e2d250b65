package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"compositetx/internal/comm"
	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// The distributed runtime splits the scheduler into a root Coordinator
// and one Participant per component, communicating over a comm.Network.
// Every root transaction commits through presumed-abort two-phase commit:
// the coordinator drives Apply/Lock traffic during execution, then
// Prepare -> Vote -> Decide -> Ack. A participant forces a TypePrepare
// record before voting yes, so a prepared transaction survives any single
// crash; the coordinator force-logs only commit decisions (absence of a
// decision means abort). A participant's own commit record is lazy (see
// handleDecide), and one that journaled nothing votes READ and is left
// out of phase two (see handlePrepare).

// Reply codes carried in Message.Code. Zero (with OK set) is success; the
// coordinator maps the rest back onto the runtime's sentinel errors with
// %w so errors.Is works through the RPC layer.
const (
	dcodeOK       uint8 = iota
	dcodeDie            // wait-die sacrifice at the participant -> ErrDie
	dcodeTimeout        // lock-wait deadline expired -> ErrTimeout
	dcodeCrashed        // participant is crashed -> ErrComponentDown
	dcodeOverload       // admission refused -> ErrOverload
	dcodeStale          // attempt tombstoned (unilateral abort or newer attempt) -> ErrTimeout
	dcodeRetry          // query answer: transaction still voting, ask again
	dcodeFatal          // non-retryable store error; Err carries the text
	dcodeReadOnly       // yes vote (OK set) of a participant with nothing to commit: no phase two
)

// Distributed crash sites (DistCrash.Site). Participant sites fire after
// the corresponding record is journaled, before the message that would
// reveal it — the exact windows presumed-abort 2PC must survive.
const (
	DistCrashCoordPre    = "coord-pre-decision"  // after unanimous yes votes, before the decision is forced
	DistCrashCoordPost   = "coord-post-decision" // after the decision is forced, before any Decide is sent
	DistCrashPartPrepare = "part-prepare"        // after the participant forces TypePrepare, before its vote
	DistCrashPartDecide  = "part-decide"         // after the participant journals TypeDecision (a commit: unforced), before its ack
)

// DistCrash names one crash to inject into a distributed run: the root
// transaction it fires on, the site, and (for participant sites) the
// component. It fires at most once.
type DistCrash struct {
	Txn  string
	Site string
	Part string
}

// distCrashState is the shared, fire-once crash trigger.
type distCrashState struct {
	mu    sync.Mutex
	armed DistCrash
	set   bool
	fired bool
}

func (c *distCrashState) arm(d DistCrash) {
	c.mu.Lock()
	c.armed, c.set, c.fired = d, true, false
	c.mu.Unlock()
}

func (c *distCrashState) fire(site, part, txn string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.set || c.fired || c.armed.Site != site || c.armed.Txn != txn {
		return false
	}
	if c.armed.Part != "" && c.armed.Part != part {
		return false
	}
	c.fired = true
	return true
}

// lamport is a node's logical clock: tick stamps a local event or an
// outgoing message, merge folds in the clock of a received one.
type lamport struct{ atomic.Uint64 }

func (c *lamport) tick() uint64 { return c.Add(1) }

func (c *lamport) merge(remote uint64) {
	for {
		cur := c.Load()
		if remote <= cur || c.CompareAndSwap(cur, remote) {
			return
		}
	}
}

// pdedup deduplicates one step's delivery: the first arrival executes and
// records its reply, duplicates (RPC retries reuse the same correlation
// ID; the fault injector clones messages outright) wait on done and
// resend the recorded reply. This is what makes at-least-once delivery
// look exactly-once to the store.
type pdedup struct {
	done  chan struct{}
	reply comm.Message
}

// ptxn is the participant-side state of one root transaction attempt.
type ptxn struct {
	attempt   uint32
	ts        uint64 // root wait-die timestamp
	steps     map[string]*pdedup
	undo      []undoEntry   // journaled mutations, with what Inverse needs
	locks     []string      // items granted to the attempt, released at its end
	prepDone  chan struct{} // non-nil once a Prepare is being processed
	vote      comm.Message  // recorded vote, valid after prepDone closes
	prepared  bool
	querying  bool
	lastTouch time.Time
}

// Participant is the message front door of one component in a cluster:
// the component itself (its lock manager, its store — nil for pure
// scheduling components — and its leaf path), its write-ahead log, and
// the message handlers that make duplicated and reordered delivery
// idempotent.
type Participant struct {
	lifecycle
	c     *component
	cfg   DistConfig // normalized: protocol, liveness and RPC policy
	clock lamport
	crash *distCrashState
	leaks leaks // quarantined compensations

	// inc is the incarnation, bumped by RecoverParticipant and stamped on
	// every vote and ack beside the log's durable watermark: a crash drops
	// the unsynced tail and the next life re-uses its LSNs.
	inc uint64

	mu        sync.Mutex
	txns      map[string]*ptxn
	aborted   map[string]uint32 // txn -> highest attempt aborted (tombstones)
	resolved  map[string]bool   // txn -> terminally committed
	readVoted map[string]uint32 // txn -> attempt voted READ and forgotten

	unilats  atomic.Int64 // unilateral abandon-aborts
	queries  atomic.Int64 // termination-protocol queries sent
	resolves atomic.Int64 // in-doubt transactions resolved by query
}

func newParticipant(spec ComponentSpec, cfg DistConfig, crash *distCrashState) *Participant {
	p := &Participant{
		cfg:   cfg,
		crash: crash,
		inc:   1,

		txns:      map[string]*ptxn{},
		aborted:   map[string]uint32{},
		resolved:  map[string]bool{},
		readVoted: map[string]uint32{},
	}
	p.c = newComponent(spec).local(&p.crashed)
	p.lms, p.stop = []*lockManager{p.c.lm}, make(chan struct{})
	return p
}

// handle dispatches one inbound request. The mux runs each delivery on
// its own goroutine, so a handler blocking in a lock wait never prevents
// the conflicting transaction's Decide (which releases the lock) from
// being processed.
func (p *Participant) handle(m comm.Message) {
	if p.crashed.Load() {
		return // a crashed node answers nothing
	}
	p.clock.merge(m.Clock)
	switch m.Kind {
	case comm.KindApply, comm.KindLock:
		p.handleGrant(m)
	case comm.KindPrepare:
		p.handlePrepare(m)
	case comm.KindDecide:
		p.handleDecide(m)
	case comm.KindAbort:
		p.handleAbort(m)
	}
}

func (p *Participant) reply(req comm.Message, rep comm.Message) {
	rep.Txn, rep.Attempt, rep.Node = req.Txn, req.Attempt, req.Node
	rep.Clock = p.clock.tick()
	if rep.Kind == comm.KindVote || rep.Kind == comm.KindAck {
		rep.TS = p.inc
		if p.wal.attached() {
			rep.Value = int64(p.wal.log.SyncedLSN())
		}
	}
	p.mux.Reply(req, rep)
}

// admit classifies an Apply/Lock delivery: stale (tombstoned attempt or
// terminally resolved transaction), duplicate (the step is known — wait
// and resend), or first delivery (a pdedup slot is registered before the
// participant mutex drops, so every later duplicate finds it).
func (p *Participant) admit(m comm.Message) (tx *ptxn, st *pdedup, first, stale bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.resolved[m.Txn] || m.Attempt <= p.aborted[m.Txn] || m.Attempt <= p.readVoted[m.Txn] {
		return nil, nil, false, true
	}
	tx = p.txns[m.Txn]
	if tx != nil && tx.attempt > m.Attempt {
		return nil, nil, false, true
	}
	if tx != nil && tx.attempt < m.Attempt {
		// The coordinator moved on to a newer attempt; its abort of the
		// old one was lost in the network. Abort the old attempt locally —
		// a prepared one durably (the newer attempt proves the coordinator
		// decided against it; presumed abort never commits a superseded
		// attempt), an unprepared one with a plain rollback.
		if _, err := p.decideLocked(m.Txn, tx, false); err != nil {
			return nil, nil, false, true
		}
		tx = nil
	}
	if tx == nil {
		tx = &ptxn{attempt: m.Attempt, ts: m.TS, steps: map[string]*pdedup{}}
		p.txns[m.Txn] = tx
	}
	tx.lastTouch = time.Now()
	if st = tx.steps[m.Node]; st != nil {
		return tx, st, false, false
	}
	st = &pdedup{done: make(chan struct{})}
	tx.steps[m.Node] = st
	return tx, st, true, false
}

// finish records the reply for duplicates and sends it.
func (p *Participant) finish(req comm.Message, st *pdedup, rep comm.Message) {
	p.mu.Lock()
	st.reply = rep
	if tx := p.txns[req.Txn]; tx != nil {
		tx.lastTouch = time.Now()
	}
	p.mu.Unlock()
	close(st.done)
	p.reply(req, rep)
}

// handleGrant serves an Apply — lock and apply one store operation at
// the component — or a Lock, the semantic lock of a subtransaction
// invocation at this (caller) component: no store is involved, and the
// grant itself is the recorded event, sequenced by the coordinator on
// reply receipt.
func (p *Participant) handleGrant(m comm.Message) {
	kind := comm.KindApplyReply
	if m.Kind == comm.KindLock {
		kind = comm.KindLockReply
	}
	tx, st, first, stale := p.admit(m)
	if stale {
		p.reply(m, comm.Message{Kind: kind, Code: dcodeStale})
		return
	}
	if !first {
		<-st.done
		p.reply(m, st.reply)
		return
	}
	c := p.c
	op := data.Op{Mode: data.Mode(m.Mode), Item: m.Item, Arg: m.Arg, Impl: data.Mode(m.Impl)}
	table, mode := c.modes, op.Mode
	if m.Kind == comm.KindApply {
		if c.store == nil {
			p.finish(m, st, comm.Message{Kind: kind, Code: dcodeFatal,
				Err: fmt.Sprintf("component %q has no store", c.name)})
			return
		}
		table, mode = c.lockSpace(p.cfg.Protocol, op)
	}
	if table != nil {
		deadline := time.Now().Add(time.Duration(m.Wait))
		if err := c.lm.acquireUntil(table, op.Item, mode, m.Txn, m.TS, WaitDie, nil, deadline); err != nil {
			p.finish(m, st, errReply(kind, err))
			return
		}
	}

	// Re-validate under the mutex: the attempt may have been aborted (a
	// sweeper abandon, a coordinator Abort, an attempt upgrade) while the
	// lock wait blocked, and a stale grant must not mutate the store. A
	// grant for a gone transaction is released; one racing a newer attempt
	// of the same root is left in place (same lock owner — it drains at
	// that attempt's decision). The write-ahead apply and the undo append
	// happen under p.mu so no abort can interleave with them.
	p.mu.Lock()
	if !p.keepGrant(m.Txn, tx, table != nil, op.Item) {
		p.mu.Unlock()
		p.finish(m, st, comm.Message{Kind: kind, Code: dcodeStale})
		return
	}
	var res data.Result
	var err error
	switch {
	case m.Kind == comm.KindLock:
	case op.Physical() == data.ModeRead:
		res, err = c.store.Apply(op)
	default:
		rec := applyRecord(m.Txn, m.Node, c.name, op, c.store.Get(op.Item))
		var lsn uint64
		if lsn, res, err = c.writeAhead(p.wal, &rec, op, ""); err == nil {
			tx.undo = append(tx.undo, undoEntry{comp: c, op: op, res: res, lsn: lsn})
		}
	}
	p.mu.Unlock()
	if err != nil {
		p.finish(m, st, errReply(kind, err))
		return
	}
	p.finish(m, st, comm.Message{Kind: kind, OK: true, Value: res.Value})
}

// keepGrant files a lock on item just granted to txn (locked: whether one
// was taken at all) under p.mu, and reports whether tx, the attempt it
// was requested for, is still the live one. A stale grant is released
// at once when the transaction is gone, and otherwise filed with the
// newer attempt of the same root (same lock owner), which releases it at
// its decision.
func (p *Participant) keepGrant(txn string, tx *ptxn, locked bool, item string) bool {
	cur := p.txns[txn]
	if locked {
		if cur == nil {
			p.c.lm.release(txn, item)
		} else {
			cur.locks = append(cur.locks, item)
		}
	}
	return cur == tx && !p.resolved[txn]
}

// releaseLocked drops every lock tx holds (under p.mu).
func (p *Participant) releaseLocked(txn string, tx *ptxn) {
	for _, item := range tx.locks {
		p.c.lm.release(txn, item)
	}
	tx.locks = nil
}

// errReply maps a refusal — a lock wait, a journal or a store error —
// onto a reply code (replyErr's inverse at the coordinator).
func errReply(kind comm.Kind, err error) comm.Message {
	rep := comm.Message{Kind: kind}
	switch {
	case errors.Is(err, ErrDie):
		rep.Code = dcodeDie
	case errors.Is(err, ErrTimeout):
		rep.Code = dcodeTimeout
	case errors.Is(err, ErrCrashed):
		rep.Code = dcodeCrashed
	default:
		rep.Code = dcodeFatal
		rep.Err = err.Error()
	}
	return rep
}

// handlePrepare runs phase one: force the prepare record (with the root's
// wait-die timestamp, for lock re-acquisition at recovery), then vote. A
// participant that journaled nothing for the attempt has nothing a crash
// could lose and nothing a decision could change: it votes READ, releases
// its locks (the root is past its lock point) and forgets the attempt.
func (p *Participant) handlePrepare(m comm.Message) {
	p.mu.Lock()
	if p.resolved[m.Txn] || m.Attempt <= p.aborted[m.Txn] {
		p.mu.Unlock()
		p.reply(m, comm.Message{Kind: comm.KindVote, Code: dcodeStale})
		return
	}
	readVote := comm.Message{Kind: comm.KindVote, OK: true, Code: dcodeReadOnly}
	tx := p.txns[m.Txn]
	if tx == nil || tx.attempt != m.Attempt {
		vote := comm.Message{Kind: comm.KindVote, Code: dcodeStale}
		if tx == nil && p.readVoted[m.Txn] == m.Attempt {
			vote = readVote // a duplicate of the Prepare already answered READ
		}
		p.mu.Unlock()
		p.reply(m, vote)
		return
	}
	if tx.prepDone != nil {
		done := tx.prepDone
		p.mu.Unlock()
		<-done
		p.mu.Lock()
		vote := tx.vote
		p.mu.Unlock()
		p.reply(m, vote)
		return
	}
	if len(tx.undo) == 0 {
		delete(p.txns, m.Txn)
		p.readVoted[m.Txn] = m.Attempt
		p.releaseLocked(m.Txn, tx)
		p.mu.Unlock()
		p.reply(m, readVote)
		return
	}
	done := make(chan struct{})
	tx.prepDone = done
	tx.lastTouch = time.Now()
	p.mu.Unlock()

	vote := comm.Message{Kind: comm.KindVote, OK: true}
	rec := wal.Record{
		Type: wal.TypePrepare, Txn: m.Txn, Node: attemptStr(m.Attempt),
		Comp: p.c.name, Seq: m.TS,
	}
	if err := p.wal.force([]wal.Record{rec}); err != nil {
		vote = errReply(comm.KindVote, err)
	}
	p.mu.Lock()
	if p.txns[m.Txn] != tx {
		// Aborted while the force was in flight (the coordinator only
		// aborts an attempt it has given up on, so a yes here could never
		// be acted on — but answer stale for defense in depth).
		vote = comm.Message{Kind: comm.KindVote, Code: dcodeStale}
	}
	tx.vote = vote
	tx.prepared = vote.OK
	tx.lastTouch = time.Now()
	p.mu.Unlock()
	close(done)
	if vote.OK && p.crash.fire(DistCrashPartPrepare, p.c.name, m.Txn) {
		p.crashNow()
		return
	}
	p.reply(m, vote)
}

// handleDecide runs phase two. A commit is lazy: the decision record is
// appended unforced, the effects are kept, the locks release, and the ack
// goes out at once naming the record's LSN — the coordinator holds the
// transaction open until this log's durable watermark has passed it. A
// crash that loses the record recovers in doubt and resolves to commit,
// because the coordinator has not ended the transaction. An abort forces
// its compensations and decision record first. Decides for unknown or
// already-decided transactions ack idempotently.
func (p *Participant) handleDecide(m comm.Message) {
	if p.crashed.Load() {
		return
	}
	p.mu.Lock()
	tx := p.txns[m.Txn]
	if p.resolved[m.Txn] || tx == nil || tx.attempt != m.Attempt {
		p.mu.Unlock()
		// Settled by an earlier delivery, whose lazy commit record may still
		// sit in the unsynced tail. This ack names no LSN to wait for, so the
		// tail is made durable first — also the path by which re-delivery
		// ends the last commit of an idle participant.
		if m.Commit && p.wal.sync() != nil {
			return
		}
		p.reply(m, comm.Message{Kind: comm.KindAck, OK: true})
		return
	}
	lsn, err := p.decideLocked(m.Txn, tx, m.Commit)
	p.mu.Unlock()
	if err != nil {
		return // crashed mid-decision; recovery resolves it
	}
	if p.crash.fire(DistCrashPartDecide, p.c.name, m.Txn) {
		p.crashNow()
		return
	}
	p.reply(m, comm.Message{Kind: comm.KindAck, OK: true, Seq: lsn})
}

// decideLocked journals and applies a decision under p.mu. A commit
// record is appended lazily (its LSN returned for the ack). The abort of
// a prepared attempt forces its compensations and decision record as one
// batch before any inverse executes — recovery replays applies and
// compensations in log order, so any crash in between nets out — and
// that of an unprepared one appends them unforced, closed by TypeAbort
// (recovery undoes uncommitted applies on its own if they are lost). An
// attempt that journaled nothing journals nothing. Then commit keeps the
// effects, abort runs the component's undo step on each, in reverse;
// locks release, tombstones update. A decided attempt's versions are
// final and a participant's store has no snapshot readers, so each item
// it touched is compacted to its latest version. Every path that settles
// an attempt goes through here: Decide, attempt upgrades, coordinator
// aborts, abandonment, termination-protocol answers.
func (p *Participant) decideLocked(txn string, tx *ptxn, commit bool) (lsn uint64, err error) {
	if len(tx.undo) > 0 {
		dec := wal.Record{Type: wal.TypeDecision, Txn: txn, Node: attemptStr(tx.attempt), Mode: "commit"}
		if commit {
			lsn, err = p.wal.append(dec)
		} else {
			recs := make([]wal.Record, 0, len(tx.undo)+1)
			for i := len(tx.undo) - 1; i >= 0; i-- {
				if rec, ok := tx.undo[i].compRecord(txn); ok {
					recs = append(recs, rec)
				}
			}
			if tx.prepared {
				dec.Mode = "abort"
				err = p.wal.force(append(recs, dec))
			} else {
				_, _ = p.wal.appendBatch(append(recs, wal.Record{Type: wal.TypeAbort, Txn: txn}))
			}
		}
		if err != nil {
			return 0, err
		}
	}
	if commit {
		p.resolved[txn] = true
	} else {
		for i := len(tx.undo) - 1; i >= 0; i-- {
			tx.undo[i].revert(txn, "", p.wal, nil, &p.leaks)
		}
		if tx.attempt > p.aborted[txn] {
			p.aborted[txn] = tx.attempt
		}
	}
	if len(tx.undo) > 0 {
		p.c.store.Compact(p.c.store.Clock() + 1)
	}
	delete(p.txns, txn)
	p.releaseLocked(txn, tx)
	return lsn, nil
}

// handleAbort aborts one unprepared attempt (the coordinator's retry
// path). Idempotent: tombstoned and unknown attempts ack immediately. A
// prepared attempt routed here gets the durable abort decision instead.
func (p *Participant) handleAbort(m comm.Message) {
	p.mu.Lock()
	tx := p.txns[m.Txn]
	if p.resolved[m.Txn] || m.Attempt <= p.aborted[m.Txn] || tx == nil || tx.attempt != m.Attempt {
		if tx == nil && m.Attempt > p.aborted[m.Txn] && !p.resolved[m.Txn] {
			// Tombstone an attempt we never saw: a reordered Apply of it
			// arriving later must not resurrect it.
			p.aborted[m.Txn] = m.Attempt
		}
		p.mu.Unlock()
		p.reply(m, comm.Message{Kind: comm.KindAbortReply, OK: true})
		return
	}
	if _, err := p.decideLocked(m.Txn, tx, false); err != nil {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.reply(m, comm.Message{Kind: comm.KindAbortReply, OK: true})
}

// sweeper is the participant's liveness loop. Unprepared attempts idle
// past AbandonAfter are aborted unilaterally (presumed abort lets a
// participant walk away before it votes); prepared attempts idle past
// QueryAfter run the termination protocol — query the coordinator, which
// answers commit (it has a durable decision), abort (presumed), or retry
// (the vote round is still in flight).
func (p *Participant) sweeper() {
	tick := time.NewTicker(p.cfg.SweepEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		var abandon []string
		type inDoubtQuery struct {
			txn string
			tx  *ptxn
		}
		var query []inDoubtQuery
		p.mu.Lock()
		for txn, tx := range p.txns {
			idle := now.Sub(tx.lastTouch)
			switch {
			case !tx.prepared && tx.prepDone == nil && idle > p.cfg.AbandonAfter:
				abandon = append(abandon, txn)
			case tx.prepared && !tx.querying && idle > p.cfg.QueryAfter:
				tx.querying = true
				query = append(query, inDoubtQuery{txn, tx})
			}
		}
		for _, txn := range abandon {
			if tx := p.txns[txn]; tx != nil && !tx.prepared && tx.prepDone == nil {
				_, _ = p.decideLocked(txn, tx, false) // unprepared: cannot fail
				p.unilats.Add(1)
			}
		}
		p.mu.Unlock()
		for _, q := range query {
			p.bg.Add(1)
			go func() {
				defer p.bg.Done()
				p.resolveInDoubt(q.txn, q.tx)
			}()
		}
	}
}

// resolveInDoubt asks the coordinator for the outcome of one prepared,
// undecided attempt and applies the answer. The query carries the
// attempt and the answer is applied only if p.txns[txn] still holds the
// exact ptxn the query was issued for: a presumed-abort reply computed
// for an earlier attempt (or delayed in the network across a retry
// round) must never abort a later attempt that has since prepared and
// may be committing at the coordinator.
func (p *Participant) resolveInDoubt(txn string, tx *ptxn) {
	p.queries.Add(1)
	rep, err := p.mux.Call(coordName,
		comm.Message{Kind: comm.KindQuery, Txn: txn, Attempt: tx.attempt, Clock: p.clock.tick()},
		p.cfg.RPCTimeout, p.cfg.RPCRetries)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.txns[txn] != tx || !tx.prepared {
		return // the queried attempt is gone or superseded; drop the answer
	}
	tx.querying = false
	if err != nil || rep.Code == dcodeRetry {
		tx.lastTouch = time.Now() // back off one QueryAfter window
		return
	}
	if _, err := p.decideLocked(txn, tx, rep.Commit); err == nil {
		p.resolves.Add(1)
	}
}

// inDoubt counts prepared, undecided transactions (Settle polls it).
func (p *Participant) inDoubt() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, tx := range p.txns {
		if tx.prepared {
			n++
		}
	}
	return n
}
