// Package comm is the message layer under the distributed composite
// runtime (internal/sched's coordinator/participant split): typed
// protocol messages, pluggable point-to-point transports, a seeded
// network fault injector, and a request/reply mux with per-RPC deadlines
// and capped exponential-backoff retry.
//
// Two transports ship. The in-process channel network delivers messages
// through per-endpoint unbounded inboxes and is the substrate the fault
// injector wraps (drop, duplicate, delay, reorder, one-way partition —
// the network-chaos axis of experiment E15). The TCP network moves the
// same messages over loopback sockets with the WAL's framing discipline
// (length prefix + CRC32 over the body), one persistent connection per
// destination, so the protocol exercised in tests is byte-identical to
// what a multi-process deployment would ship.
//
// The layer is deliberately unreliable-by-contract: Send may silently
// lose, duplicate or reorder messages (fault injection does all three on
// purpose). Reliability is the Mux's job — retries with the same request
// ID — and idempotence is the receiver's (the participant dedups by
// (txn, attempt, node) against its WAL state).
package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Kind names a protocol message. Requests flow coordinator → participant
// (apply, lock, prepare, decide, abort) except Query, which a recovering
// or in-doubt participant sends to the coordinator (the presumed-abort
// termination protocol); every request kind has a matching reply kind.
type Kind uint8

const (
	// KindApply asks the participant to lock and execute one leaf
	// operation of a root transaction (write-ahead journaled).
	KindApply Kind = 1 + iota
	KindApplyReply
	// KindLock asks the caller component's participant for the semantic
	// lock of a subtransaction invocation (the operation the caller's
	// scheduler serializes, Definition 4's delegation).
	KindLock
	KindLockReply
	// KindPrepare starts phase one of 2PC: the participant forces a
	// prepare record and votes — or, with nothing journaled, votes READ
	// and drops out of phase two.
	KindPrepare
	KindVote
	// KindDecide delivers the coordinator's decision (Commit field); the
	// participant journals a decision record (a commit lazily, its LSN in
	// the ack's Seq; an abort forced), finalizes, and acks.
	KindDecide
	KindAck
	// KindAbort rolls back an unprepared transaction at the participant
	// (presumed abort: no decision record required before the vote).
	KindAbort
	KindAbortReply
	// KindQuery asks the coordinator for the outcome of an in-doubt
	// (prepared, undecided) transaction. The coordinator answers from its
	// decision log: commit if logged, abort otherwise (presumed abort),
	// or retry while the transaction is still actively voting.
	KindQuery
	KindQueryReply

	kindMax
)

func (k Kind) String() string {
	switch k {
	case KindApply:
		return "apply"
	case KindApplyReply:
		return "apply-reply"
	case KindLock:
		return "lock"
	case KindLockReply:
		return "lock-reply"
	case KindPrepare:
		return "prepare"
	case KindVote:
		return "vote"
	case KindDecide:
		return "decide"
	case KindAck:
		return "ack"
	case KindAbort:
		return "abort"
	case KindAbortReply:
		return "abort-reply"
	case KindQuery:
		return "query"
	case KindQueryReply:
		return "query-reply"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsReply reports whether the kind is a reply the Mux should route to a
// pending call rather than hand to the request handler.
func (k Kind) IsReply() bool {
	switch k {
	case KindApplyReply, KindLockReply, KindVote, KindAck, KindAbortReply, KindQueryReply:
		return true
	}
	return false
}

// Message is one protocol message. Like wal.Record it is a flat union:
// every kind uses the subset of fields it needs and leaves the rest
// zero, keeping the codec branch-free.
type Message struct {
	Kind Kind
	From string // sender endpoint name (reply address)
	ID   uint64 // request correlation ID; replies echo it, retries reuse it

	Txn     string // root transaction
	Attempt uint32 // root retry attempt; participants reject stale attempts
	TS      uint64 // requests: root wait-die timestamp; vote/ack: the participant's incarnation
	Clock   uint64 // sender's Lamport clock at send

	Node string // forest node ID of the step (apply/lock)
	Item string // store item (apply) or semantic item (lock)
	Mode string // semantic mode
	Impl string // physical implementation mode ("" = Mode itself)
	Arg  int64  // operation argument

	Wait int64 // lock-wait budget in nanoseconds (apply/lock requests)

	Value int64  // apply reply: leaf read value; vote/ack: the participant log's durable LSN watermark
	Seq   uint64 // ack: LSN of the lazy commit record (0 = nothing to wait for)

	OK     bool   // vote yes / generic success
	Commit bool   // decide & query-reply: commit (true) or abort (false)
	Code   uint8  // reply error code (sched maps codes to sentinel errors)
	Err    string // reply error detail (human-readable)
}

// Encode serializes the message body (kind byte + fields) onto b.
func Encode(b []byte, m Message) []byte {
	b = append(b, byte(m.Kind))
	b = appendStr(b, m.From)
	b = binary.AppendUvarint(b, m.ID)
	b = appendStr(b, m.Txn)
	b = binary.AppendUvarint(b, uint64(m.Attempt))
	b = binary.AppendUvarint(b, m.TS)
	b = binary.AppendUvarint(b, m.Clock)
	b = appendStr(b, m.Node)
	b = appendStr(b, m.Item)
	b = appendStr(b, m.Mode)
	b = appendStr(b, m.Impl)
	b = binary.AppendVarint(b, m.Arg)
	b = binary.AppendVarint(b, m.Wait)
	b = binary.AppendVarint(b, m.Value)
	b = binary.AppendUvarint(b, m.Seq)
	b = append(b, boolByte(m.OK)|boolByte(m.Commit)<<1)
	b = append(b, m.Code)
	b = appendStr(b, m.Err)
	return b
}

// Decode parses a message body produced by Encode.
func Decode(b []byte) (Message, error) {
	var m Message
	if len(b) == 0 {
		return m, fmt.Errorf("comm: empty message body")
	}
	m.Kind = Kind(b[0])
	if m.Kind == 0 || m.Kind >= kindMax {
		return m, fmt.Errorf("comm: unknown message kind %d", b[0])
	}
	d := decoder{b: b[1:]}
	m.From = d.str()
	m.ID = d.uvarint()
	m.Txn = d.str()
	attempt := d.uvarint()
	m.Attempt = uint32(attempt)
	m.TS = d.uvarint()
	m.Clock = d.uvarint()
	m.Node = d.str()
	m.Item = d.str()
	m.Mode = d.str()
	m.Impl = d.str()
	m.Arg = d.varint()
	m.Wait = d.varint()
	m.Value = d.varint()
	m.Seq = d.uvarint()
	flags := d.byte()
	m.OK = flags&1 != 0
	m.Commit = flags&2 != 0
	m.Code = d.byte()
	m.Err = d.str()
	if d.err != nil {
		return m, fmt.Errorf("comm: corrupt %s message: %w", m.Kind, d.err)
	}
	// A narrowed attempt would be deduplicated against the wrong attempt.
	if attempt > math.MaxUint32 {
		return m, fmt.Errorf("comm: corrupt %s message: attempt %d overflows 32 bits", m.Kind, attempt)
	}
	if flags&^3 != 0 {
		return m, fmt.Errorf("comm: corrupt %s message: undefined flag bits %#x", m.Kind, flags)
	}
	if len(d.b) != 0 {
		return m, fmt.Errorf("comm: %d trailing bytes in %s message", len(d.b), m.Kind)
	}
	return m, nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		if d.err == nil {
			d.err = fmt.Errorf("truncated byte field")
		}
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("truncated string (want %d bytes, have %d)", n, len(d.b))
		return ""
	}
	out := string(d.b[:n])
	d.b = d.b[n:]
	return out
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		if d.err == nil {
			d.err = fmt.Errorf("bad uvarint")
		}
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		if d.err == nil {
			d.err = fmt.Errorf("bad varint")
		}
		return 0
	}
	d.b = d.b[n:]
	return v
}
