package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Type names a WAL record kind. The log is typed so recovery can rebuild
// both halves of the runtime's volatile state: the data stores (from
// applies, compensations and their cancellation records) and the recorded
// execution (from node/event/commit records), without guessing at byte
// payloads.
type Type uint8

const (
	// TypeMeta is the first record of every log: an opaque header blob
	// (the runtime serializes its topology and protocol into it) that
	// recovery uses to rebuild the component configuration.
	TypeMeta Type = 1 + iota
	// TypeSeed is one baseline store item captured when the WAL is
	// attached: recovery replays seeds before any apply, so pre-loaded
	// balances survive a crash.
	TypeSeed
	// TypeApply journals one state-mutating store operation before it
	// executes: component, op (semantic mode, item, arg, physical impl)
	// and the before-value needed to invert it.
	TypeApply
	// TypeApplyFail cancels an earlier TypeApply whose store execution
	// failed after journaling (fault injection vetoed it): recovery must
	// not replay the referenced apply.
	TypeApplyFail
	// TypeComp journals one compensation (the inverse operation actually
	// applied during rollback), referencing the TypeApply it undoes.
	TypeComp
	// TypeQuarantine supersedes a TypeComp whose execution failed
	// permanently: the forward effect leaked, recovery must keep the
	// referenced apply un-compensated and re-report the quarantine.
	TypeQuarantine
	// TypeNode declares one forest node of a committed transaction
	// (written in the commit batch).
	TypeNode
	// TypeEvent is one granted semantic operation of a committed
	// transaction, with the global sequence number fixing conflict order.
	TypeEvent
	// TypeCommit terminates a commit batch; a transaction is recovered
	// as committed iff its TypeCommit record is durable.
	TypeCommit
	// TypeAbort marks a root transaction as permanently rolled back
	// (client abort, retry-budget exhaustion, or a recovery undo pass):
	// its applies are already neutralized by journaled compensations.
	TypeAbort
	// TypeCkItem is one store item of a checkpoint snapshot: the durable
	// value of Comp/Item at the checkpoint cut. Recovery seeds stores from
	// the last complete checkpoint's items instead of segment zero. A run
	// of ck-items without a following TypeCheckpoint marker is an
	// incomplete checkpoint (crash mid-checkpoint) and is ignored.
	TypeCkItem
	// TypeCheckpoint completes a checkpoint batch. Its Ref field holds the
	// record's own LSN — checkpoints are self-anchoring, which is how Open
	// restores absolute LSNs after older segments are truncated away. Its
	// Meta blob carries the runtime's checkpoint header (configuration,
	// clock, cumulative counters).
	TypeCheckpoint
	// TypePrepare is the participant half of presumed-abort 2PC: forced
	// before the participant votes yes. Txn/Node carry the transaction
	// and attempt, Seq carries the root's wait-die timestamp so recovery
	// can re-acquire locks for the in-doubt transaction at the right
	// priority. A prepared transaction with no following TypeDecision is
	// in doubt and must run the termination protocol (query the
	// coordinator) before its locks can be released.
	TypePrepare
	// TypeDecision records a 2PC outcome. On the coordinator it is the
	// forced commit decision (Mode "commit"; aborts are presumed and
	// never logged). On a participant it is forced before acking a
	// Decide message (Mode "commit" or "abort"), making the ack claim
	// durable.
	TypeDecision
	// TypeEnd is the coordinator's non-forced note that every
	// participant acked a decision: the transaction needs no re-delivery
	// after coordinator recovery. Decisions without a TypeEnd are
	// re-delivered.
	TypeEnd

	typeMax
)

func (t Type) String() string {
	switch t {
	case TypeMeta:
		return "meta"
	case TypeSeed:
		return "seed"
	case TypeApply:
		return "apply"
	case TypeApplyFail:
		return "apply-fail"
	case TypeComp:
		return "comp"
	case TypeQuarantine:
		return "quarantine"
	case TypeNode:
		return "node"
	case TypeEvent:
		return "event"
	case TypeCommit:
		return "commit"
	case TypeAbort:
		return "abort"
	case TypeCkItem:
		return "ck-item"
	case TypeCheckpoint:
		return "checkpoint"
	case TypePrepare:
		return "prepare"
	case TypeDecision:
		return "decision"
	case TypeEnd:
		return "end"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Record is one typed log entry. The struct is a flat union: every type
// uses the subset of fields it needs and leaves the rest zero, which keeps
// the codec branch-free (all fields are always encoded, empties cost one
// byte each).
type Record struct {
	Type Type

	Meta []byte // TypeMeta: opaque header blob

	Txn    string // root transaction the record belongs to
	Node   string // forest node / step id
	Parent string // TypeNode: parent node id ("" for roots); TypeEvent: parent transaction
	Sched  string // TypeNode: schedule (component) for transactions, "" for leaves
	Comp   string // component of an apply/comp/seed/event

	Item string // store item or semantic item
	Mode string // semantic mode
	Impl string // physical implementation mode ("" = Mode itself)
	Arg  int64  // operation argument
	Prev int64  // TypeApply: before-value (undo info); TypeSeed: the value

	Seq uint64 // TypeEvent: global conflict sequence number
	Ref uint64 // LSN of the TypeApply a comp/fail/quarantine refers to
}

// appendBody serializes the record body (type byte + fields) onto b.
func appendBody(b []byte, r Record) []byte {
	b = append(b, byte(r.Type))
	b = appendBlob(b, r.Meta)
	b = appendStr(b, r.Txn)
	b = appendStr(b, r.Node)
	b = appendStr(b, r.Parent)
	b = appendStr(b, r.Sched)
	b = appendStr(b, r.Comp)
	b = appendStr(b, r.Item)
	b = appendStr(b, r.Mode)
	b = appendStr(b, r.Impl)
	b = binary.AppendVarint(b, r.Arg)
	b = binary.AppendVarint(b, r.Prev)
	b = binary.AppendUvarint(b, r.Seq)
	b = binary.AppendUvarint(b, r.Ref)
	return b
}

// appendFrame serializes one framed record directly onto b: the 8-byte
// header is reserved first, the body is encoded in place behind it, and
// the length and CRC are backfilled over the reserved bytes. Encoding
// straight into the caller's buffer (the log's write buffer) avoids a
// per-record scratch encode plus copy.
func appendFrame(b []byte, r Record) []byte {
	hdr := len(b)
	var zero [frameHeaderLen]byte
	b = append(b, zero[:]...)
	b = appendBody(b, r)
	body := b[hdr+frameHeaderLen:]
	binary.LittleEndian.PutUint32(b[hdr:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[hdr+4:], crc32.ChecksumIEEE(body))
	return b
}

// decodeBody parses a record body. A decode failure on a CRC-valid frame
// is real corruption (or a format mismatch), never a torn tail.
func decodeBody(b []byte) (r Record, err error) {
	err = new(decoder).record(&r, b)
	return r, err
}

// record decodes the body b into r, as decodeBody does.
func (d *decoder) record(r *Record, b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("wal: empty record body")
	}
	r.Type = Type(b[0])
	if r.Type == 0 || r.Type >= typeMax {
		return fmt.Errorf("wal: unknown record type %d", b[0])
	}
	d.b, d.err = b[1:], nil
	r.Meta = d.blob()
	r.Txn = d.str()
	r.Node = d.str()
	r.Parent = d.str()
	r.Sched = d.str()
	r.Comp = d.str()
	r.Item = d.str()
	r.Mode = d.str()
	r.Impl = d.str()
	r.Arg = d.varint()
	r.Prev = d.varint()
	r.Seq = d.uvarint()
	r.Ref = d.uvarint()
	if d.err != nil {
		return fmt.Errorf("wal: corrupt %s record: %w", r.Type, d.err)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wal: %d trailing bytes in %s record", len(d.b), r.Type)
	}
	return nil
}

func appendBlob(b, blob []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(blob)))
	return append(b, blob...)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder reads a record body's fields. Nothing it returns aliases the body:
// a blob is a private copy, a string one copy — with a table, one per
// distinct string, shared by the records decoded through it.
type decoder struct {
	b    []byte
	err  error
	strs map[string]string // nil: every string is its own copy
}

// field returns the next length-prefixed field, aliasing the body.
func (d *decoder) field() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("truncated field (want %d bytes, have %d)", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) blob() []byte {
	if out := d.field(); len(out) > 0 {
		return append([]byte(nil), out...)
	}
	return nil
}

func (d *decoder) str() string {
	b := d.field()
	if d.strs == nil || len(b) == 0 {
		return string(b)
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
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
