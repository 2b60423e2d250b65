// Package wal is the durable write-ahead log behind the composite
// runtime's crash recovery: an append-only, segmented, CRC-checked record
// log. The runtime (internal/sched) journals store applies, compensations
// and committed execution records through it before mutating volatile
// state, so a crash-abandoned run can be rebuilt — redo the committed
// work, undo the incomplete rest — and re-verified against Comp-C.
//
// Format. A log is a directory of segment files 00000001.seg, 00000002.seg,
// ... Each segment starts with an 8-byte magic and holds framed records:
//
//	[len uint32][crc32 uint32][body]   body = type byte + fields
//
// The CRC (IEEE, over the body) makes torn tails detectable: a crash may
// leave a half-written frame at the end of the last segment, which Open
// truncates and ReadAll skips. A bad frame anywhere else is corruption and
// is reported as an error, never silently dropped.
//
// Durability. Appends are buffered; Options.SyncEvery is the group-commit
// knob (fsync every Nth record). Abandon simulates a crash for tests and
// fault injection: buffered-but-unsynced bytes are dropped — exactly the
// OS-cache loss window group commit trades away — and an optional torn
// frame is left at the tail.
//
// Cross-transaction group commit. Force appends records and returns a
// completion channel instead of blocking the caller on its own fsync: a
// flush daemon coalesces every force request pending at flush time into
// one contiguous write + one fsync, and completes all of their waiters
// together. The fsync itself runs outside the log mutex, so while one
// fsync is in flight new forces keep appending and form the next cohort.
// Before it captures a cohort the daemon gathers it. With
// Options.GroupWindow zero (the default) it gathers by yielding (gather):
// no timer, a lone forcer pays one yield that finds nothing to run, and
// the batch grows with the run queue. With a GroupWindow it holds the
// window open that long instead, which trades commit latency for a batch
// that also collects committers not yet runnable at the kick.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	segMagic = "CTXWAL01"

	// defaultSegmentBytes rotates segments at 8 MiB.
	defaultSegmentBytes = 8 << 20

	// maxRecordBytes bounds a frame so a corrupt length field cannot
	// force a giant allocation.
	maxRecordBytes = 1 << 26

	frameHeaderLen = 8
)

// ErrClosed is returned by appends to a closed or crash-abandoned log.
var ErrClosed = errors.New("wal: log is closed")

// Options configures a log.
type Options struct {
	// SyncEvery is the group-commit knob: fsync after every Nth appended
	// record. 0 and 1 sync every record (maximum durability, the
	// default); N>1 amortizes the fsync over N records and can lose the
	// most recent unsynced records on a crash (recovery stays consistent,
	// it just sees a shorter history); negative values never fsync
	// (benchmark baseline; the OS still gets every flushed byte).
	SyncEvery int
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (0 = 8 MiB).
	SegmentBytes int64

	// GroupWindow holds the flush daemon open after a force request so
	// later requests can join the same fsync. 0 (the default) gathers by
	// yielding instead: the daemon lets every goroutine that is runnable
	// now reach its force point, then flushes, adding no timed wait.
	GroupWindow time.Duration
}

func (o Options) normalized() Options {
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	return o
}

// GroupStats counts the flush daemon's coalescing work.
type GroupStats struct {
	Forces        uint64 // Force calls accepted
	ForcedRecords uint64 // records appended through Force
	Windows       uint64 // flush windows (one fsync each) serving >=1 force
	MaxBatch      uint64 // most force waiters completed by a single window
}

// ScanInfo summarizes one scan of a log directory.
type ScanInfo struct {
	Segments  int
	Records   int
	TornBytes int64 // bytes of torn tail found (and skipped) in the last segment

	// FirstLSN is the absolute LSN of the first scanned record (0 when the
	// log is empty). It is 1 for an untruncated log; after TruncateBefore
	// has deleted older segments it is recovered from the self-anchoring
	// Ref of the last checkpoint marker.
	FirstLSN uint64
	// CheckpointLSN is the absolute LSN of the last complete checkpoint
	// marker, or 0 if the log holds none. Trailing ck-items without a
	// marker (a crash mid-checkpoint) do not move it.
	CheckpointLSN uint64
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; records are totally ordered by their returned LSN.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options

	f   *os.File
	seg int // current segment index (1-based)

	buf      []byte // unflushed frames (the "OS would lose this" window is synced..size)
	size     int64  // segment offset including buffered bytes
	flushed  int64  // segment offset written to the file
	synced   int64  // segment offset known durable (fsynced)
	lsn      uint64 // records appended over the log's lifetime
	sinceSyn int

	// flushedLSN and syncedLSN shadow flushed and synced in record units:
	// the last LSN written to the file, the last one known durable.
	flushedLSN uint64
	syncedLSN  atomic.Uint64

	// segs tracks the on-disk segments in index order, with the absolute
	// LSN of each segment's first record (or the next LSN to be written,
	// for the empty current segment). TruncateBefore uses it to decide
	// which segments are wholly older than a checkpoint.
	segs []segMeta

	// Group-commit state. waiters are the Force callers whose records sit
	// in the unsynced window; any successful syncLocked makes the whole
	// window durable, so every pending waiter completes on every sync —
	// including syncs triggered by SyncEvery, rotation or an explicit
	// Sync, not just the daemon's.
	waiters  []chan error
	gstats   GroupStats
	daemonOn bool
	daemonWG sync.WaitGroup
	kick     chan struct{} // buffered(1): work is pending
	stopc    chan struct{}

	closed    bool
	abandoned bool // Abandon ran: the unsynced tail was truncated away
}

type segMeta struct {
	idx   int    // segment index (file name)
	first uint64 // LSN of the segment's first record
}

// Scan is one read of a log directory: the valid records of every segment
// in order, the torn tail classified, absolute LSNs anchored. Open
// positions an append handle from it without reading the directory again,
// so a recovering node replays exactly the records its reopened log
// continues after: the first append returns Info.FirstLSN + len(Records).
type Scan struct {
	Records []Record // may share string data with each other, never with file bytes
	Info    ScanInfo

	segs  []segMeta // on-disk segments, each with the LSN of its first record
	tail  string    // path of the last segment
	valid int64     // offset of the first invalid byte in tail
}

var errNoSegments = errors.New("wal: no log segments")

// ScanDir reads the log in dir without touching it — the one scanner Open
// and ReadAll are faces of. A torn tail on the last segment is reported in
// Info and skipped; corruption anywhere else is an error, the first in log
// order. One buffer holds a segment at a time. A first pass counts whole
// frames, last segment first; the second starts on the segment still held
// and decodes, in log order and in place, into Records of that exact
// length. Records share string data through a per-scan table, never with
// the file bytes.
func ScanDir(dir string) (*Scan, error) {
	paths, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w in %q", errNoSegments, dir)
	}
	var largest int64
	for _, path := range paths {
		if fi, err := os.Stat(path); err == nil {
			largest = max(largest, fi.Size())
		}
	}
	sr := segReader{paths: paths, buf: make([]byte, 0, largest), loaded: -1}
	frames := 0
	for i := len(paths) - 1; i >= 0; i-- {
		n := 0
		if _, _, err := sr.walk(i, func([]byte) error { n++; return nil }); err != nil {
			frames = 0 // decoding stops in this segment
		}
		frames += n
	}
	s := &Scan{Records: make([]Record, 0, frames), Info: ScanInfo{Segments: len(paths)}, segs: make([]segMeta, 0, len(paths))}
	d := decoder{strs: make(map[string]string, frames)}
	// Anchor absolute LSNs: the record at scan index j has LSN base+j+1,
	// where base is the number of records truncated away before the first
	// surviving segment. An untruncated log has base 0; a truncated one
	// always retains its checkpoint marker, whose Ref is its own LSN.
	var base uint64
	decode := func(body []byte) error {
		s.Records = append(s.Records, Record{})
		r := &s.Records[len(s.Records)-1]
		if err := d.record(r, body); err != nil || r.Type != TypeCheckpoint {
			return err
		}
		n := uint64(len(s.Records))
		if r.Ref < n {
			return fmt.Errorf("checkpoint marker at index %d claims LSN %d", n-1, r.Ref)
		}
		base, s.Info.CheckpointLSN = r.Ref-n, r.Ref
		return nil
	}
	for i, path := range paths {
		s.segs = append(s.segs, segMeta{idx: segIndex(path), first: uint64(len(s.Records))})
		s.tail = path
		if s.valid, s.Info.TornBytes, err = sr.walk(i, decode); err != nil {
			return nil, err
		}
	}
	for i := range s.segs {
		s.segs[i].first += base + 1
	}
	s.Info.Records = len(s.Records)
	if len(s.Records) > 0 {
		s.Info.FirstLSN = base + 1
	}
	return s, nil
}

// ReadAll scans every record of the log in dir without opening it for
// appending: ScanDir's records and summary.
func ReadAll(dir string) ([]Record, ScanInfo, error) {
	s, err := ScanDir(dir)
	if err != nil {
		return nil, ScanInfo{}, err
	}
	return s.Records, s.Info, nil
}

// Open opens (creating if necessary) the log in dir and positions it for
// appending. Existing segments are scanned, a torn tail on the last
// segment is physically truncated, and the number of valid records on
// disk is returned (0 means a fresh log). When older segments have been
// deleted by TruncateBefore, the lifetime LSN is re-anchored from the
// self-referencing Ref of the last checkpoint marker, so LSNs stay stable
// across truncation and reopen.
func Open(dir string, opts Options) (*Log, uint64, error) {
	if dir == "" {
		return nil, 0, errors.New("wal: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	s, err := ScanDir(dir)
	if errors.Is(err, errNoSegments) {
		l := &Log{dir: dir, opts: opts.normalized()}
		if err := l.createSegment(1); err != nil {
			return nil, 0, err
		}
		return l, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	l, err := s.Open(opts)
	return l, uint64(len(s.Records)), err
}

// Open positions a log for appending after the scanned records, physically
// truncating the torn tail. The directory must not have been written since
// the scan, and a scan opens once.
func (s *Scan) Open(opts Options) (*Log, error) {
	if err := os.Truncate(s.tail, s.valid); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.tail, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if s.valid == 0 {
		// A crash during segment creation tore the header itself: without
		// it, the next scan would take everything appended here for torn.
		s.valid = int64(len(segMagic))
		_, err = f.Write([]byte(segMagic))
	} else {
		_, err = f.Seek(s.valid, 0)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l := &Log{dir: filepath.Dir(s.tail), opts: opts.normalized(), f: f, segs: s.segs}
	l.seg = s.segs[len(s.segs)-1].idx
	l.size, l.flushed, l.synced = s.valid, s.valid, s.valid
	l.lsn = s.segs[0].first - 1 + uint64(len(s.Records))
	l.flushedLSN = l.lsn
	l.syncedLSN.Store(l.lsn)
	return l, nil
}

// Append journals one record, returning its LSN (1-based, monotone across
// segments). Durability follows Options.SyncEvery.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec)
}

// AppendBatch journals the records contiguously (no interleaving with
// concurrent appenders) and returns the LSN of the first. The commit
// batches of the runtime use this so a commit record always directly
// follows its node and event records.
func (l *Log) AppendBatch(recs []Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first uint64
	for i, rec := range recs {
		lsn, err := l.appendLocked(rec)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = lsn
		}
	}
	return first, nil
}

// AppendCheckpoint journals one checkpoint batch contiguously: the store
// snapshot items (TypeCkItem) followed by the completing marker. The
// marker's Ref is backfilled with its own LSN before encoding — the
// checkpoint anchors itself, which is how Open and ReadAll restore
// absolute LSNs once TruncateBefore has deleted older segments. The batch
// is fsynced before returning: a checkpoint only exists once durable.
// Returns the marker's LSN.
func (l *Log) AppendCheckpoint(items []Record, marker Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range items {
		rec.Type = TypeCkItem
		if _, err := l.appendLocked(rec); err != nil {
			return 0, err
		}
	}
	marker.Type = TypeCheckpoint
	marker.Ref = l.lsn + 1
	lsn, err := l.appendLocked(marker)
	if err != nil {
		return 0, err
	}
	if err := l.syncLocked(); err != nil {
		return 0, err
	}
	return lsn, nil
}

// TruncateBefore deletes segments whose records are all older than lsn —
// i.e. wholly covered by a durable checkpoint at lsn. The segment holding
// lsn and everything after it survive, as does the current segment.
// Returns the number of segments deleted. LSNs are unaffected: they are
// re-anchored from the checkpoint marker on the next Open.
func (l *Log) TruncateBefore(lsn uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	deleted := 0
	for len(l.segs) > 1 && l.segs[0].idx != l.seg {
		// The first segment's last LSN is segs[1].first-1; delete it only
		// when that is still below lsn.
		if l.segs[1].first > lsn {
			break
		}
		path := filepath.Join(l.dir, segmentName(l.segs[0].idx))
		if err := os.Remove(path); err != nil {
			return deleted, err
		}
		l.segs = l.segs[1:]
		deleted++
	}
	if deleted > 0 {
		return deleted, syncDir(l.dir)
	}
	return deleted, nil
}

func (l *Log) appendLocked(rec Record) (uint64, error) {
	lsn, err := l.appendRawLocked(rec)
	if err != nil {
		return 0, err
	}
	if l.opts.SyncEvery > 0 && l.sinceSyn >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// appendRawLocked frames the record into the buffer without applying the
// SyncEvery policy — Force uses it so the flush daemon, not the appender,
// pays the fsync.
func (l *Log) appendRawLocked(rec Record) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	n := len(l.buf)
	l.buf = appendFrame(l.buf, rec)
	l.size += int64(len(l.buf) - n)
	l.lsn++
	l.sinceSyn++
	return l.lsn, nil
}

// Force appends recs contiguously and returns a channel that receives
// exactly one error once the outcome is known: nil only after every
// appended record is durable (fsynced), non-nil if the append failed, the
// sync failed, or the log was closed/abandoned with the flush pending —
// never a false durability ack. The flush daemon coalesces all forces
// pending at flush time into one contiguous write + a single fsync, so N
// concurrent forcers share O(1) fsyncs. A nil or empty recs forces the
// log's current tail: the channel completes once everything appended so
// far is durable.
func (l *Log) Force(recs []Record) <-chan error {
	ch := make(chan error, 1)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ch <- ErrClosed
		return ch
	}
	for _, rec := range recs {
		if _, err := l.appendRawLocked(rec); err != nil {
			l.mu.Unlock()
			ch <- err
			return ch
		}
	}
	l.waiters = append(l.waiters, ch)
	l.gstats.Forces++
	l.gstats.ForcedRecords += uint64(len(recs))
	l.startDaemonLocked()
	kick := l.kick
	l.mu.Unlock()
	select {
	case kick <- struct{}{}:
	default:
	}
	return ch
}

// GroupStats reports the flush daemon's cumulative coalescing counters.
func (l *Log) GroupStats() GroupStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gstats
}

func (l *Log) startDaemonLocked() {
	if l.daemonOn {
		return
	}
	l.daemonOn = true
	l.kick = make(chan struct{}, 1)
	l.stopc = make(chan struct{})
	l.daemonWG.Add(1)
	go l.flushDaemon()
}

// gatherRounds bounds the yields of one gather: a cohort still growing
// after this many is collecting chains of wake-ups, not committers that
// were runnable at the kick.
const gatherRounds = 8

// flushDaemon serves Force requests: after a kick it gathers the cohort —
// by holding GroupWindow open, or by yielding when there is none — then
// flushes it as one window.
func (l *Log) flushDaemon() {
	defer l.daemonWG.Done()
	for {
		select {
		case <-l.stopc:
			return
		case <-l.kick:
		}
		if w := l.opts.GroupWindow; w > 0 {
			t := time.NewTimer(w)
			select {
			case <-l.stopc:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			l.gather()
		}
		l.flushGroup()
	}
}

// gather yields the processor while the pending cohort grows: every
// goroutine runnable now runs before Gosched returns, so each committer
// on its way to a force point joins this window instead of paying for the
// next one. A yield that adds no waiter ends the gather.
func (l *Log) gather() {
	n := -1
	for round := 0; round < gatherRounds; round++ {
		l.mu.Lock()
		m := len(l.waiters)
		l.mu.Unlock()
		if m == n {
			return
		}
		n = m
		runtime.Gosched()
	}
}

// flushGroup serves one window. The pending cohort is captured and its
// bytes written to the segment file under the mutex (cheap); the fsync
// runs with the mutex RELEASED, so concurrent forces keep appending and
// accumulate into the next window while the disk works — the pipelining
// that makes natural batching actually batch. After the fsync the cohort
// completes with the outcome, reconciled under the mutex against
// whatever raced with it:
//
//   - rotation closed the captured segment: rotateLocked fsyncs before it
//     closes, so the cohort was durable first and a Sync error on the dead
//     fd is ignored;
//   - Close fsynced and closed the fd: same reasoning, l.synced already
//     covers the cohort;
//   - Abandon truncated the unsynced tail: the cohort's records are gone
//     regardless of what our Sync returned, so the waiters get ErrClosed —
//     never a false durability ack.
func (l *Log) flushGroup() {
	l.mu.Lock()
	if l.closed || len(l.waiters) == 0 {
		l.mu.Unlock()
		return
	}
	waiters := l.waiters
	l.waiters = nil
	l.gstats.Windows++
	if n := uint64(len(waiters)); n > l.gstats.MaxBatch {
		l.gstats.MaxBatch = n
	}
	err := l.flushLocked()
	f, seg, target, targetLSN := l.f, l.seg, l.flushed, l.flushedLSN
	needSync := err == nil && l.synced < target
	l.mu.Unlock()

	if needSync {
		serr := f.Sync()
		l.mu.Lock()
		switch {
		case l.abandoned:
			err = ErrClosed
		case serr == nil:
			if l.seg == seg && target > l.synced {
				l.synced = target
				l.syncedLSN.Store(targetLSN)
			}
		case l.seg != seg || l.synced >= target:
			// Another sync path already made the cohort durable before our
			// Sync failed on the rotated-away or closed fd.
		default:
			err = serr
		}
		l.mu.Unlock()
	}
	for _, ch := range waiters {
		ch <- err
	}
}

// Sync flushes buffered frames and fsyncs the current segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.flushed = l.size
	l.flushedLSN = l.lsn
	l.buf = l.buf[:0]
	return nil
}

// syncLocked flushes the whole buffer and fsyncs. Because the buffer is
// drained in append order, a successful sync makes every previously
// appended record durable — so all pending Force waiters complete here,
// whichever path triggered the sync (daemon window, SyncEvery, rotation,
// explicit Sync, Close). On failure the waiters get the error: durability
// is unknown, and recovery decides.
func (l *Log) syncLocked() error {
	err := l.doSyncLocked()
	if len(l.waiters) > 0 {
		for _, ch := range l.waiters {
			ch <- err
		}
		l.waiters = nil
	}
	return err
}

func (l *Log) doSyncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.synced == l.flushed {
		l.sinceSyn = 0
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.synced = l.flushed
	l.syncedLSN.Store(l.flushedLSN)
	l.sinceSyn = 0
	return nil
}

// rotateLocked switches to a fresh segment. The old file is closed only
// once the new one exists, so a failed creation (disk full, a name
// collision) fails this append and leaves the log appendable: the next
// append retries the rotation.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	old := l.f
	if err := l.createSegment(l.seg + 1); err != nil {
		return err
	}
	return old.Close()
}

func (l *Log) createSegment(idx int) error {
	path := filepath.Join(l.dir, segmentName(idx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := errors.Join(f.Sync(), syncDir(l.dir)); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.seg = idx
	l.buf = l.buf[:0]
	l.size, l.flushed, l.synced = int64(len(segMagic)), int64(len(segMagic)), int64(len(segMagic))
	l.segs = append(l.segs, segMeta{idx: idx, first: l.lsn + 1})
	return nil
}

// Close flushes, fsyncs and closes the log. Pending Force waiters
// complete through the final sync; the flush daemon is stopped.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	daemonOn := l.daemonOn
	if daemonOn {
		close(l.stopc)
	}
	l.mu.Unlock()
	if daemonOn {
		l.daemonWG.Wait()
	}
	return err
}

// Abandon simulates a process crash: buffered records that were never
// fsynced are dropped (the file is truncated back to the last durable
// offset — the loss window Options.SyncEvery opens), an optional torn
// frame prefix of rec is left at the tail (a write caught mid-page), and
// the log is closed. Every later Append returns ErrClosed. The returned
// error reports filesystem failures while staging the crash image — the
// simulated crash still happened, but the on-disk state may not match the
// intended loss window.
func (l *Log) Abandon(torn *Record) error {
	l.mu.Lock()
	defer func() {
		daemonOn := l.daemonOn
		l.mu.Unlock()
		if daemonOn {
			l.daemonWG.Wait()
		}
	}()
	if l.closed {
		return nil
	}
	l.closed = true
	l.abandoned = true
	l.buf = nil
	// A crash with a group flush pending: the records are gone, so the
	// waiters must see an error — never a false durability ack. A cohort
	// whose fsync is in flight right now (captured by flushGroup) is
	// failed by the daemon's abandoned check instead.
	for _, ch := range l.waiters {
		ch <- ErrClosed
	}
	l.waiters = nil
	if l.daemonOn {
		close(l.stopc)
	}
	err := l.f.Truncate(l.synced)
	if torn != nil {
		frame := appendFrame(nil, *torn)
		cut := frameHeaderLen + (len(frame)-frameHeaderLen)/2
		if cut >= len(frame) {
			cut = len(frame) - 1
		}
		if _, werr := l.f.WriteAt(frame[:cut], l.synced); err == nil {
			err = werr
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Records returns the number of records appended (or recovered at Open)
// over the log's lifetime.
func (l *Log) Records() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// SyncedLSN returns the durable watermark: every record with an LSN at or
// below it has been fsynced. It only means something within one life of
// the log — Abandon drops the unsynced tail and the next Open hands the
// dropped LSNs out again.
func (l *Log) SyncedLSN() uint64 { return l.syncedLSN.Load() }

// segReader reads a log's segments into one buffer, one segment at a time.
type segReader struct {
	paths   []string
	buf     []byte // the loaded segment; its capacity, the largest segment's size
	loaded  int    // index of the loaded segment, -1 for none
	checked int64  // buf[:checked] is whole frames whose CRCs matched
}

// load reads segment i into the buffer, unless it is there already.
func (sr *segReader) load(i int) ([]byte, error) {
	if i == sr.loaded {
		return sr.buf, nil
	}
	sr.loaded, sr.checked = -1, 0
	f, err := os.Open(sr.paths[i])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	sr.buf = slices.Grow(sr.buf[:0], int(fi.Size()))[:fi.Size()]
	if _, err := io.ReadFull(f, sr.buf); err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", sr.paths[i], err)
	}
	sr.loaded = i
	return sr.buf, nil
}

// walk checks the frames of segment i in order, handing each whole one's
// body to fn. It returns the offset of the first invalid byte (= file size
// when the segment is fully valid) and the number of torn bytes after it.
// Invalid frames in a non-final segment are corruption, as is an fn error.
func (sr *segReader) walk(i int, fn func(body []byte) error) (valid, torn int64, err error) {
	raw, err := sr.load(i)
	if err != nil {
		return 0, 0, err
	}
	path, last := sr.paths[i], i == len(sr.paths)-1
	if len(raw) < len(segMagic) || string(raw[:len(segMagic)]) != segMagic {
		if last {
			// A crash during segment creation can leave a partial header;
			// the whole file is a torn tail.
			return 0, int64(len(raw)), nil
		}
		return 0, 0, fmt.Errorf("wal: %s: bad segment header", path)
	}
	off := int64(len(segMagic))
	for off < int64(len(raw)) {
		// A frame is whole when its header fits, its length is sane and
		// within the file, and its body matches the CRC; anything else is
		// where the valid prefix ends.
		rest, whole := raw[off:], false
		var body []byte
		if len(rest) >= frameHeaderLen {
			if ln := binary.LittleEndian.Uint32(rest); ln <= maxRecordBytes && frameHeaderLen+int64(ln) <= int64(len(rest)) {
				body = rest[frameHeaderLen : frameHeaderLen+int64(ln)]
				whole = off < sr.checked || crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(rest[4:])
			}
		}
		if !whole {
			if !last {
				return 0, 0, fmt.Errorf("wal: %s: corrupt record at offset %d in non-final segment", path, off)
			}
			return off, int64(len(rest)), nil
		}
		if err := fn(body); err != nil {
			return 0, 0, fmt.Errorf("wal: %s at offset %d: %w", path, off, err)
		}
		off += frameHeaderLen + int64(len(body))
		sr.checked = max(sr.checked, off)
	}
	return off, 0, nil
}

func segmentName(idx int) string { return fmt.Sprintf("%08d.seg", idx) }

func segIndex(path string) int {
	base := strings.TrimSuffix(filepath.Base(path), ".seg")
	n := 0
	fmt.Sscanf(base, "%d", &n)
	return n
}

func segmentFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("wal: no log at %q", dir)
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".seg") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}

// syncDir fsyncs a directory so a segment file's creation or deletion
// survives a crash of the directory entry itself.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
