package wal

import (
	"errors"
	"io/fs"
	"path/filepath"
	"sync"
	"testing"
)

// TruncateBefore edge cases hit by the distributed runtime's
// prepare/decision traffic: participant logs checkpoint and truncate
// while 2PC batches are still being appended concurrently.

// fillSegments appends n sample records through a small-segment log and
// returns the open log.
func fillSegments(t *testing.T, dir string, n int) *Log {
	t.Helper()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords(n) {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestTruncateBarrierBehindFirstSegment puts the barrier strictly behind
// the first surviving segment — once immediately (LSN 0/1 on a fresh
// log), then again after a real truncation has already moved the start
// of history. Both must be no-ops, not errors and not deletions.
func TestTruncateBarrierBehindFirstSegment(t *testing.T) {
	dir := t.TempDir()
	l := fillSegments(t, dir, 40)
	if n, err := l.TruncateBefore(0); err != nil || n != 0 {
		t.Fatalf("TruncateBefore(0) = (%d, %v), want (0, nil)", n, err)
	}

	// Anchor LSNs with a checkpoint, truncate for real, then aim the
	// barrier behind the new first segment.
	ckLSN, err := l.AppendCheckpoint(ckItems(1), Record{Meta: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := l.TruncateBefore(ckLSN); err != nil || n == 0 {
		t.Fatalf("real truncation = (%d, %v), want (>0, nil)", n, err)
	}
	after := segCount(t, dir)
	// History now starts mid-sequence; a barrier behind it must not
	// touch anything (the segments it names are already gone).
	for _, lsn := range []uint64{0, 1, 2, 5} {
		if n, err := l.TruncateBefore(lsn); err != nil || n != 0 {
			t.Fatalf("TruncateBefore(%d) after truncation = (%d, %v), want (0, nil)", lsn, n, err)
		}
	}
	if got := segCount(t, dir); got != after {
		t.Fatalf("segment count moved %d -> %d on a behind-history barrier", after, got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncateBarrierPastLastRecord aims the barrier beyond every
// appended LSN: only the current segment survives, the log stays
// appendable, and — because the checkpoint marker lives in the surviving
// segment — reopen still re-anchors absolute LSNs correctly.
func TestTruncateBarrierPastLastRecord(t *testing.T) {
	dir := t.TempDir()
	l := fillSegments(t, dir, 40)
	ckLSN, err := l.AppendCheckpoint(ckItems(1), Record{Meta: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := l.TruncateBefore(ckLSN + 1000); err != nil || n == 0 {
		t.Fatalf("past-end truncation = (%d, %v), want (>0, nil)", n, err)
	}
	if got := segCount(t, dir); got != 1 {
		t.Fatalf("%d segments survive a past-end barrier, want 1 (current only)", got)
	}
	// Idempotent: a second past-end barrier has nothing left to delete.
	if n, err := l.TruncateBefore(ckLSN + 2000); err != nil || n != 0 {
		t.Fatalf("repeat past-end truncation = (%d, %v), want (0, nil)", n, err)
	}
	lsn, err := l.Append(Record{Type: TypeDecision, Txn: "T-post", Mode: "commit"})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != ckLSN+1 {
		t.Fatalf("post-truncation LSN = %d, want %d", lsn, ckLSN+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, existing, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if existing == 0 {
		t.Fatal("reopen found no records in the surviving segment")
	}
	lsn2, err := l2.Append(Record{Type: TypeEnd, Txn: "T-post"})
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 != ckLSN+2 {
		t.Fatalf("post-reopen LSN = %d, want %d (anchor lost)", lsn2, ckLSN+2)
	}
}

// TestTruncateRacesAppendBatch truncates concurrently with AppendBatch
// writers (the 2PC decision batches of the distributed runtime) and
// checks, under -race and by scan, that no surviving batch is torn: for
// every batch whose first record survives truncation, all of its records
// survive, contiguous and in order.
func TestTruncateRacesAppendBatch(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 512, SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers       = 4
		batchesPer    = 30
		recsPerBatch  = 3
		truncateEvery = 10
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				txn := batchTxn(w, b)
				batch := make([]Record, recsPerBatch)
				for i := range batch {
					batch[i] = Record{Type: TypePrepare, Txn: txn, Node: nodeName(i), Seq: uint64(i)}
				}
				batch[recsPerBatch-1].Type = TypeDecision
				if _, err := l.AppendBatch(batch); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < truncateEvery; i++ {
			// Chase the tail: barrier at the current record count. Racing
			// appends can only make the real tail larger, so the current
			// segment rule keeps every in-flight batch safe.
			if _, err := l.TruncateBefore(l.Records()); err != nil {
				t.Errorf("truncate %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// No checkpoint marker was written, so ReadAll's absolute LSNs are
	// meaningless after truncation — but batch contiguity is checkable
	// from record adjacency alone.
	recs, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for i < len(recs) {
		txn := recs[i].Txn
		// A batch may have lost a prefix to truncation only if its whole
		// segment went; segment-granular truncation means we either see a
		// batch's full run or (at the scan start) its tail. Adjacent
		// records of one batch must share the txn and ascend by Seq.
		j := i
		for j < len(recs) && recs[j].Txn == txn {
			if j > i && recs[j].Seq != recs[j-1].Seq+1 {
				t.Fatalf("batch %s torn: seq %d follows %d at index %d", txn, recs[j].Seq, recs[j-1].Seq, j)
			}
			j++
		}
		if recs[j-1].Type != TypeDecision && j != len(recs) {
			t.Fatalf("batch %s interleaved or truncated mid-log: last type %v at index %d", txn, recs[j-1].Type, j-1)
		}
		i = j
	}
}

// TestNewRecordTypesRoundTrip checks the 2PC record kinds survive the
// codec and a reopen scan.
func TestNewRecordTypesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Type: TypePrepare, Txn: "T3", Node: "attempt-2", Comp: "bank", Seq: 17},
		{Type: TypeDecision, Txn: "T3", Mode: "commit"},
		{Type: TypeDecision, Txn: "T4", Mode: "abort"},
		{Type: TypeEnd, Txn: "T3"},
	}
	if _, err := l.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("scan found %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i].Type != want[i].Type || recs[i].Txn != want[i].Txn ||
			recs[i].Mode != want[i].Mode || recs[i].Seq != want[i].Seq {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
	for _, tt := range []Type{TypePrepare, TypeDecision, TypeEnd} {
		if s := tt.String(); s == "" || s[0] == 'T' {
			t.Fatalf("Type(%d).String() = %q, want a named kind", tt, s)
		}
	}
}

func batchTxn(w, b int) string { return "T" + string(rune('A'+w)) + "-" + itoa(b) }
func nodeName(i int) string    { return "n" + itoa(i) }
func itoa(n int) (out string) { // tiny positive-int formatter for test names
	if n == 0 {
		return "0"
	}
	for n > 0 {
		out = string(rune('0'+n%10)) + out
		n /= 10
	}
	return out
}

// TestSyncDirReportsErrors: the directory fsync behind segment creation
// and deletion reports its failure instead of dropping it.
func TestSyncDirReportsErrors(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir(existing) = %v, want nil", err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("syncDir(missing) = %v, want fs.ErrNotExist", err)
	}
}
