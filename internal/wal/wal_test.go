package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			recs = append(recs, Record{
				Type: TypeApply, Txn: fmt.Sprintf("T%d", i), Node: fmt.Sprintf("T%d.s1", i),
				Comp: "bank", Item: "acct", Mode: "incr", Impl: "incr", Arg: int64(i), Prev: int64(100 - i),
			})
		case 1:
			recs = append(recs, Record{
				Type: TypeEvent, Txn: fmt.Sprintf("T%d", i), Node: fmt.Sprintf("T%d.s1", i),
				Parent: fmt.Sprintf("T%d", i), Comp: "bank", Item: "acct", Mode: "incr", Seq: uint64(i + 1),
			})
		case 2:
			recs = append(recs, Record{Type: TypeCommit, Txn: fmt.Sprintf("T%d", i)})
		default:
			recs = append(recs, Record{Type: TypeComp, Txn: fmt.Sprintf("T%d", i),
				Comp: "bank", Item: "acct", Mode: "incr", Arg: -int64(i), Ref: uint64(i)})
		}
	}
	return recs
}

// TestRoundTrip appends records, closes, and reads them back verbatim.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, existing, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if existing != 0 {
		t.Fatalf("fresh log reports %d existing records", existing)
	}
	want := sampleRecords(23)
	want = append(want, Record{Type: TypeMeta, Meta: []byte(`{"version":1}`)})
	for i, rec := range want {
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("record %d got LSN %d", i, lsn)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, info, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.TornBytes != 0 || info.Records != len(want) {
		t.Fatalf("scan info %+v, want %d records, 0 torn", info, len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestReopenAppend closes a log, reopens it, appends more, and sees the
// concatenation with monotone LSNs.
func TestReopenAppend(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := sampleRecords(7)
	for _, rec := range first {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, existing, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if existing != 7 {
		t.Fatalf("reopen reports %d existing records, want 7", existing)
	}
	second := sampleRecords(5)
	for i, rec := range second {
		lsn, err := l2.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(7+i+1) {
			t.Fatalf("post-reopen record %d got LSN %d", i, lsn)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("got %d records, want 12", len(got))
	}
	if !reflect.DeepEqual(got[:7], first) || !reflect.DeepEqual(got[7:], second) {
		t.Fatal("reopened log does not concatenate the two sessions")
	}
}

// TestTornTail appends garbage half-frames to the last segment and checks
// both ReadAll (skips, reports TornBytes) and Open (physically truncates).
func TestTornTail(t *testing.T) {
	cases := []struct {
		name string
		tear func([]byte) []byte // valid frame -> bytes actually appended
	}{
		{"short-header", func(frame []byte) []byte { return frame[:3] }},
		{"short-body", func(frame []byte) []byte { return frame[:len(frame)-2] }},
		{"bad-crc", func(frame []byte) []byte {
			out := append([]byte(nil), frame...)
			out[len(out)-1] ^= 0xff
			return out
		}},
		{"giant-length", func(frame []byte) []byte {
			out := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(out[0:], maxRecordBytes+1)
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := sampleRecords(9)
			for _, rec := range want {
				if _, err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			// Craft one more valid frame, then append a torn variant of it.
			body := appendBody(nil, Record{Type: TypeCommit, Txn: "Ttorn"})
			frame := make([]byte, frameHeaderLen, frameHeaderLen+len(body))
			binary.LittleEndian.PutUint32(frame[0:], uint32(len(body)))
			binary.LittleEndian.PutUint32(frame[4:], crcOf(body))
			frame = append(frame, body...)
			seg := filepath.Join(dir, segmentName(1))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			torn := tc.tear(frame)
			if _, err := f.Write(torn); err != nil {
				t.Fatal(err)
			}
			f.Close()

			got, info, err := ReadAll(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("ReadAll returned %d records, want %d", len(got), len(want))
			}
			if info.TornBytes != int64(len(torn)) {
				t.Fatalf("TornBytes = %d, want %d", info.TornBytes, len(torn))
			}

			// Open truncates the tear and appending afterwards works.
			l2, existing, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if existing != uint64(len(want)) {
				t.Fatalf("Open reports %d records, want %d", existing, len(want))
			}
			if _, err := l2.Append(Record{Type: TypeAbort, Txn: "Tafter"}); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got2, info2, err := ReadAll(dir)
			if err != nil {
				t.Fatal(err)
			}
			if info2.TornBytes != 0 {
				t.Fatalf("torn bytes survived Open: %d", info2.TornBytes)
			}
			if len(got2) != len(want)+1 || got2[len(got2)-1].Txn != "Tafter" {
				t.Fatalf("post-truncation append lost: %d records", len(got2))
			}
		})
	}
}

// TestTornSegmentHeader crashes a rotation between creating the next
// segment and writing its header: reopening must leave a segment the next
// scan still reads, not one whose records it takes for a torn tail.
func TestTornSegmentHeader(t *testing.T) {
	for _, header := range []string{"", segMagic[:3]} {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := sampleRecords(5)
		if _, err := l.AppendBatch(want); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(2)), []byte(header), 0o644); err != nil {
			t.Fatal(err)
		}
		l, existing, err := Open(dir, Options{})
		if err != nil || existing != 5 {
			t.Fatalf("header %q: Open = %d records, %v; want 5", header, existing, err)
		}
		after := Record{Type: TypeAbort, Txn: "Tafter"}
		if lsn, err := l.Append(after); err != nil || lsn != 6 {
			t.Fatalf("header %q: append after reopen = LSN %d, %v; want 6", header, lsn, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, info, err := ReadAll(dir)
		if err != nil || info.TornBytes != 0 || !reflect.DeepEqual(got, append(want, after)) {
			t.Fatalf("header %q: rescan found %d records, %d torn bytes, %v; want 6, 0", header, len(got), info.TornBytes, err)
		}
	}
}

// TestAbandonDropsUnsynced checks the group-commit loss window: with
// SyncEvery=4, Abandon after 10 appends must keep exactly the 8 synced
// records and drop the 2 buffered ones.
func TestAbandonDropsUnsynced(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(10)
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Abandon(nil)
	if _, err := l.Append(Record{Type: TypeCommit}); err != ErrClosed {
		t.Fatalf("append after Abandon: %v, want ErrClosed", err)
	}
	got, info, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("after abandon: %d records survive, want 8 (synced prefix)", len(got))
	}
	if info.TornBytes != 0 {
		t.Fatalf("abandon without tear left %d torn bytes", info.TornBytes)
	}
	if !reflect.DeepEqual(got, recs[:8]) {
		t.Fatal("surviving records are not the synced prefix")
	}
}

// TestAbandonTornRecord leaves a half-written frame at the tail; ReadAll
// must report it and Open must truncate it.
func TestAbandonTornRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(5)
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Abandon(&Record{Type: TypeApply, Txn: "Ttear", Comp: "bank", Item: "acct", Mode: "incr", Arg: 7})
	got, info, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("%d records survive the tear, want 5", len(got))
	}
	if info.TornBytes == 0 {
		t.Fatal("Abandon(torn) left no torn bytes")
	}
	l2, existing, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if existing != 5 {
		t.Fatalf("Open after tear reports %d records, want 5", existing)
	}
	l2.Close()
}

// TestMidLogCorruption flips a byte in a non-final segment: that is real
// corruption, not a torn tail, and must be an error.
func TestMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords(64) {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadAll(dir); err == nil {
		t.Fatal("ReadAll accepted a corrupt non-final segment")
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	}
}

// TestSegmentRotation writes past several rotation points and checks that
// records and LSNs are continuous across segment files.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 200, SyncEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords(120)
	for i, rec := range want {
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("LSN discontinuity at %d: got %d", i, lsn)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, info, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Segments < 3 {
		t.Fatalf("rotation produced only %d segments", info.Segments)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation lost or reordered records: %d vs %d", len(got), len(want))
	}

	// Reopen after rotation continues in the last segment.
	l2, existing, err := Open(dir, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	if existing != uint64(len(want)) {
		t.Fatalf("reopen after rotation reports %d records", existing)
	}
	if _, err := l2.Append(Record{Type: TypeCommit, Txn: "Tlast"}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got2, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(want)+1 {
		t.Fatalf("append after rotated reopen lost records: %d", len(got2))
	}
}

// TestFailedRotationLeavesLogAppendable squats a directory on the next
// segment's name: the append that has to rotate fails, nothing is lost,
// and once the name is free the next append rotates and the log reads
// back gap-free.
func TestFailedRotationLeavesLogAppendable(t *testing.T) {
	dir := t.TempDir()
	// One byte per segment: every append rotates first, so the record
	// with LSN n lands in segment n+1.
	l, _, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords(5)
	for _, rec := range want[:3] {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	squat := filepath.Join(dir, segmentName(5))
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(want[3]); err == nil {
		t.Fatal("append rotated onto a name a directory holds")
	}
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	for i, rec := range want[3:] {
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatalf("append after the failed rotation: %v", err)
		}
		if lsn != uint64(4+i) {
			t.Fatalf("LSN %d after the failed rotation, want %d", lsn, 4+i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log after a failed rotation:\n got %+v\nwant %+v", got, want)
	}
}

// TestDecodeRejectsUnknownType ensures forward-compat failures are loud.
func TestDecodeRejectsUnknownType(t *testing.T) {
	if _, err := decodeBody([]byte{byte(typeMax)}); err == nil {
		t.Fatal("decodeBody accepted an unknown type")
	}
	if _, err := decodeBody(nil); err == nil {
		t.Fatal("decodeBody accepted an empty body")
	}
	body := appendBody(nil, Record{Type: TypeApply, Txn: "T1", Item: "x"})
	if _, err := decodeBody(body[:len(body)-1]); err == nil {
		t.Fatal("decodeBody accepted a truncated body")
	}
	if _, err := decodeBody(append(body, 0)); err == nil {
		t.Fatal("decodeBody accepted trailing bytes")
	}
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func BenchmarkWALAppend(b *testing.B) {
	rec := Record{
		Type: TypeApply, Txn: "T42", Node: "T42.s2", Comp: "bank",
		Item: "acct-17", Mode: "incr", Impl: "incr", Arg: -25, Prev: 975,
	}
	for _, bc := range []struct {
		name string
		sync int
	}{
		{"sync=1", 1},
		{"sync=64", 64},
		{"sync=none", -1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			l, _, err := Open(dir, Options{SyncEvery: bc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
