package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// FuzzScanSegment feeds the frame scanner arbitrary bytes after the
// segment magic — a log's last segment is whatever a crash left there.
// Whatever they are: no panic, no allocation driven by a length field the
// bytes merely claim (maxRecordBytes bounds a frame; the records slice and
// the string table are sized from CRC-valid frames), Open and ReadAll —
// the scanner's two faces — agree on what is valid (both fail, or both
// find the same records and the same torn tail), a successful scan reads
// what the frame-by-frame reference decodes, the opened log continues at
// the LSN after the last record read, and after Open has truncated the
// tail a reopen finds nothing torn.
func FuzzScanSegment(f *testing.F) {
	var valid []byte
	for _, rec := range sampleRecords(9) {
		valid = appendFrame(valid, rec)
	}
	frame := appendFrame(nil, Record{Type: TypeCommit, Txn: "Ttorn"})
	after := func(tail ...byte) []byte { return append(append([]byte(nil), valid...), tail...) }
	badCRC := after(frame...)
	badCRC[len(badCRC)-1] ^= 0xff
	oversize := after(frame...)
	binary.LittleEndian.PutUint32(oversize[len(valid):], maxRecordBytes+1)
	garbage := []byte{0xff, 0xfe, 0xfd} // CRC-valid frame, undecodable body
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(after(frame[:3]...))            // torn header
	f.Add(after(frame[:len(frame)-2]...)) // torn body
	f.Add(badCRC)
	f.Add(oversize)
	header := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, uint32(len(garbage))), crcOf(garbage))
	f.Add(append(header, garbage...))
	f.Add(appendFrame(after(), Record{Type: TypeCheckpoint, Ref: 3})) // marker claiming an impossible LSN

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(seg, append([]byte(segMagic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		want, werr := frameDecode(dir)
		var before, now runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, info, rerr := ReadAll(dir)
		l, n, oerr := Open(dir, Options{SyncEvery: -1})
		runtime.ReadMemStats(&now)
		if grown := now.TotalAlloc - before.TotalAlloc; grown > maxRecordBytes {
			t.Fatalf("scanning %d bytes allocated %d", len(tail), grown)
		}
		if (rerr == nil) != (oerr == nil) {
			t.Fatalf("ReadAll: %v, but Open: %v", rerr, oerr)
		}
		if rerr != nil {
			return
		}
		if werr != nil || len(recs) != len(want) || len(recs) > 0 && !reflect.DeepEqual(recs, want) {
			t.Fatalf("ReadAll read %d records, the frame-by-frame decode %d (%v); first difference at %d", len(recs), len(want), werr, firstDiff(recs, want))
		}
		if n != uint64(len(recs)) {
			t.Fatalf("Open counts %d records, ReadAll %d", n, len(recs))
		}
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(len(segMagic)+len(tail)) - info.TornBytes; fi.Size() != want {
			t.Fatalf("Open left %d bytes, ReadAll saw %d torn of %d (want %d left)", fi.Size(), info.TornBytes, len(segMagic)+len(tail), want)
		}
		next := max(info.FirstLSN, 1) + n
		if lsn, err := l.Append(Record{Type: TypeCommit, Txn: "Tnext"}); err != nil || lsn != next {
			t.Fatalf("append after %d records from LSN %d = LSN %d, %v; want %d", n, info.FirstLSN, lsn, err, next)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, info2, err := ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info2.TornBytes != 0 || len(again) != len(recs)+1 {
			t.Fatalf("reopened log: %d records, %d torn bytes; want %d, 0", len(again), info2.TornBytes, len(recs)+1)
		}
	})
}
