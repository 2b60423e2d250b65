package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// recoveryLog writes into dir a log shaped like the crashed bank runs a
// recovery replays: a meta record, seeds for 256 accounts on each of two
// branches, 200 roots of two applies, five nodes, four events and a commit,
// and a checkpoint of 200 ck-items after every 65 roots, in segments rotated
// at 96 KiB. It returns the distinct non-empty strings the records carry.
func recoveryLog(t testing.TB, dir string) map[string]bool {
	t.Helper()
	l, _, err := Open(dir, Options{SyncEvery: -1, SegmentBytes: 96 << 10})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	note := func(recs []Record) {
		for _, r := range recs {
			for _, s := range []string{r.Txn, r.Node, r.Parent, r.Sched, r.Comp, r.Item, r.Mode, r.Impl} {
				if s != "" {
					distinct[s] = true
				}
			}
		}
	}
	add := func(recs ...Record) {
		note(recs)
		if _, err := l.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	meta := []byte(strings.Repeat(`{"components":["bank","east","west"]}`, 6))
	add(Record{Type: TypeMeta, Meta: meta})
	for _, comp := range []string{"east", "west"} {
		for i := 0; i < 256; i++ {
			add(Record{Type: TypeSeed, Comp: comp, Item: "a" + strconv.Itoa(i), Prev: 1000})
		}
	}
	var seq uint64
	for k := 0; k < 200; k++ {
		txn := "T" + strconv.Itoa(k)
		east, west := "a"+strconv.Itoa(k*7%256), "a"+strconv.Itoa(k*13%256)
		amt := int64(k%5 + 1)
		add(Record{Type: TypeApply, Txn: txn, Node: txn + "/1/1", Comp: "east", Item: east, Mode: "incr", Arg: -amt, Prev: 1000})
		add(Record{Type: TypeApply, Txn: txn, Node: txn + "/2/1", Comp: "west", Item: west, Mode: "incr", Arg: amt, Prev: 1000})
		seq += 4
		add(
			Record{Type: TypeNode, Txn: txn, Node: txn, Sched: "bank"},
			Record{Type: TypeNode, Txn: txn, Node: txn + "/1", Parent: txn, Sched: "east"},
			Record{Type: TypeNode, Txn: txn, Node: txn + "/1/1", Parent: txn + "/1"},
			Record{Type: TypeNode, Txn: txn, Node: txn + "/2", Parent: txn, Sched: "west"},
			Record{Type: TypeNode, Txn: txn, Node: txn + "/2/1", Parent: txn + "/2"},
			Record{Type: TypeEvent, Txn: txn, Node: txn + "/1/1", Parent: txn + "/1", Comp: "east", Item: east, Mode: "incr", Seq: seq - 3},
			Record{Type: TypeEvent, Txn: txn, Node: txn + "/1", Parent: txn, Comp: "bank", Item: "east/" + east, Mode: "incr", Seq: seq - 2},
			Record{Type: TypeEvent, Txn: txn, Node: txn + "/2/1", Parent: txn + "/2", Comp: "west", Item: west, Mode: "incr", Seq: seq - 1},
			Record{Type: TypeEvent, Txn: txn, Node: txn + "/2", Parent: txn, Comp: "bank", Item: "west/" + west, Mode: "incr", Seq: seq},
			Record{Type: TypeCommit, Txn: txn},
		)
		if (k+1)%65 == 0 {
			items := make([]Record, 0, 200)
			for j := 0; j < 100; j++ {
				item := "a" + strconv.Itoa((k+j)%256)
				items = append(items, Record{Comp: "east", Item: item, Prev: 990}, Record{Comp: "west", Item: item, Prev: 1010})
			}
			note(items)
			if _, err := l.AppendCheckpoint(items, Record{Meta: meta}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return distinct
}

// frameDecode is the reference scan the scanner is compared with: each
// segment read whole, and every frame of it up to the first that is short
// or fails its CRC decoded on its own by decodeBody.
func frameDecode(dir string) ([]Record, error) {
	paths, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(string(raw), segMagic) {
			continue
		}
		for off := len(segMagic); off+frameHeaderLen <= len(raw); {
			n := binary.LittleEndian.Uint32(raw[off:])
			if n > maxRecordBytes || off+frameHeaderLen+int(n) > len(raw) {
				break
			}
			body := raw[off+frameHeaderLen : off+frameHeaderLen+int(n)]
			if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[off+4:]) {
				break
			}
			r, err := decodeBody(body)
			if err != nil {
				return nil, err
			}
			recs = append(recs, r)
			off += frameHeaderLen + len(body)
		}
	}
	return recs, nil
}

// logShape reports what the budget is made of: the segment count, the
// largest segment's size, and the records that carry a Meta blob with the
// blobs' total size.
func logShape(t *testing.T, dir string, recs []Record) (segments int, largest int64, metas, metaBytes int) {
	t.Helper()
	paths, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, fi.Size())
	}
	for _, r := range recs {
		if len(r.Meta) > 0 {
			metas++
			metaBytes += len(r.Meta)
		}
	}
	return len(paths), largest, metas, metaBytes
}

// TestScanAllocBudget pins what a scan allocates: the records slice at its
// exact length, one read buffer the size of the largest segment, each
// distinct string once, each Meta blob once, and a string table dropped on
// return; and what its records keep alive, which no string aliasing the
// read buffer may pin. At 2647f5f, which copied every string twice, grew
// the records by doubling and read each segment into a fresh buffer, this
// log cost about seven allocations per record.
func TestScanAllocBudget(t *testing.T) {
	const (
		// perSegment allocations: its directory entry and path, a stat,
		// and at most two opens with their stats.
		perSegment = 16
		// fixedAllocs: the directory read, the Scan, its records and
		// segments, the read buffer, the string table.
		fixedAllocs = 32
		// tableSlack bytes per record: the string table is a map sized for
		// one entry per frame, dropped when the scan returns.
		tableSlack = 48
		// fixedBytes: the page rounding of the records slice and the read
		// buffer, and the directory read.
		fixedBytes = 48 << 10
		// keptSlack: the page rounding of the records slice and the size
		// classes of the strings.
		keptSlack = 32 << 10
	)
	dir := t.TempDir()
	distinct := recoveryLog(t, dir)
	s, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segments, largest, metas, metaBytes := logShape(t, dir, s.Records)
	strBytes := 0
	for str := range distinct {
		strBytes += len(str)
	}
	if segments < 2 || len(s.Records) < 3400 || len(distinct) < 1600 || s.Info.CheckpointLSN == 0 {
		t.Fatalf("log shape: %d segments, %d records, %d distinct strings, checkpoint %d", segments, len(s.Records), len(distinct), s.Info.CheckpointLSN)
	}

	allocs := testing.AllocsPerRun(4, func() {
		if _, err := ScanDir(dir); err != nil {
			t.Fatal(err)
		}
	})
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(kept)
	bytes := after.TotalAlloc - before.TotalAlloc
	keptBytes := int64(live.HeapAlloc) - int64(before.HeapAlloc)

	budgetAlloc := len(distinct) + metas + perSegment*segments + fixedAllocs
	recordBytes := len(s.Records) * int(unsafe.Sizeof(Record{}))
	budgetBytes := recordBytes + tableSlack*len(s.Records) + int(largest) + strBytes + metaBytes + fixedBytes
	// What the records keep alive: neither the read buffer nor the table.
	budgetKept := recordBytes + strBytes + metaBytes + keptSlack
	t.Logf("%d records, %d segments (largest %d B), %d distinct strings (%d B), %d metas (%d B)",
		len(s.Records), segments, largest, len(distinct), strBytes, metas, metaBytes)
	t.Logf("scan: %.0f allocations (budget %d), %d B (budget %d), %d B kept (budget %d)",
		allocs, budgetAlloc, bytes, budgetBytes, keptBytes, budgetKept)
	if raceEnabled {
		return
	}
	if allocs > float64(budgetAlloc) {
		t.Errorf("a scan makes %.0f allocations, budget %d", allocs, budgetAlloc)
	}
	if bytes > uint64(budgetBytes) {
		t.Errorf("a scan allocates %d B, budget %d B", bytes, budgetBytes)
	}
	if keptBytes > int64(budgetKept) {
		t.Errorf("a scan's records keep %d B alive, budget %d B", keptBytes, budgetKept)
	}
}

// copySegments copies the segment files of src into a fresh directory.
func copySegments(t *testing.T, src string) string {
	t.Helper()
	paths, err := segmentFiles(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(path)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// appendFile appends raw bytes to a file, creating it if needed.
func appendFile(t *testing.T, path string, raw []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanMatchesFrameDecode compares the scanner with the frame-by-frame
// reference on the format-freeze corpus and on rotated, torn and truncated
// logs, then checks that what a scan returns owns its bytes: once the files
// are overwritten and another log has been scanned, the records are still
// what the reference decoded, and no two records share a Meta array.
func TestScanMatchesFrameDecode(t *testing.T) {
	logs := map[string]func(t *testing.T) string{}
	for _, name := range []string{"single", "dist/coord", "dist/part-east", "dist/part-west"} {
		logs["corpus/"+name] = func(t *testing.T) string {
			return copySegments(t, filepath.Join("..", "sched", "testdata", "logs", name))
		}
	}
	// write journals a meta record and n sample records, lets more act on
	// the open log, and closes it.
	write := func(t *testing.T, opts Options, n int, more func(*Log)) string {
		dir := t.TempDir()
		l, _, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		meta := Record{Type: TypeMeta, Meta: []byte(`{"version":1}`)}
		if _, err := l.AppendBatch(append([]Record{meta}, sampleRecords(n)...)); err != nil {
			t.Fatal(err)
		}
		if more != nil {
			more(l)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	logs["rotated"] = func(t *testing.T) string { return write(t, Options{SegmentBytes: 200}, 120, nil) }
	logs["torn-tail"] = func(t *testing.T) string {
		dir := write(t, Options{}, 30, nil)
		frame := appendFrame(nil, Record{Type: TypeCommit, Txn: "Ttorn"})
		appendFile(t, filepath.Join(dir, segmentName(1)), frame[:len(frame)-2])
		return dir
	}
	logs["torn-segment-header"] = func(t *testing.T) string {
		dir := write(t, Options{}, 30, nil)
		appendFile(t, filepath.Join(dir, segmentName(2)), []byte(segMagic[:3]))
		return dir
	}
	logs["truncated-checkpoint"] = func(t *testing.T) string {
		return write(t, Options{SegmentBytes: 256}, 40, func(l *Log) {
			lsn, err := l.AppendCheckpoint(ckItems(3), Record{Meta: []byte(`{"seq":41}`)})
			if err != nil {
				t.Fatal(err)
			}
			if n, err := l.TruncateBefore(lsn - 3); err != nil || n == 0 {
				t.Fatalf("TruncateBefore = %d, %v; want segments deleted", n, err)
			}
			if _, err := l.AppendBatch(sampleRecords(6)); err != nil {
				t.Fatal(err)
			}
		})
	}
	logs["recovery"] = func(t *testing.T) string {
		dir := t.TempDir()
		recoveryLog(t, dir)
		return dir
	}

	for name, build := range logs {
		t.Run(name, func(t *testing.T) {
			dir := build(t)
			s, err := ScanDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			want, err := frameDecode(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !reflect.DeepEqual(s.Records, want) || s.Info.Records != len(want) {
				t.Fatalf("ScanDir read %d records (info %+v), the frame-by-frame decode %d; first difference at %d",
					len(s.Records), s.Info, len(want), firstDiff(s.Records, want))
			}

			paths, err := segmentFiles(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range paths {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for i := range raw {
					raw[i] = ^raw[i]
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			// Freed, the scan's read buffer is where the next one of its
			// size is likely to land: let that scan read the inverted bytes.
			runtime.GC()
			ScanDir(copySegments(t, dir))
			if !reflect.DeepEqual(s.Records, want) {
				t.Fatalf("a scan's records changed with its files and the next scan; first difference at %d", firstDiff(s.Records, want))
			}
			for i := range s.Records {
				if len(s.Records[i].Meta) == 0 {
					continue
				}
				for j := range s.Records[i].Meta {
					s.Records[i].Meta[j] ^= 0xff
				}
				for k := range s.Records {
					if k != i && !reflect.DeepEqual(s.Records[k].Meta, want[k].Meta) {
						t.Fatalf("records %d and %d share a Meta array", i, k)
					}
				}
				for j := range s.Records[i].Meta {
					s.Records[i].Meta[j] ^= 0xff
				}
			}
		})
	}
}

func firstDiff(got, want []Record) int {
	for i := range got {
		if i >= len(want) || !reflect.DeepEqual(got[i], want[i]) {
			return i
		}
	}
	return len(got)
}

// undecodable is a CRC-valid frame whose body is not a record.
func undecodable() []byte {
	body := []byte{byte(TypeApply), 0xff, 0xfe, 0xfd}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// TestScanErrorOrder puts a CRC-valid but undecodable frame in front of
// later damage — a torn tail in the last segment, a corrupt frame in a
// non-final one — and checks the scan names the undecodable frame, the
// first bad one in log order, and that ReadAll and Open agree.
func TestScanErrorOrder(t *testing.T) {
	frame := appendFrame(nil, Record{Type: TypeCommit, Txn: "Tlater"})
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xff
	for _, tc := range []struct {
		name     string
		segments int
		after    []byte // bytes behind the undecodable frame in segment 1
	}{
		{"torn-tail", 1, frame[:len(frame)-2]},
		{"corrupt-non-final", 2, append(corrupt, frame...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var seg []byte
			for _, rec := range sampleRecords(7) {
				seg = appendFrame(seg, rec)
			}
			bad := len(segMagic) + len(seg)
			seg = append(append(seg, undecodable()...), tc.after...)
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), append([]byte(segMagic), seg...), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.segments == 2 {
				if err := os.WriteFile(filepath.Join(dir, segmentName(2)), appendFrame([]byte(segMagic), sampleRecords(1)[0]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, _, rerr := ReadAll(dir)
			_, _, oerr := Open(dir, Options{SyncEvery: -1})
			want := fmt.Sprintf("%s at offset %d: wal: corrupt apply record", filepath.Join(dir, segmentName(1)), bad)
			if rerr == nil || !strings.Contains(rerr.Error(), want) {
				t.Fatalf("ReadAll: %v; want an error containing %q", rerr, want)
			}
			if oerr == nil || oerr.Error() != rerr.Error() {
				t.Fatalf("Open: %v; ReadAll: %v", oerr, rerr)
			}
		})
	}
}

// BenchmarkScanDir scans recoveryLog's log: the allocation report is the
// one TestScanAllocBudget bounds.
func BenchmarkScanDir(b *testing.B) {
	dir := b.TempDir()
	recoveryLog(b, dir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanDir(dir); err != nil {
			b.Fatal(err)
		}
	}
}
