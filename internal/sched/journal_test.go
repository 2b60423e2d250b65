package sched

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// The replay law, stated once on the store-replay core every node
// recovers through: recover ∘ crash ≡ identity on the decided state, and
// recover ∘ recover ≡ recover. A seeded generator writes well-formed
// store logs — the records a lock-respecting run can leave behind at an
// arbitrary crash point — next to a shadow model that never replays
// anything: it folds each item's effect history, leaving out what must
// not survive.

// lawEffect is one journaled mutation in the shadow model.
type lawEffect struct {
	idx         int // record index of the TypeApply (LSN-1)
	txn         string
	op          data.Op
	cancelled   bool // TypeApplyFail: never executed
	compensated bool // a TypeComp is on record
	quarantined bool // ... that never took effect: the forward effect leaked
}

type lawTxn struct {
	name     string
	effects  []*lawEffect
	prepared bool
}

// lawLog is a generated log with its shadow model.
type lawLog struct {
	recs   []wal.Record
	seeds  map[string]int64        // key -> seeded value
	hist   map[string][]*lawEffect // key -> effects in log order
	state  map[string]int64        // live value per key, as the crashed process had it
	active []*lawTxn
	dirty  map[string]bool // keys mutated since the last ck batch
	based  bool            // a base batch has been written
	next   int             // transaction counter
}

var lawComps = []string{"a", "b"}

func lawKey(comp, item string) string { return comp + "/" + item }

func (g *lawLog) emit(rec wal.Record) uint64 {
	g.recs = append(g.recs, rec)
	return uint64(len(g.recs))
}

// free reports whether txn may take op's lock on key: a write needs the
// key clear of every other undecided transaction's surviving effects, an
// increment only of their writes.
func (g *lawLog) free(key string, txn *lawTxn, mode data.Mode) bool {
	for _, other := range g.active {
		if other == txn {
			continue
		}
		for _, e := range other.effects {
			if lawKey(g.recs[e.idx].Comp, e.op.Item) != key || e.cancelled || (e.compensated && !e.quarantined) {
				continue
			}
			if mode == data.ModeWrite || e.op.Mode == data.ModeWrite {
				return false
			}
		}
	}
	return true
}

func lawApply(v int64, op data.Op) int64 {
	if op.Mode == data.ModeWrite {
		return op.Arg
	}
	return v + op.Arg
}

func (g *lawLog) apply(rng *rand.Rand, txn *lawTxn, fail bool) {
	comp := lawComps[rng.Intn(len(lawComps))]
	op := data.Op{Mode: data.ModeIncr, Item: fmt.Sprintf("x%d", rng.Intn(4)), Arg: int64(rng.Intn(9) + 1)}
	if rng.Intn(3) == 0 {
		op.Mode = data.ModeWrite
	}
	key := lawKey(comp, op.Item)
	if !g.free(key, txn, op.Mode) {
		return
	}
	lsn := g.emit(applyRecord(txn.name, txn.name+"/op", comp, op, g.state[key]))
	e := &lawEffect{idx: int(lsn) - 1, txn: txn.name, op: op, cancelled: fail}
	txn.effects = append(txn.effects, e)
	g.hist[key] = append(g.hist[key], e)
	if fail {
		g.emit(wal.Record{Type: wal.TypeApplyFail, Txn: txn.name, Ref: lsn})
		return
	}
	g.state[key] = lawApply(g.state[key], op)
	g.dirty[key] = true
}

// rollback journals (and executes) the compensations of txn's last n
// surviving effects, newest first; quarantine makes one of them fail for
// good — one that is the transaction's only effect on its item, so that no
// later compensation of the same rollback overwrites the leak.
func (g *lawLog) rollback(txn *lawTxn, n int, quarantine bool) {
	for i := len(txn.effects) - 1; i >= 0 && n > 0; i-- {
		e := txn.effects[i]
		if e.cancelled || e.compensated {
			continue
		}
		n--
		comp := g.recs[e.idx].Comp
		key := lawKey(comp, e.op.Item)
		alone := true
		for _, o := range txn.effects {
			alone = alone && (o == e || o.cancelled || lawKey(g.recs[o.idx].Comp, o.op.Item) != key)
		}
		inv, _ := data.Inverse(e.op, data.Result{Prev: g.recs[e.idx].Prev})
		g.emit(compRecord(txn.name, comp, inv, uint64(e.idx)+1))
		e.compensated = true
		if quarantine && alone {
			quarantine = false
			e.quarantined = true
			g.emit(wal.Record{Type: wal.TypeQuarantine, Txn: txn.name, Ref: uint64(e.idx) + 1})
			continue
		}
		g.state[key] = lawApply(g.state[key], inv)
		g.dirty[key] = true
	}
}

func (g *lawLog) retire(txn *lawTxn) {
	for i, t := range g.active {
		if t == txn {
			g.active = append(g.active[:i], g.active[i+1:]...)
		}
	}
}

// checkpoint journals a batch — every key for a base, the dirty keys for a
// delta — and, unless torn, its self-anchoring marker. A torn batch holds
// values no cut ever saw: replay must not look at it.
func (g *lawLog) checkpoint(base, torn bool) {
	for _, comp := range lawComps {
		for i := 0; i < 4; i++ {
			item := fmt.Sprintf("x%d", i)
			key := lawKey(comp, item)
			if _, known := g.state[key]; !known || !(base || g.dirty[key]) {
				continue
			}
			v := g.state[key]
			if torn {
				v += 1000
			}
			g.emit(wal.Record{Type: wal.TypeCkItem, Comp: comp, Item: item, Prev: v})
		}
	}
	if torn {
		return
	}
	g.dirty = map[string]bool{}
	g.based = true
	g.emit(wal.Record{Type: wal.TypeCheckpoint, Ref: uint64(len(g.recs)) + 1})
}

// genLawLog generates one crashed log; twoPC selects TypePrepare/
// TypeDecision outcomes instead of TypeCommit/TypeAbort.
func genLawLog(seed int64, twoPC bool) *lawLog {
	rng := rand.New(rand.NewSource(seed))
	g := &lawLog{seeds: map[string]int64{}, hist: map[string][]*lawEffect{},
		state: map[string]int64{}, dirty: map[string]bool{}}
	g.emit(wal.Record{Type: wal.TypeMeta, Meta: []byte(`{}`)})
	for _, comp := range lawComps {
		for i := 0; i < 2+rng.Intn(3); i++ {
			item, v := fmt.Sprintf("x%d", i), int64(rng.Intn(50))
			g.emit(wal.Record{Type: wal.TypeSeed, Comp: comp, Item: item, Prev: v})
			g.seeds[lawKey(comp, item)], g.state[lawKey(comp, item)] = v, v
		}
	}
	for step, steps := 0, 20+rng.Intn(40); step < steps; step++ {
		var txn *lawTxn
		if len(g.active) > 0 {
			txn = g.active[rng.Intn(len(g.active))]
		}
		switch r := rng.Intn(20); {
		case r < 3 && len(g.active) < 4:
			g.next++
			g.active = append(g.active, &lawTxn{name: fmt.Sprintf("T%d", g.next)})
		case txn == nil:
		case r < 11:
			if !txn.prepared { // a prepared transaction executes nothing further
				g.apply(rng, txn, r == 10)
			}
		case r < 14: // commit (2PC: prepare first, decide on a later visit)
			switch {
			case !twoPC:
				g.emit(wal.Record{Type: wal.TypeCommit, Txn: txn.name})
				g.retire(txn)
			case !txn.prepared:
				txn.prepared = true
				g.emit(wal.Record{Type: wal.TypePrepare, Txn: txn.name, Node: attemptStr(1), Seq: uint64(g.next)})
			default:
				g.emit(wal.Record{Type: wal.TypeDecision, Txn: txn.name, Node: attemptStr(1), Mode: "commit"})
				g.retire(txn)
			}
		case r < 16: // abort: full rollback, one compensation in four quarantined
			g.rollback(txn, len(txn.effects), rng.Intn(4) == 0)
			if twoPC && txn.prepared {
				g.emit(wal.Record{Type: wal.TypeDecision, Txn: txn.name, Node: attemptStr(1), Mode: "abort"})
			} else {
				g.emit(wal.Record{Type: wal.TypeAbort, Txn: txn.name})
			}
			g.retire(txn)
		case r < 18:
			g.checkpoint(!g.based || rng.Intn(3) == 0, false)
		}
	}
	// The crash: one transaction may be caught mid-rollback, and a
	// checkpoint between its batch and its marker.
	if len(g.active) > 0 && rng.Intn(2) == 0 {
		txn := g.active[rng.Intn(len(g.active))]
		if !txn.prepared && len(txn.effects) > 0 {
			g.rollback(txn, 1+rng.Intn(len(txn.effects)), false)
		}
	}
	if rng.Intn(2) == 0 {
		g.checkpoint(rng.Intn(2) == 0, true)
	}
	return g
}

// lawFate classifies transactions from the outcome records alone, the way
// the owner of such a log does: a runtime by commit markers, a participant
// by prepares and decisions (last one wins). It is the shadow of the
// analysis in scanStoreLog, which must agree with it.
func lawFate(recs []wal.Record, twoPC bool) func(string) txnFate {
	fates := map[string]txnFate{}
	for _, rec := range recs {
		switch {
		case !twoPC && rec.Type == wal.TypeCommit:
			fates[rec.Txn] = fateWinner
		case twoPC && rec.Type == wal.TypePrepare:
			fates[rec.Txn] = fateInDoubt
		case twoPC && rec.Type == wal.TypeDecision && rec.Mode == "commit":
			fates[rec.Txn] = fateWinner
		case twoPC && rec.Type == wal.TypeDecision:
			fates[rec.Txn] = fateLoser
		}
	}
	return func(txn string) txnFate { return fates[txn] }
}

// want folds the model: an effect survives iff it executed and either
// leaked through a quarantine or was neither compensated nor a loser's.
func (g *lawLog) want(fate func(string) txnFate) map[string]int64 {
	out := map[string]int64{}
	for key, v := range g.seeds {
		out[key] = v
	}
	for key, effects := range g.hist {
		v := g.seeds[key]
		for _, e := range effects {
			if e.cancelled || (e.compensated && !e.quarantined) {
				continue
			}
			if e.quarantined || fate(e.txn) != fateLoser {
				v = lawApply(v, e.op)
			}
		}
		out[key] = v
	}
	return out
}

// lawSame compares store contents; an item no replayed record touched is
// absent from the store and zero in the model.
func lawSame(got, want map[string]int64) bool {
	for key, v := range want {
		if got[key] != v {
			return false
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			return false
		}
	}
	return true
}

// lawReplay runs the core over the log in dir the way every node does:
// scan, redo into fresh stores, reopen from the scan, undo, sync. It returns
// the store contents, the LSNs handed back as in doubt, and what undo
// appended.
func lawReplay(t *testing.T, dir string, twoPC bool) (map[string]int64, []uint64, []wal.Record) {
	t.Helper()
	scan, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := scan.Records
	sl, err := scanStoreLog(recs, scan.Info, false)
	if err != nil {
		t.Fatal(err)
	}
	shadow := lawFate(recs, twoPC)
	for _, rec := range recs {
		if got, want := sl.fate(rec.Txn), shadow(rec.Txn); rec.Txn != "" && got != want {
			t.Fatalf("the analysis classifies %s as %d, the shadow model as %d", rec.Txn, got, want)
		}
	}
	comps := map[string]*component{}
	compOf := func(name string) (*component, error) {
		if comps[name] == nil {
			comps[name] = newComponent(ComponentSpec{Name: name, HasStore: true}).local(nil)
		}
		return comps[name], nil
	}
	if err := sl.redo(compOf); err != nil {
		t.Fatal(err)
	}
	j, err := reopen(scan, wal.Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	var lk leaks
	if err := sl.undo(j, compOf, &lk); err != nil {
		t.Fatal(err)
	}
	undone, kept := sl.undone, sl.inDoubt
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	after, _, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after)-len(recs) != undone {
		t.Fatalf("undo reports %d inverses but appended %d records", undone, len(after)-len(recs))
	}
	if leaked := lk.all(); len(leaked) > 0 {
		t.Fatalf("undo quarantined %+v: the law's inverses never fail", leaked)
	}
	got := map[string]int64{}
	for comp, c := range comps {
		for item, v := range c.store.Snapshot() {
			got[lawKey(comp, item)] = v
		}
	}
	var handed []uint64
	for _, i := range kept {
		handed = append(handed, sl.lsn(int(i)))
	}
	return got, handed, after[len(recs):]
}

func TestJournalReplayLaw(t *testing.T) {
	saw := map[string]int{} // what the sweep exercised
	for _, twoPC := range []bool{false, true} {
		for seed := int64(1); seed <= 200; seed++ {
			g := genLawLog(seed, twoPC)
			dir := t.TempDir()
			l, _, err := wal.Open(dir, wal.Options{SyncEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.AppendBatch(g.recs); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("twoPC=%v/seed=%d", twoPC, seed)
			fate := lawFate(g.recs, twoPC)

			// Expected CLRs and hand-backs: the surviving applies, newest
			// first, of losers and of in-doubt transactions.
			var wantCLR, wantKept []uint64
			for i := len(g.recs) - 1; i >= 0; i-- {
				if g.recs[i].Type != wal.TypeApply {
					continue
				}
				var e *lawEffect
				for _, c := range g.hist[lawKey(g.recs[i].Comp, g.recs[i].Item)] {
					if c.idx == i {
						e = c
					}
				}
				if e.cancelled || e.compensated {
					continue
				}
				switch fate(e.txn) {
				case fateLoser:
					wantCLR = append(wantCLR, uint64(i)+1)
				case fateInDoubt:
					wantKept = append(wantKept, uint64(i)+1)
				}
			}

			got, kept, appended := lawReplay(t, dir, twoPC)
			if want := g.want(fate); !lawSame(got, want) {
				t.Fatalf("%s: redo∘undo left %v, model says %v", name, got, want)
			}
			var gotCLR []uint64
			for _, rec := range appended {
				if rec.Type != wal.TypeComp {
					t.Fatalf("%s: undo appended a %s record", name, rec.Type)
				}
				gotCLR = append(gotCLR, rec.Ref)
			}
			if !reflect.DeepEqual(gotCLR, wantCLR) {
				t.Fatalf("%s: CLRs reference %v, want the undecided un-compensated applies in reverse log order %v", name, gotCLR, wantCLR)
			}
			if !reflect.DeepEqual(kept, wantKept) {
				t.Fatalf("%s: in-doubt applies handed back %v, want %v", name, kept, wantKept)
			}

			saw["CLR"] += len(wantCLR)
			saw["in-doubt apply"] += len(wantKept)
			for _, rec := range g.recs {
				saw[rec.Type.String()]++
			}
			if last := g.recs[len(g.recs)-1]; last.Type == wal.TypeCkItem {
				saw["torn checkpoint"]++
			}

			// Idempotence: the recovered log redoes to the same state and
			// has nothing left to undo.
			again, keptAgain, appendedAgain := lawReplay(t, dir, twoPC)
			if !reflect.DeepEqual(again, got) {
				t.Fatalf("%s: second replay left %v, first %v", name, again, got)
			}
			if len(appendedAgain) != 0 {
				t.Fatalf("%s: second replay undid %d records, want 0", name, len(appendedAgain))
			}
			if !reflect.DeepEqual(keptAgain, kept) {
				t.Fatalf("%s: second replay handed back %v, first %v", name, keptAgain, kept)
			}
		}
	}
	for _, what := range []string{"CLR", "in-doubt apply", "torn checkpoint", wal.TypeApplyFail.String(),
		wal.TypeQuarantine.String(), wal.TypeCheckpoint.String(), wal.TypeComp.String()} {
		if saw[what] == 0 {
			t.Fatalf("sweep never produced a %s", what)
		}
	}
	t.Logf("sweep: %v", saw)
}

// dirImage is the content of every file under dir, by relative path.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		img[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// writeLog starts a log in a fresh directory, hands it to fill and closes it.
func writeLog(t *testing.T, opts wal.Options, fill func(l *wal.Log)) string {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	fill(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// tearTail appends half a frame's worth of garbage to the log's last
// segment: what reopening the log would truncate.
func tearTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{40, 0, 0, 0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReopenContinuity: the scan a recovery replays is the scan its
// log reopens from. Over the format-freeze corpus, a torn tail, several
// segments and a truncated checkpointed log, wal.ScanDir reads what
// wal.ReadAll reads, and the log opened from the scan continues at the LSN
// after the last record read, on a tail with nothing torn left.
func TestJournalReopenContinuity(t *testing.T) {
	lawRecs := genLawLog(7, false).recs
	dist := corpusCopy(t, "dist")
	dirs := map[string]string{
		"corpus/single":    corpusCopy(t, "single"),
		"corpus/coord":     coordDir(dist),
		"corpus/part-east": partDir(dist, "east"),
		"corpus/part-west": partDir(dist, "west"),
		"torn-tail": writeLog(t, wal.Options{SyncEvery: -1}, func(l *wal.Log) {
			l.AppendBatch(lawRecs)
		}),
		"multi-segment": writeLog(t, wal.Options{SyncEvery: -1, SegmentBytes: 256}, func(l *wal.Log) {
			l.AppendBatch(lawRecs)
		}),
		"truncated": writeLog(t, wal.Options{SyncEvery: -1, SegmentBytes: 256}, func(l *wal.Log) {
			l.AppendBatch(lawRecs)
			marker, err := l.AppendCheckpoint([]wal.Record{{Comp: "a", Item: "x0", Prev: 1}}, wal.Record{Meta: []byte(`{}`)})
			if err != nil {
				t.Fatal(err)
			}
			if n, err := l.TruncateBefore(marker); err != nil || n == 0 {
				t.Fatalf("TruncateBefore(%d) deleted %d segments, %v", marker, n, err)
			}
			l.AppendBatch(lawRecs[:5])
		}),
	}
	tearTail(t, dirs["torn-tail"])
	tearTail(t, dirs["truncated"])
	for name, dir := range dirs {
		recs, info, err := wal.ReadAll(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scan, err := wal.ScanDir(dir)
		if err != nil || !reflect.DeepEqual(scan.Records, recs) || scan.Info != info {
			t.Fatalf("%s: ScanDir read %d records %+v (%v), ReadAll %d records %+v", name, len(scan.Records), scan.Info, err, len(recs), info)
		}
		switch name {
		case "torn-tail":
			if info.TornBytes == 0 {
				t.Fatalf("%s: nothing torn: %+v", name, info)
			}
		case "multi-segment":
			if info.Segments < 3 {
				t.Fatalf("%s: %+v", name, info)
			}
		case "truncated":
			if info.FirstLSN <= 1 || info.CheckpointLSN == 0 || info.TornBytes == 0 {
				t.Fatalf("%s: not a truncated, checkpointed, torn log: %+v", name, info)
			}
		}
		l, err := scan.Open(wal.Options{SyncEvery: -1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		next := wal.Record{Type: wal.TypeAbort, Txn: "Tnext"}
		want := info.FirstLSN + uint64(len(recs))
		if lsn, err := l.Append(next); err != nil || lsn != want {
			t.Fatalf("%s: first append after the scan = LSN %d, %v; want %d", name, lsn, err, want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		after, info2, err := wal.ReadAll(dir)
		if err != nil || info2.TornBytes != 0 || info2.FirstLSN != info.FirstLSN || info2.CheckpointLSN != info.CheckpointLSN ||
			!reflect.DeepEqual(after, append(recs, next)) {
			t.Fatalf("%s: reopened log reads %d records %+v (%v); want the %d scanned plus one, anchored as %+v", name, len(after), info2, err, len(recs), info)
		}
	}
}

// TestRecoverRefusedLeavesLogUntouched: a recovery that refuses a log has
// not reopened it. Each log carries a torn tail, which reopening would
// truncate; the directory must be byte-identical afterwards.
func TestRecoverRefusedLeavesLogUntouched(t *testing.T) {
	lawRecs := genLawLog(7, false).recs
	badMeta := writeLog(t, wal.Options{SyncEvery: -1}, func(l *wal.Log) {
		l.Append(wal.Record{Type: wal.TypeMeta, Meta: []byte(`{"protocol":`)})
		l.AppendBatch(lawRecs[1:5]) // seeds: no marker whose metadata would be read instead
	})
	corrupt := writeLog(t, wal.Options{SyncEvery: -1, SegmentBytes: 256}, func(l *wal.Log) {
		l.AppendBatch(lawRecs)
	})
	first := filepath.Join(corrupt, "00000001.seg")
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, dir := range map[string]string{
		"coordinator log":       coordDir(corpusCopy(t, "dist")),
		"undecodable metadata":  badMeta,
		"mid-log corrupt frame": corrupt,
	} {
		tearTail(t, dir)
		before := dirImage(t, dir)
		if rec, err := Recover(WALConfig{Dir: dir}); err == nil {
			rec.Runtime.CloseWAL()
			t.Fatalf("%s: Recover accepted it", name)
		}
		if !reflect.DeepEqual(dirImage(t, dir), before) {
			t.Fatalf("%s: the refused recovery changed the log directory", name)
		}
	}
}
