package sched

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// Format-freeze corpus: crashed logs written by the compsim of the commit
// before the journal seam existed (PR 13), checked in under
// testdata/logs with what that commit's recovery made of them. Recovering
// them in a temp copy must reproduce the recorded state exactly — the
// on-disk format and the replay semantics are frozen by this test.
//
//	single/  compsim -topology bank -protocol hybrid -certify -roots 24
//	         -steps 3 -items 4 -clients 4 -seed 2 -checkpoint-every 5
//	         -crash T21:commit — three checkpoints, in-flight applies on
//	         both sides of the last marker.
//	dist/    compsim -distributed -topology bank -roots 10 -steps 4
//	         -items 6 -clients 3 -seed 33 -dist-crash T7:coord-post-decision
//	         — part-east holds one in-doubt (T7) and one loser (T5)
//	         transaction, the coordinator one un-ended decision (T7).
//
// -update-corpus rewrites the expectations from the code under test; it is
// how they were recorded at the parent commit, and must not be used to
// paper over a difference.
var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/logs/*.json from this build's recovery")

// appendedRec is one record recovery itself appended to a log.
type appendedRec struct {
	Type string `json:"type"`
	Txn  string `json:"txn"`
	Comp string `json:"comp,omitempty"`
	Item string `json:"item,omitempty"`
	Mode string `json:"mode,omitempty"`
	Arg  int64  `json:"arg,omitempty"`
	Ref  uint64 `json:"ref,omitempty"`
}

// appendedSince lists the records of the log in dir past the first n: the
// compensation records in order, then the abort markers sorted by
// transaction (the parent wrote those in map order).
func appendedSince(t *testing.T, dir string, n int) []appendedRec {
	t.Helper()
	recs, _, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	var clrs, aborts []appendedRec
	for _, r := range recs[n:] {
		a := appendedRec{Type: r.Type.String(), Txn: r.Txn, Comp: r.Comp, Item: r.Item, Mode: r.Mode, Arg: r.Arg, Ref: r.Ref}
		if r.Type == wal.TypeAbort {
			aborts = append(aborts, a)
		} else {
			clrs = append(clrs, a)
		}
	}
	sort.Slice(aborts, func(i, j int) bool { return aborts[i].Txn < aborts[j].Txn })
	return append(clrs, aborts...)
}

func recordCount(t *testing.T, dir string) int {
	t.Helper()
	recs, _, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(recs)
}

// corpusCopy copies one checked-in log tree into a temp directory.
func corpusCopy(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", "logs", name)
	dst := filepath.Join(t.TempDir(), name)
	err := filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if fi.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// checkCorpus compares got with the recorded expectation (or records it).
func checkCorpus(t *testing.T, name string, got any) {
	t.Helper()
	path := filepath.Join("testdata", "logs", name+".json")
	blob, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if *updateCorpus {
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var g, w any
	if err := json.Unmarshal(blob, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("recovery of the parent-written %s log diverged from the recorded state\ngot:  %s\nwant: %s", name, blob, want)
	}
}

func TestCorpusSingleProcessLog(t *testing.T) {
	dir := corpusCopy(t, "single")
	before := recordCount(t, dir)
	rec, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]map[string]int64{}
	for _, name := range []string{"east", "west"} {
		stores[name] = rec.Runtime.Store(name).Snapshot()
	}
	certifying := rec.Runtime.Certifying()
	seededEngine(t, "corpus", rec.Runtime)
	if err := rec.Runtime.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	checkCorpus(t, "single", map[string]any{
		"stats":      rec.Stats,
		"stores":     stores,
		"verdict":    rec.Verdict.String(),
		"certifying": certifying,
		"appended":   appendedSince(t, dir, before),
	})

	// Recovering the recovered log again changes nothing and undoes nothing.
	again, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Runtime.CloseWAL()
	if again.Stats.Undone != 0 || again.Stats.InFlight != 0 {
		t.Fatalf("second recovery undid %d applies of %d in-flight transactions, want 0/0", again.Stats.Undone, again.Stats.InFlight)
	}
	for name, want := range stores {
		if got := again.Runtime.Store(name).Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("second recovery: store %s = %v, want %v", name, got, want)
		}
	}

	// No attempt was live at the crash, so every recovered root retired:
	// the engine is seeded empty, without a second reduction. A root
	// writing every item twice at both branches conflicts with itself
	// across its subtransactions, so the engine admits it instead of
	// parking it.
	seededEngine(t, "corpus again", again.Runtime)
	var steps []Step
	for _, comp := range []string{"east", "west"} {
		for _, item := range []string{"x1", "x2", "x3", "x4"} {
			w := leafAt(comp, item, data.Op{Mode: data.ModeWrite, Item: item, Arg: 9})
			steps = append(steps, w, w)
		}
	}
	m0 := again.Runtime.Metrics()
	if _, err := again.Runtime.Submit("T-post", Invocation{Component: "bank", Steps: steps}); err != nil {
		t.Fatal(err)
	}
	if m := again.Runtime.Metrics(); m.Commits != m0.Commits+1 || m.CertifyRejects != 0 || m.CertifyFastPath != m0.CertifyFastPath {
		t.Fatalf("post-recovery root: %s (before: %s), want one commit through the engine", m, m0)
	}
}

func TestCorpusClusterLogs(t *testing.T) {
	// Frozen: no sweeper tick, no re-delivery round, no query — the state
	// inspected is exactly what recovery rebuilt.
	root := corpusCopy(t, "dist")
	before := map[string]int{}
	for _, part := range []string{"east", "west"} {
		before[part] = recordCount(t, partDir(root, part))
	}
	cl, err := RecoverCluster(DistConfig{WALRoot: root,
		QueryAfter: time.Hour, SweepEvery: time.Hour, AbandonAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string]any{}
	for _, name := range []string{"east", "west"} {
		p := cl.participant(name)
		p.mu.Lock()
		inDoubt := map[string]any{}
		for txn, tx := range p.txns {
			var lsns []uint64
			for _, u := range tx.undo {
				lsns = append(lsns, u.lsn)
			}
			inDoubt[txn] = map[string]any{"attempt": tx.attempt, "ts": tx.ts, "prepared": tx.prepared, "undo": lsns}
		}
		var resolved []string
		for txn := range p.resolved {
			resolved = append(resolved, txn)
		}
		sort.Strings(resolved)
		aborted := map[string]uint32{}
		for txn, at := range p.aborted {
			aborted[txn] = at
		}
		p.mu.Unlock()
		parts[name] = map[string]any{
			"store": p.c.store.Snapshot(), "inDoubt": inDoubt, "resolved": resolved, "aborted": aborted,
		}
	}
	c := cl.coordinator()
	c.mu.Lock()
	committed := map[string]any{}
	for txn, ct := range c.committed {
		pending := append([]string(nil), ct.pending...)
		sort.Strings(pending)
		committed[txn] = map[string]any{"attempt": ct.attempt, "parts": ct.parts, "pending": pending, "ended": ct.ended}
	}
	c.mu.Unlock()
	verdict, err := cl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	coord := map[string]any{
		"committed": committed, "clock": c.clock.Load(), "tsc": c.tsc.Load(),
		"nodes": cl.RecordedSystem().NumNodes(), "verdict": verdict.String(),
	}
	// What recovery itself appended, read before Close: recovery fsyncs
	// its own records, and Close runs a re-delivery round of its own.
	appended := map[string]any{}
	for part, n := range before {
		appended[part] = appendedSince(t, partDir(root, part), n)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// Live: a second copy recovers with the default timers and settles —
	// the un-ended decision is re-delivered, the in-doubt set drains.
	live, err := RecoverCluster(DistConfig{WALRoot: corpusCopy(t, "dist")})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := live.Settle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	settledVerdict, err := live.Audit()
	if err != nil {
		t.Fatal(err)
	}
	checkCorpus(t, "dist", map[string]any{
		"participants": parts,
		"coordinator":  coord,
		"appended":     appended,
		"settled": map[string]any{
			"east": live.StoreSnapshot("east"), "west": live.StoreSnapshot("west"),
			"verdict": settledVerdict.String(),
		},
	})
}
