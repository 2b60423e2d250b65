package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// The every-prefix explorer. A scenario runs once with a WAL; then every
// durable prefix of its log is recovered in a copy. A cut copy of a
// segment is a crash: the OS keeps some prefix of what was written, and
// nothing below the first synced prefix can be lost. A log is cut at
// every record boundary from that prefix on and, within frames, at every
// byte — of every frame when the log past the floor is at most
// prefixByteBound bytes, of the last frame otherwise. At every prefix:
//
//   - recovery succeeds (a runtime's recovered execution is Comp-C);
//   - recover ∘ recover ≡ recover: the same stores, quarantine list and
//     recorded system, and the second recovery appends nothing;
//   - escrow and bank conservation hold;
//   - every quarantine on the log is re-reported, none twice;
//   - for a cluster, CheckEnded holds before and after recovery.
//
// The escrow leak's prefixes that end before T1's compensation are the
// refused undo's crash images, on both doors; the runtime's refused undo
// also runs as a scenario of its own, its log ending at the crash.
//
// A cluster's logs are cut at record boundaries: each participant prefix
// is paired with every coordinator prefix its forces allow, the other
// participants at the longest prefix that coordinator prefix allows.

// prefixByteBound is the explorer's one bound.
const prefixByteBound = 1024

// walImage is one log directory's segment files, in order.
type walImage struct {
	names []string
	segs  [][]byte
}

func readWALImage(t *testing.T, dir string) walImage {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	slices.Sort(paths)
	var img walImage
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		img.names = append(img.names, filepath.Base(p))
		img.segs = append(img.segs, b)
	}
	return img
}

// walCut is a crash image of a walImage: the segments before seg whole,
// seg cut to off bytes, none after.
type walCut struct{ seg, off int }

func (c walCut) String() string { return fmt.Sprintf("segment %d at byte %d", c.seg+1, c.off) }

// ends lists the cut after each whole record, in log order.
func (img walImage) ends() []walCut {
	var out []walCut
	for s, seg := range img.segs {
		for off := 8; off+8 <= len(seg); {
			off += 8 + int(binary.LittleEndian.Uint32(seg[off:]))
			out = append(out, walCut{s, off})
		}
	}
	return out
}

// cuts returns the explored cuts of img: every record boundary from the
// floor-th record on, and the byte cuts inside frames (see
// prefixByteBound). The cut right after the floor record comes first.
func (img walImage) cuts(floor int) []walCut {
	ends := img.ends()
	from := ends[floor-1]
	size := 0
	for s := from.seg; s < len(img.segs); s++ {
		size += len(img.segs[s])
	}
	size -= from.off
	var out []walCut
	for k := floor - 1; k < len(ends); k++ {
		out = append(out, ends[k])
		if k+1 == len(ends) || (size > prefixByteBound && k+2 < len(ends)) {
			continue
		}
		// Every byte up to the next record's end: a torn frame, and a torn
		// header of a segment the rotation had just created.
		next, at := ends[k+1], ends[k]
		if next.seg != at.seg {
			at = walCut{next.seg, 0}
		}
		for off := at.off + 1; off < next.off; off++ {
			out = append(out, walCut{next.seg, off})
		}
	}
	return out
}

// write stages the crash image c of img in dir, replacing what is there.
func (img walImage) write(t *testing.T, dir string, c walCut) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for s := 0; s <= c.seg; s++ {
		b := img.segs[s]
		if s == c.seg {
			b = b[:c.off]
		}
		if err := os.WriteFile(filepath.Join(dir, img.names[s]), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// leakKeys renders a quarantine report comparably (the error text differs
// between a live leak and its re-report).
func leakKeys(qs []Quarantine) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = fmt.Sprintf("%s %s %s", q.Component, q.Txn, q.Op)
	}
	return out
}

// loggedLeaks checks that every TypeQuarantine of recs is in the report,
// and that the report names no leak twice.
func loggedLeaks(recs []wal.Record, first uint64, reported []Quarantine) error {
	keys := leakKeys(reported)
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			return fmt.Errorf("leak %q reported twice: %v", k, keys)
		}
		seen[k] = true
	}
	for _, r := range recs {
		if r.Type != wal.TypeQuarantine || r.Ref < first || r.Ref-first >= uint64(len(recs)) {
			continue
		}
		apl := &recs[r.Ref-first]
		if k := fmt.Sprintf("%s %s %s", apl.Comp, apl.Txn, opOf(apl)); !seen[k] {
			return fmt.Errorf("logged quarantine %q not re-reported: %v", k, keys)
		}
	}
	return nil
}

// effect is op's change to an integer item.
func effect(op data.Op) int64 {
	switch op.Mode {
	case data.ModeIncr, data.ModeRelease:
		return op.Arg
	case data.ModeReserve:
		return -op.Arg
	}
	return 0
}

// settledEffect sums, over the applies of recs whose transaction won
// took effect for good — not cancelled, and not compensated unless the
// compensation was quarantined — each one's effect.
func settledEffect(recs []wal.Record, first uint64, won func(txn string) bool) int64 {
	undone := map[uint64]bool{}
	for _, r := range recs {
		switch r.Type {
		case wal.TypeApplyFail, wal.TypeComp:
			undone[r.Ref] = true
		}
	}
	for _, r := range recs {
		if r.Type == wal.TypeQuarantine {
			delete(undone, r.Ref)
		}
	}
	var sum int64
	for i, r := range recs {
		if r.Type == wal.TypeApply && !undone[first+uint64(i)] && won(r.Txn) {
			sum += effect(opOf(&recs[i]))
		}
	}
	return sum
}

func leakedEffect(qs []Quarantine) int64 {
	var sum int64
	for _, q := range qs {
		sum += effect(q.Op)
	}
	return sum
}

// --- Runtime logs ---

// runtimeRecovery is one recovery of a runtime log, comparably.
type runtimeRecovery struct {
	Stores map[string]map[string]int64
	Leaks  []string
	System string
}

func recoverRuntimeState(t *testing.T, dir string) (runtimeRecovery, *Recovered, error) {
	t.Helper()
	rec, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		return runtimeRecovery{}, nil, err
	}
	defer rec.Runtime.CloseWAL()
	st := runtimeRecovery{Stores: map[string]map[string]int64{}, Leaks: leakKeys(rec.Runtime.Quarantined())}
	for name, c := range rec.Runtime.comps {
		if c.store != nil {
			st.Stores[name] = c.store.Snapshot()
		}
	}
	st.System = string(normalEncoding(t, rec.Runtime.RecordedSystem()))
	return st, rec, nil
}

// runtimeConservation checks one recovered runtime against the crash
// image it recovered: stores, the log's records and their first LSN.
type runtimeConservation func(rt *Runtime, recs []wal.Record, first uint64) error

// checkRuntimePrefix runs every assertion on the crash image in dir.
func checkRuntimePrefix(t *testing.T, dir string, conserve runtimeConservation) error {
	t.Helper()
	scan, err := wal.ScanDir(dir)
	if err != nil {
		return err
	}
	once, rec, err := recoverRuntimeState(t, dir)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	if err := conserve(rec.Runtime, scan.Records, scan.Info.FirstLSN); err != nil {
		return err
	}
	if err := loggedLeaks(scan.Records, scan.Info.FirstLSN, rec.Runtime.Quarantined()); err != nil {
		return err
	}
	n := recordCount(t, dir)
	twice, again, err := recoverRuntimeState(t, dir)
	if err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	if !reflect.DeepEqual(once, twice) {
		return fmt.Errorf("second recovery differs:\nonce:  %+v\ntwice: %+v", once, twice)
	}
	if m := recordCount(t, dir); m != n || again.Stats.Undone != 0 || again.Stats.InFlight != 0 {
		return fmt.Errorf("second recovery appended %d records, undid %d of %d in flight", m-n, again.Stats.Undone, again.Stats.InFlight)
	}
	return nil
}

// exploreRuntime recovers every explored prefix of the runtime log in dir,
// from the floor-th record on, and fails listing the prefixes that break.
func exploreRuntime(t *testing.T, dir string, floor int, conserve runtimeConservation) {
	t.Helper()
	img := readWALImage(t, dir)
	work := filepath.Join(t.TempDir(), "cut")
	var bad []string
	cuts := img.cuts(floor)
	for _, c := range cuts {
		img.write(t, work, c)
		if err := checkRuntimePrefix(t, work, conserve); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", c, err))
		}
	}
	t.Logf("%d prefixes of %d records", len(cuts), len(img.ends()))
	if len(bad) > 0 {
		t.Fatalf("%d of %d prefixes fail; the first:\n%s", len(bad), len(cuts), strings.Join(bad[:min(3, len(bad))], "\n"))
	}
}

// escrowConserved: the seats are the committed transactions' escrow
// operations plus the leaked ones, never below zero.
func escrowConserved(rt *Runtime, recs []wal.Record, first uint64) error {
	committed := map[string]bool{}
	for _, r := range recs {
		if r.Type == wal.TypeCommit {
			committed[r.Txn] = true
		}
	}
	n := rt.Store("seats").Get("n")
	want := settledEffect(recs, first, func(txn string) bool { return committed[txn] }) + leakedEffect(rt.Quarantined())
	if n != want || n < 0 {
		return fmt.Errorf("seats n = %d, want %d (committed escrow operations plus leaks)", n, want)
	}
	return nil
}

// bankConserved: transfers move money, so the branches hold the seeded
// total plus what leaked.
func bankConserved(total int64) runtimeConservation {
	return func(rt *Runtime, _ []wal.Record, _ uint64) error {
		var sum int64
		for _, name := range []string{"east", "west"} {
			for _, v := range rt.Store(name).Snapshot() {
				sum += v
			}
		}
		if want := total + leakedEffect(rt.Quarantined()); sum != want {
			return fmt.Errorf("branches hold %d, want %d", sum, want)
		}
		return nil
	}
}

// branchTransfer moves amt from east/from to west/to; a failing one
// client-aborts after its first leg.
func branchTransfer(from, to int, amt int64, fail bool) Invocation {
	f, w := fmt.Sprintf("a%d", from), fmt.Sprintf("a%d", to)
	steps := []Step{
		leafAt("east", f, data.Op{Mode: data.ModeIncr, Item: f, Arg: -amt}),
		leafAt("west", w, data.Op{Mode: data.ModeIncr, Item: w, Arg: amt}),
	}
	if fail {
		steps = []Step{steps[0], {Fail: errors.New("client abort")}}
	}
	return Invocation{Component: "bank", Steps: steps}
}

// branchRuntime is the bank over six accounts per branch, 1 000 each.
func branchRuntime(t *testing.T, certify bool, cfg WALConfig) *Runtime {
	t.Helper()
	rt := transferTopo().NewRuntime(Hybrid)
	for _, comp := range []string{"east", "west"} {
		for i := 0; i < 6; i++ {
			rt.Store(comp).Set(fmt.Sprintf("a%d", i), 1000)
		}
	}
	if certify {
		if err := rt.EnableCertify(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.EnableWAL(cfg); err != nil {
		t.Fatal(err)
	}
	return rt
}

// branchRoots submits n transfers named prefix1.., every third aborting.
func branchRoots(t *testing.T, rt *Runtime, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		fail := i%3 == 2
		_, err := rt.Submit(fmt.Sprintf("%s%d", prefix, i+1), branchTransfer(i%6, (i+2)%6, int64(i+1), fail))
		if fail != errors.Is(err, ErrClientAbort) || !fail && err != nil {
			t.Fatalf("%s%d: %v", prefix, i+1, err)
		}
	}
}

// crashTransfer crashes rt between the two legs of one more transfer.
func crashTransfer(t *testing.T, rt *Runtime) {
	t.Helper()
	rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultCrash, Txn: "Tcrash", Step: "Tcrash/2/1"}}})
	if _, err := rt.Submit("Tcrash", branchTransfer(0, 1, 7, false)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Tcrash: %v, want the crash", err)
	}
}

// --- Cluster logs ---

// clusterRecovery is one recovery of a cluster's logs, comparably.
type clusterRecovery struct {
	Parts     map[string]partRecovery
	Committed map[string]string
	System    string
}

type partRecovery struct {
	Store    map[string]int64
	Leaks    []string
	InDoubt  map[string]string
	Resolved []string
	Aborted  map[string]uint32
}

// frozenRecovery recovers a cluster with no timer that could act: what is
// inspected is exactly what recovery rebuilt.
func frozenRecovery(root string) DistConfig {
	return DistConfig{WALRoot: root, Transport: "chan", QueryAfter: time.Hour, SweepEvery: time.Hour, AbandonAfter: time.Hour}
}

// haltCluster takes every node down without a re-delivery round.
func haltCluster(cl *Cluster) {
	cl.CrashCoordinator()
	for _, p := range cl.participants() {
		p.crashNow()
	}
	cl.Close()
}

func clusterState(t *testing.T, cl *Cluster) clusterRecovery {
	t.Helper()
	st := clusterRecovery{Parts: map[string]partRecovery{}, Committed: map[string]string{}}
	for _, p := range cl.participants() {
		if p.c.store == nil {
			continue
		}
		p.mu.Lock()
		ps := partRecovery{Store: p.c.store.Snapshot(), Leaks: leakKeys(p.leaks.all()),
			InDoubt: map[string]string{}, Aborted: map[string]uint32{}}
		for txn, tx := range p.txns {
			ps.InDoubt[txn] = fmt.Sprintf("attempt %d ts %d undo %d prepared %v", tx.attempt, tx.ts, len(tx.undo), tx.prepared)
		}
		for txn := range p.resolved {
			ps.Resolved = append(ps.Resolved, txn)
		}
		slices.Sort(ps.Resolved)
		for txn, at := range p.aborted {
			ps.Aborted[txn] = at
		}
		p.mu.Unlock()
		st.Parts[p.c.name] = ps
	}
	c := cl.coordinator()
	c.mu.Lock()
	for txn, ct := range c.committed {
		pending := slices.Clone(ct.pending)
		slices.Sort(pending)
		st.Committed[txn] = fmt.Sprintf("attempt %d parts %v pending %v ended %v", ct.attempt, ct.parts, pending, ct.ended)
	}
	c.mu.Unlock()
	st.System = string(normalEncoding(t, cl.RecordedSystem()))
	return st
}

// clusterConserved: every store item, less the effects of in-doubt
// transactions the recovered coordinator will abort, is the seeded total
// plus the effects of the transactions it committed plus the leaks.
func clusterConserved(cl *Cluster, seeded int64, partRecs map[string][]wal.Record) error {
	c := cl.coordinator()
	c.mu.Lock()
	committed := map[string]uint32{}
	for txn, ct := range c.committed {
		committed[txn] = ct.attempt
	}
	c.mu.Unlock()
	won := func(txn string) bool { _, ok := committed[txn]; return ok }
	var sum, want int64 = 0, seeded
	for _, p := range cl.participants() {
		if p.c.store == nil {
			continue
		}
		for _, v := range p.c.store.Snapshot() {
			sum += v
		}
		p.mu.Lock()
		for txn, tx := range p.txns {
			if at, ok := committed[txn]; !ok || at != tx.attempt {
				for _, u := range tx.undo {
					sum -= effect(u.op)
				}
			}
		}
		p.mu.Unlock()
		want += settledEffect(partRecs[p.c.name], 1, won) + leakedEffect(p.leaks.all())
	}
	if sum != want {
		return fmt.Errorf("stores hold %d once in-doubt aborts are taken back, want %d", sum, want)
	}
	return nil
}

// forcesAllow reports whether a participant's log prefix can coexist with
// a coordinator's: a commit decision needs the updater's forced prepare, a
// participant's commit record needs the decision it was sent, and an end
// needs every updater's commit record durable.
func forcesAllow(t *testing.T, coord []wal.Record, part string, recs []wal.Record) bool {
	prepared, committed := map[string]bool{}, map[string]bool{}
	for _, r := range recs {
		switch {
		case r.Type == wal.TypePrepare:
			prepared[r.Txn] = true
		case r.Type == wal.TypeDecision && r.Mode == "commit":
			committed[r.Txn] = true
		}
	}
	decided := map[string]bool{}
	for i := range coord {
		r := &coord[i]
		switch r.Type {
		case wal.TypeDecision:
			_, parts, err := decodeOutcome(r, uint64(i+1), true)
			if err != nil {
				t.Fatal(err)
			}
			decided[r.Txn] = slices.Contains(parts, part)
			if decided[r.Txn] && !prepared[r.Txn] {
				return false
			}
		case wal.TypeEnd:
			if decided[r.Txn] && !committed[r.Txn] {
				return false
			}
		}
	}
	for txn := range committed {
		if _, ok := decided[txn]; !ok {
			return false
		}
	}
	return true
}

// exploreCluster recovers every explored combination of the cluster's log
// prefixes under root; floors gives each log's first synced record count.
func exploreCluster(t *testing.T, root string, floors map[string]int, seeded int64) {
	t.Helper()
	dirs := map[string]string{coordName: coordDir(root)}
	var parts []string
	for name := range floors {
		if name != coordName {
			parts = append(parts, name)
			dirs[name] = partDir(root, name)
		}
	}
	slices.Sort(parts)
	imgs, recs, ends := map[string]walImage{}, map[string][]wal.Record{}, map[string][]walCut{}
	for name, dir := range dirs {
		img := readWALImage(t, dir)
		imgs[name], ends[name] = img, img.ends()
		rs, _, err := wal.ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		recs[name] = rs
	}
	// combos: per log, the record count of its prefix.
	seen := map[string]bool{}
	var combos []map[string]int
	longest := func(cc int, part string) int {
		for n := len(recs[part]); n >= floors[part]; n-- {
			if forcesAllow(t, recs[coordName][:cc], part, recs[part][:n]) {
				return n
			}
		}
		return -1
	}
	for _, part := range parts {
		for n := floors[part]; n <= len(recs[part]); n++ {
			for cc := floors[coordName]; cc <= len(recs[coordName]); cc++ {
				if !forcesAllow(t, recs[coordName][:cc], part, recs[part][:n]) {
					continue
				}
				combo := map[string]int{coordName: cc, part: n}
				ok := true
				for _, other := range parts {
					if other != part {
						combo[other] = longest(cc, other)
						ok = ok && combo[other] >= 0
					}
				}
				if key := fmt.Sprint(combo); ok && !seen[key] {
					seen[key] = true
					combos = append(combos, combo)
				}
			}
		}
	}
	work := filepath.Join(t.TempDir(), "cut")
	var bad []string
	for _, combo := range combos {
		if err := os.RemoveAll(work); err != nil {
			t.Fatal(err)
		}
		cut := map[string][]wal.Record{}
		for name, n := range combo {
			rel, _ := filepath.Rel(root, dirs[name])
			imgs[name].write(t, filepath.Join(work, rel), ends[name][n-1])
			cut[name] = recs[name][:n]
		}
		if err := checkClusterPrefix(t, work, seeded, cut); err != nil {
			bad = append(bad, fmt.Sprintf("records %v: %v", combo, err))
		}
	}
	t.Logf("%d prefix combinations", len(combos))
	if len(bad) > 0 {
		t.Fatalf("%d of %d prefix combinations fail; the first:\n%s", len(bad), len(combos), strings.Join(bad[:min(3, len(bad))], "\n"))
	}
}

func checkClusterPrefix(t *testing.T, root string, seeded int64, cut map[string][]wal.Record) error {
	t.Helper()
	if err := CheckEnded(root); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}
	recover := func() (clusterRecovery, error) {
		cl, err := RecoverCluster(frozenRecovery(root))
		if err != nil {
			return clusterRecovery{}, err
		}
		defer haltCluster(cl)
		st := clusterState(t, cl)
		if err := clusterConserved(cl, seeded, cut); err != nil {
			return st, err
		}
		for _, p := range cl.participants() {
			if err := loggedLeaks(cut[p.c.name], 1, p.leaks.all()); err != nil {
				return st, fmt.Errorf("%s: %w", p.c.name, err)
			}
		}
		return st, nil
	}
	once, err := recover()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	twice, err := recover()
	if err != nil {
		return fmt.Errorf("second recovery: %w", err)
	}
	if !reflect.DeepEqual(once, twice) {
		return fmt.Errorf("second recovery differs:\nonce:  %+v\ntwice: %+v", once, twice)
	}
	if err := CheckEnded(root); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}
	return nil
}

func TestRecoverEveryPrefix(t *testing.T) {
	t.Run("escrow-leak/runtime", func(t *testing.T) {
		rt := seatsTopo().NewRuntime(NoCC)
		rt.Store("seats").Set("n", 0)
		dir := t.TempDir()
		if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		floor := int(rt.WALRecords())
		escrowLeak(t, rt.Submit)
		if err := rt.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		exploreRuntime(t, dir, floor, escrowConserved)
	})
	t.Run("refused-undo/runtime", func(t *testing.T) {
		rt := seatsTopo().NewRuntime(NoCC)
		rt.Store("seats").Set("n", 0)
		dir := t.TempDir()
		if err := rt.EnableWAL(WALConfig{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		floor := int(rt.WALRecords())
		rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultCrash, Txn: "T1", Step: "T1/2"}}})
		errc, resume := holdRelease(t, rt.Submit, seatsOp(data.ModeRelease, 1))
		resume()
		if err := <-errc; !errors.Is(err, ErrCrashed) {
			t.Fatalf("T1: %v, want the crash", err)
		}
		exploreRuntime(t, dir, floor, escrowConserved)
	})
	t.Run("checkpointed", func(t *testing.T) {
		// Small segments, so the first cut (a base batch) truncates the
		// log; the floor is the marker that allowed it. The second cut is
		// a delta batch whose barrier deletes nothing more, so every
		// explored prefix is a crash image the run could have left.
		dir := t.TempDir()
		rt := branchRuntime(t, false, WALConfig{Dir: dir, SegmentBytes: 1024})
		branchRoots(t, rt, "A", 6)
		st, err := rt.Checkpoint()
		if err != nil || st.SegmentsDeleted == 0 {
			t.Fatalf("first cut: %+v, %v; want a truncation", st, err)
		}
		scan, err := wal.ScanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		floor := int(rt.WALRecords() - scan.Info.FirstLSN + 1)
		branchRoots(t, rt, "B", 3)
		if st, err := rt.Checkpoint(); err != nil || st.Base || st.SegmentsDeleted != 0 {
			t.Fatalf("second cut: %+v, %v; want a delta that truncates nothing", st, err)
		}
		branchRoots(t, rt, "C", 2)
		crashTransfer(t, rt)
		exploreRuntime(t, dir, floor, bankConserved(12000))
	})
	t.Run("certified", func(t *testing.T) {
		dir := t.TempDir()
		rt := branchRuntime(t, true, WALConfig{Dir: dir})
		floor := int(rt.WALRecords())
		branchRoots(t, rt, "T", 4)
		crashTransfer(t, rt)
		exploreRuntime(t, dir, floor, bankConserved(12000))
	})
	t.Run("escrow-leak/cluster", func(t *testing.T) {
		root := t.TempDir()
		cl := startCluster(t, DistConfig{Protocol: NoCC, Topo: seatsTopo(), Transport: "chan",
			WALRoot: root, Seeds: map[string]map[string]int64{"seats": {"n": 0}}})
		escrowLeak(t, cl.Submit)
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		exploreCluster(t, root, map[string]int{coordName: 1, "seats": 2}, 0)
	})
	t.Run("transfer/cluster", func(t *testing.T) {
		cfg := distConfig(t, Hybrid, "chan", true)
		cl := startCluster(t, cfg)
		for i, prog := range transferPrograms(2) {
			if _, err := cl.Submit(fmt.Sprintf("T%d", i+1), prog); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		exploreCluster(t, cfg.WALRoot, map[string]int{coordName: 1, "east": 2, "west": 1}, distInitial)
	})
}
