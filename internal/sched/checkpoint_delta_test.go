package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/wal"
)

// Delta-checkpoint suite. The law under test is
//
//	seeds ⊕ base ⊕ deltas ⊕ tail redo ≡ model
//
// — whatever mix of base and delta batches the cuts of a run wrote, and
// wherever the run died, recovery lands every store item on the value a
// shadow model holds at the durable commit count. Around it: the exact
// records a cut writes, the amortisation rule that picks base or delta,
// the truncation barrier, and the marks a failed cut must leave set.

const (
	deltaAccounts = 12 // per branch store
	deltaSeedBal  = 1000
)

// deltaModel is the shadow of the stores: component -> item -> value.
type deltaModel map[string]map[string]int64

func deltaSeeds() deltaModel {
	m := deltaModel{"east": {"pinned": 7}, "west": {}}
	for _, comp := range []string{"east", "west"} {
		for i := 0; i < deltaAccounts; i++ {
			m[comp][fmt.Sprintf("a%d", i)] = deltaSeedBal
		}
	}
	return m
}

func (m deltaModel) items() int { return len(m["east"]) + len(m["west"]) }

// deltaProg is one root with what it does to the model when it commits
// and which items it installs versions on even when it does not.
type deltaProg struct {
	inv     Invocation
	commits bool
	effect  func(deltaModel)
	touches []string // "comp/item"
}

func leafAt(comp, item string, op data.Op) Step {
	return Step{Invoke: &Invocation{Component: comp, Item: item, Mode: op.Mode, Steps: []Step{{Op: &op}}}}
}

// deltaTraffic draws n roots: transfers between the branches, audits,
// overwrites of a small hot set, and transfers the client aborts after
// the first leg (applied, then compensated: a mutation that changes no
// value).
func deltaTraffic(rng *rand.Rand, n int) []deltaProg {
	progs := make([]deltaProg, n)
	for i := range progs {
		from := fmt.Sprintf("a%d", rng.Intn(deltaAccounts))
		to := fmt.Sprintf("a%d", rng.Intn(deltaAccounts))
		amt := int64(rng.Intn(9) + 1)
		debit := leafAt("east", from, data.Op{Mode: data.ModeIncr, Item: from, Arg: -amt})
		credit := leafAt("west", to, data.Op{Mode: data.ModeIncr, Item: to, Arg: amt})
		switch k := rng.Intn(10); {
		case k < 5:
			progs[i] = deltaProg{
				inv: Invocation{Component: "bank", Steps: []Step{debit, credit}}, commits: true,
				effect:  func(m deltaModel) { m["east"][from] -= amt; m["west"][to] += amt },
				touches: []string{"east/" + from, "west/" + to},
			}
		case k < 7:
			progs[i] = deltaProg{
				inv: Invocation{Component: "bank", Steps: []Step{
					leafAt("east", from, data.Op{Mode: data.ModeRead, Item: from}),
					leafAt("west", to, data.Op{Mode: data.ModeRead, Item: to}),
				}}, commits: true,
				effect: func(deltaModel) {},
			}
		case k < 9:
			hot, val := fmt.Sprintf("a%d", rng.Intn(3)), int64(rng.Intn(5000))
			progs[i] = deltaProg{
				inv: Invocation{Component: "bank", Steps: []Step{
					leafAt("west", hot, data.Op{Mode: data.ModeWrite, Item: hot, Arg: val}),
				}}, commits: true,
				effect:  func(m deltaModel) { m["west"][hot] = val },
				touches: []string{"west/" + hot},
			}
		default:
			progs[i] = deltaProg{
				inv:     Invocation{Component: "bank", Steps: []Step{debit, {Fail: errors.New("client changed its mind")}}},
				touches: []string{"east/" + from},
			}
		}
	}
	return progs
}

// newDeltaRuntime builds the certified, journaled bank the suite runs on.
func newDeltaRuntime(t *testing.T, cfg WALConfig) *Runtime {
	t.Helper()
	rt := transferTopo().NewRuntime(Hybrid)
	for comp, items := range deltaSeeds() {
		for item, v := range items {
			rt.Store(comp).Set(item, v)
		}
	}
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	if err := rt.EnableWAL(cfg); err != nil {
		t.Fatal(err)
	}
	return rt
}

// submitDelta runs one root and checks it ended the way it was drawn.
func submitDelta(t *testing.T, rt *Runtime, name string, p deltaProg) {
	t.Helper()
	_, err := rt.Submit(name, p.inv)
	if p.commits && err != nil || !p.commits && !errors.Is(err, ErrClientAbort) {
		t.Fatalf("%s: %v (drawn to commit: %v)", name, err, p.commits)
	}
}

func storesOf(rt *Runtime) deltaModel {
	return deltaModel{"east": rt.Store("east").Snapshot(), "west": rt.Store("west").Snapshot()}
}

func requireModel(t *testing.T, what string, rt *Runtime, want deltaModel) {
	t.Helper()
	if got := storesOf(rt); !reflect.DeepEqual(got, want) {
		for comp := range want {
			for item, v := range want[comp] {
				if got[comp][item] != v {
					t.Errorf("%s: %s/%s = %d, the model holds %d", what, comp, item, got[comp][item], v)
				}
			}
		}
		t.Fatalf("%s: stores differ from the model", what)
	}
}

// pin parks a root that has incremented east/pinned and not yet
// committed; release lets it run on. It stays in flight across every cut
// (and the crash) in between.
func pin(t *testing.T, rt *Runtime) (release func() error) {
	t.Helper()
	reached, gate, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	prog := Invocation{Component: "bank", Steps: []Step{
		leafAt("east", "pinned", data.Op{Mode: data.ModeIncr, Item: "pinned", Arg: 5}),
		{Sync: func() { close(reached); <-gate }, Invoke: leafAt("east", "pinned", data.Op{Mode: data.ModeRead, Item: "pinned"}).Invoke},
	}}
	go func() {
		_, err := rt.Submit("Tpin", prog)
		done <- err
	}()
	<-reached
	return func() error { close(gate); return <-done }
}

// TestCheckpointDeltaLaw is the property test of the law: seeded mixed
// traffic under a checkpoint cadence, killed at a commit site or inside a
// cut, recovered, compared item by item with the model at the durable
// commit count, recovered again (idempotence), then run on — the second
// life starts with a base batch over whatever the crash left in the log —
// and recovered once more.
func TestCheckpointDeltaLaw(t *testing.T) {
	const roots = 60
	sites := []string{"commit", "post-commit", "begin", "marker", "end"}
	for _, every := range []int{1, 3, 8} {
		for seed := int64(1); seed <= 10; seed++ {
			site := sites[int(seed)%len(sites)]
			pinned := seed%2 == 0
			t.Run(fmt.Sprintf("every=%d/seed=%d/%s", every, seed, site), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*31 + int64(every)))
				progs := deltaTraffic(rng, roots)
				dir := filepath.Join(t.TempDir(), "wal")
				rt := newDeltaRuntime(t, WALConfig{Dir: dir, SegmentBytes: 2048})
				rt.EnableCheckpoints(CheckpointConfig{Every: every})
				release := func() error { return ErrCrashed }
				if pinned {
					release = pin(t, rt)
				}

				// Where to die: at the commit of one root drawn to commit,
				// or inside the cut after a drawn number of cuts.
				var committing []int
				for i, p := range progs {
					if p.commits {
						committing = append(committing, i)
					}
				}
				victim := committing[len(committing)/3+rng.Intn(len(committing)/2)]
				afterCuts := int64(1 + rng.Intn(len(committing)/every-1))
				atCommit := site == "commit" || site == "post-commit"
				if atCommit {
					rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultCrash, Txn: fmt.Sprintf("T%d", victim), Step: site}}})
				}
				wantDurable, armed := 0, atCommit
				for i, p := range progs {
					if !armed && rt.Checkpoints() == afterCuts {
						armed = true
						rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultCrash, Txn: "checkpoint", Step: site}}})
					}
					if atCommit && i == victim {
						if _, err := rt.Submit(fmt.Sprintf("T%d", i), p.inv); !errors.Is(err, ErrCrashed) {
							t.Fatalf("victim T%d returned %v, want ErrCrashed", i, err)
						}
						if site == "post-commit" {
							wantDurable++
						}
						break
					}
					submitDelta(t, rt, fmt.Sprintf("T%d", i), p)
					if p.commits {
						wantDurable++
					}
					if rt.Crashed() {
						break
					}
				}
				if !rt.Crashed() {
					t.Fatalf("the run never reached its crash site (%d cuts taken)", rt.Checkpoints())
				}
				if err := release(); !errors.Is(err, ErrCrashed) {
					t.Fatalf("the pinned root ended with %v, want ErrCrashed", err)
				}
				if err := rt.WALError(); err != nil {
					t.Fatal(err)
				}

				// First life recovered: the model at the durable count.
				rec, err := Recover(WALConfig{Dir: dir, SegmentBytes: 2048})
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if rec.Stats.Committed != wantDurable {
					t.Fatalf("recovered %d commits, %d were durable", rec.Stats.Committed, wantDurable)
				}
				model, next := deltaSeeds(), 0
				for n := 0; n < wantDurable; next++ {
					if progs[next].commits {
						progs[next].effect(model)
						n++
					}
				}
				requireModel(t, "first recovery", rec.Runtime, model)
				if pinned && rec.Stats.InFlight == 0 {
					t.Fatal("the pinned root was in flight at the crash; recovery undid nothing")
				}
				if err := rec.Runtime.CloseWAL(); err != nil {
					t.Fatal(err)
				}

				// Idempotence: recovering the recovered log changes nothing.
				again, err := Recover(WALConfig{Dir: dir, SegmentBytes: 2048})
				if err != nil {
					t.Fatalf("second recovery: %v", err)
				}
				if again.Stats.Committed != wantDurable || again.Stats.Undone != 0 {
					t.Fatalf("second recovery: %d commits, %d undone; want %d and 0", again.Stats.Committed, again.Stats.Undone, wantDurable)
				}
				requireModel(t, "second recovery", again.Runtime, model)

				// Second life on the recovered runtime: its first cut must be
				// a base, later ones may be deltas.
				rt2 := again.Runtime
				rt2.EnableCheckpoints(CheckpointConfig{Every: every})
				more := deltaTraffic(rng, 3*every+2)
				for i, p := range more {
					submitDelta(t, rt2, fmt.Sprintf("U%d", i), p)
					if p.commits {
						p.effect(model)
					}
				}
				m := rt2.Metrics()
				if m.CheckpointsTaken == 0 || m.CheckpointBases == 0 {
					t.Fatalf("second life: %d cuts, %d bases; the first cut after Recover must be a base", m.CheckpointsTaken, m.CheckpointBases)
				}
				if err := rt2.CloseWAL(); err != nil {
					t.Fatal(err)
				}
				last, err := Recover(WALConfig{Dir: dir})
				if err != nil {
					t.Fatalf("third recovery: %v", err)
				}
				requireModel(t, "third recovery", last.Runtime, model)
				if !last.Verdict.Correct {
					t.Fatal("recovered execution failed the Comp-C check")
				}
				last.Runtime.CloseWAL()
			})
		}
	}
}

// TestCheckpointDeltaCountsAndRetention drives the cuts by hand over
// segments small enough that truncation really deletes files, and checks
// every cut's batch against what the window touched and what the
// amortisation rule says: a delta journals exactly the distinct items
// mutated since the previous cut, a base every item; a base is taken when
// (and only when) this cut's items plus the deltas since the last base
// would reach the item count; the log never retains 2x the item count in
// ck-items, and the last base with every delta after it survives.
func TestCheckpointDeltaCountsAndRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := filepath.Join(t.TempDir(), "wal")
	rt := newDeltaRuntime(t, WALConfig{Dir: dir, SegmentBytes: 1024})
	model := deltaSeeds()
	total := model.items()

	type cut struct {
		first, marker uint64 // LSNs of the batch's first item and of the marker
		items         int
		base          bool
	}
	var cuts []cut
	sinceBase, bases, deleted := 0, 0, 0
	for round, next := 0, 0; round < 40; round++ {
		// A window of 0..6 roots; every few rounds an empty one.
		window := map[string]bool{}
		n := rng.Intn(7)
		if round%4 == 3 {
			n = 0
		}
		for ; n > 0; n-- {
			p := deltaTraffic(rng, 1)[0]
			submitDelta(t, rt, fmt.Sprintf("T%d", next), p)
			next++
			if p.commits {
				p.effect(model)
			}
			for _, it := range p.touches {
				window[it] = true
			}
		}
		before := rt.WALRecords()
		st, err := rt.Checkpoint()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		wantBase := len(cuts) == 0 || sinceBase+len(window) >= total
		wantItems := len(window)
		if wantBase {
			wantItems = total
		}
		if st.Base != wantBase || st.Items != wantItems {
			t.Fatalf("round %d: cut journaled %d items (base=%v); the window touched %d items with %d deltas since the base over %d items, so want %d (base=%v)",
				round, st.Items, st.Base, len(window), sinceBase, total, wantItems, wantBase)
		}
		if got := rt.WALRecords() - before; got != uint64(wantItems)+1 {
			t.Fatalf("round %d: the cut appended %d records, want %d items + the marker", round, got, wantItems)
		}
		if wantBase {
			sinceBase, bases = 0, bases+1
		} else {
			sinceBase += wantItems
		}
		if sinceBase >= total {
			t.Fatalf("round %d: %d delta items since the base over %d store items", round, sinceBase, total)
		}
		deleted += st.SegmentsDeleted
		cuts = append(cuts, cut{first: st.LSN - uint64(st.Items), marker: st.LSN, items: st.Items, base: st.Base})
	}
	if bases < 3 || bases > len(cuts)/2 {
		t.Fatalf("%d bases in %d cuts: the traffic does not exercise both kinds of batch", bases, len(cuts))
	}
	if deleted == 0 {
		t.Fatal("no segment was ever deleted: truncation was not exercised")
	}
	m := rt.Metrics()
	if m.CheckpointBases != int64(bases) || m.CheckpointsTaken != int64(len(cuts)) {
		t.Fatalf("metrics count %d bases in %d cuts, the test %d in %d", m.CheckpointBases, m.CheckpointsTaken, bases, len(cuts))
	}
	wantItems := int64(0)
	for _, c := range cuts {
		wantItems += int64(c.items)
	}
	if m.CheckpointItems != wantItems {
		t.Fatalf("metrics count %d ck-items, the cuts reported %d", m.CheckpointItems, wantItems)
	}
	if err := rt.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	// What the truncated log still holds.
	recs, info, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.FirstLSN == 1 {
		t.Fatal("the log still starts at LSN 1 after truncation")
	}
	lastBase := len(cuts) - 1
	for !cuts[lastBase].base {
		lastBase--
	}
	if info.FirstLSN > cuts[lastBase].first {
		t.Fatalf("the log starts at LSN %d, past the last base batch at %d", info.FirstLSN, cuts[lastBase].first)
	}
	at := func(lsn uint64) wal.Record { return recs[lsn-info.FirstLSN] }
	for _, c := range cuts[lastBase:] {
		for lsn := c.first; lsn < c.marker; lsn++ {
			if at(lsn).Type != wal.TypeCkItem {
				t.Fatalf("LSN %d of the batch below marker %d holds a %s record", lsn, c.marker, at(lsn).Type)
			}
		}
		if at(c.marker).Type != wal.TypeCheckpoint {
			t.Fatalf("LSN %d holds a %s record, want the marker", c.marker, at(c.marker).Type)
		}
	}
	retained := 0
	for i, rec := range recs {
		if rec.Type == wal.TypeCkItem && info.FirstLSN+uint64(i) >= cuts[lastBase].first {
			retained++
		}
	}
	if retained >= 2*total {
		t.Fatalf("the log retains %d ck-items since its last base over %d store items", retained, total)
	}

	rec, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	requireModel(t, "recovery of the truncated log", rec.Runtime, model)
	rec.Runtime.CloseWAL()
}

// TestCheckpointDeltaInFlight: an item an unfinished attempt has touched
// is journaled at the cut and stays marked, cut after cut, until the
// attempt resolves and a cut compacts its chain.
func TestCheckpointDeltaInFlight(t *testing.T) {
	rt := newDeltaRuntime(t, WALConfig{Dir: filepath.Join(t.TempDir(), "wal")})
	cutItems := func(what string, want ...string) {
		t.Helper()
		before := rt.WALRecords()
		st, err := rt.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if st.Base || st.Items != len(want) {
			t.Fatalf("%s: cut journaled %d items (base=%v), want the delta %v", what, st.Items, st.Base, want)
		}
		if got := rt.WALRecords() - before; got != uint64(len(want))+1 {
			t.Fatalf("%s: cut appended %d records, want %d", what, got, len(want)+1)
		}
	}
	if st, err := rt.Checkpoint(); err != nil || !st.Base || st.Items != deltaSeeds().items() {
		t.Fatalf("first cut of the log: %+v, %v; want a base over every item", st, err)
	}
	cutItems("nothing mutated")

	release := pin(t, rt)
	cutItems("pinned root in flight", "east/pinned")
	if v, marked := rt.Store("east").DirtySnapshot()["pinned"]; !marked || v != 12 {
		t.Fatalf("east/pinned after the cut: marked=%v value=%d; want it still marked at its uncommitted 12", marked, v)
	}
	cutItems("still in flight, nothing else mutated", "east/pinned")
	if err := release(); err != nil {
		t.Fatal(err)
	}
	cutItems("resolved, chain not yet compacted", "east/pinned")
	if d := rt.Store("east").DirtySnapshot(); len(d) != 0 {
		t.Fatalf("marks after the resolving cut: %v", d)
	}
	cutItems("clean again")
}

// TestCheckpointMarkerFailureKeepsMarks: a disk error between the batch
// and the marker (not a crash: the runtime lives on) leaves an orphan
// batch in the log and every mark set, so the next cut journals a
// superset and recovery — which overlays the orphan, now below a marker,
// before that superset — still meets the model.
func TestCheckpointMarkerFailureKeepsMarks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	// One record per segment (each append rotates first: LSN n lives in
	// segment n+1), so a directory squatting on a segment name fails
	// exactly the append of that LSN.
	rt := newDeltaRuntime(t, WALConfig{Dir: dir, SegmentBytes: 1})
	model := deltaSeeds()
	if _, err := rt.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	transfer := func(name, from, to string, amt int64) {
		t.Helper()
		submitDelta(t, rt, name, deltaProg{commits: true, inv: Invocation{Component: "bank", Steps: []Step{
			leafAt("east", from, data.Op{Mode: data.ModeIncr, Item: from, Arg: -amt}),
			leafAt("west", to, data.Op{Mode: data.ModeIncr, Item: to, Arg: amt}),
		}}})
		model["east"][from] -= amt
		model["west"][to] += amt
	}
	transfer("T1", "a1", "a2", 10)
	transfer("T2", "a3", "a2", 20)

	journaled := rt.WALRecords()
	squat := filepath.Join(dir, fmt.Sprintf("%08d.seg", journaled+3+1+1)) // 3 items, then the marker
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if st, err := rt.Checkpoint(); err == nil || errors.Is(err, ErrCrashed) {
		t.Fatalf("cut over a squatted marker segment returned %+v, %v; want a plain error", st, err)
	}
	if got := rt.WALRecords() - journaled; got != 3 {
		t.Fatalf("the failed cut left %d records, want its 3-item batch and no marker", got)
	}
	wantMarks := deltaModel{"east": {"a1": model["east"]["a1"], "a3": model["east"]["a3"]}, "west": {"a2": model["west"]["a2"]}}
	if got := (deltaModel{"east": rt.Store("east").DirtySnapshot(), "west": rt.Store("west").DirtySnapshot()}); !reflect.DeepEqual(got, wantMarks) {
		t.Fatalf("marks after the failed cut = %v, want %v", got, wantMarks)
	}
	if rt.Checkpoints() != 1 {
		t.Fatalf("%d cuts counted, the failed one must not be", rt.Checkpoints())
	}
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}

	// The runtime lives on; the next cut re-journals the three items with
	// the one the new transfer adds.
	transfer("T3", "a1", "a4", 5)
	st, err := rt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Base || st.Items != 4 {
		t.Fatalf("cut after the failed one journaled %d items (base=%v), want the 4-item delta", st.Items, st.Base)
	}
	if err := rt.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.CheckpointLSN != st.LSN {
		t.Fatalf("recovery anchored at %d, want the marker %d", rec.Stats.CheckpointLSN, st.LSN)
	}
	requireModel(t, "recovery over the orphan batch", rec.Runtime, model)
	rec.Runtime.CloseWAL()
}

// TestCheckpointMarkerMetaBytes: the marker's spliced metadata is byte
// for byte what encoding the whole ckMeta produced, quarantines included,
// so logs stay readable in both directions.
func TestCheckpointMarkerMetaBytes(t *testing.T) {
	rt := newDeltaRuntime(t, WALConfig{Dir: filepath.Join(t.TempDir(), "wal")})
	want := func() []byte {
		meta := ckMeta{
			walMeta:   walMeta{Version: 1, Protocol: rt.protocol.String(), Topology: topologyToDoc(rt.topo), Certify: rt.Certifying()},
			Seq:       rt.seq.Load(),
			Committed: rt.commits.Load(),
			Schedules: rt.ix.scheds,
		}
		for _, q := range rt.Quarantined() {
			meta.Quarantines = append(meta.Quarantines, ckQuarantine{
				Component: q.Component, Txn: q.Txn, Item: q.Op.Item, Mode: string(q.Op.Mode),
				Impl: string(q.Op.Impl), Arg: q.Op.Arg, Err: q.Err.Error(),
			})
		}
		b, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(what string) {
		t.Helper()
		got, err := rt.ckMetaBlob()
		if err != nil {
			t.Fatal(err)
		}
		if w := want(); string(got) != string(w) {
			t.Fatalf("%s:\n spliced %s\n encoded %s", what, got, w)
		}
	}
	check("fresh runtime")
	submitDelta(t, rt, "T1", deltaTraffic(rand.New(rand.NewSource(1)), 1)[0])
	rt.leaks.report(Quarantine{Component: "east", Txn: "T9", Op: data.Op{Mode: data.ModeIncr, Item: "a1", Arg: -3, Impl: data.ModeIncr}, Err: errors.New(`disk "gone"`)})
	check("after a commit and a quarantine")
}
