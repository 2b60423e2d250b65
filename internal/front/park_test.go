package front_test

import (
	"bytes"
	"fmt"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/workload"
)

// encodeSys renders a system to its canonical byte encoding (sorted
// nodes, schedules and relation pairs).
func encodeSys(t *testing.T, sys *model.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// parkingStreams runs fn over commit-by-commit streams of stack
// executions from disjoint to conflict-heavy.
func parkingStreams(fn func(tag string, deltas []*front.Delta)) {
	for _, cr := range []float64{0, 0.2, 0.6} {
		for seed := int64(1); seed <= 4; seed++ {
			sys := workload.Stack(workload.StackParams{
				Levels: 2, Roots: 6, Fanout: 2, ConflictRate: cr, Seed: seed,
			}).Sys
			fn(fmt.Sprintf("cr%.1f/seed%d", cr, seed), front.DecomposeByRoot(sys))
		}
	}
}

// TestParkingMatchesAppend streams each delta through Admit on one engine,
// which parks what it can, and through Append on another, which never
// parks. Verdicts and live node counts agree after every delta, and the
// systems byte for byte every few deltas and at the end (System absorbs
// what is parked, so comparing after every delta would hide parking).
func TestParkingMatchesAppend(t *testing.T) {
	const every = 3
	parked, admitted := 0, 0
	parkingStreams(func(tag string, deltas []*front.Delta) {
		parking := front.NewIncremental(front.IncrementalOptions{})
		appending := front.NewIncremental(front.IncrementalOptions{})
		for i, d := range deltas {
			tag := fmt.Sprintf("%s/delta%d", tag, i)
			parks := parking.Parks()
			gotV, gotErr := parking.Admit(d)
			if parking.Parks() > parks {
				parked++
			} else {
				admitted++
			}
			wantV, wantErr := appending.Append(d)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: Admit error %v, Append error %v", tag, gotErr, wantErr)
			}
			if wantErr != nil {
				continue // a delta naming a refused node: both refuse it
			}
			if wantV.Correct != (gotV == nil) || (gotV != nil && gotV.Reason != wantV.Reason) {
				t.Fatalf("%s: verdicts diverged: Admit %v, Append %v", tag, gotV, wantV)
			}
			if got, want := parking.LiveNodes(), appending.LiveNodes(); got != want {
				t.Fatalf("%s: live nodes diverged: parking %d, appending %d", tag, got, want)
			}
			if i%every == every-1 || i == len(deltas)-1 {
				got, want := encodeSys(t, parking.System()), encodeSys(t, appending.System())
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: systems diverged:\nparking:   %s\nappending: %s", tag, got, want)
				}
			}
		}
		if appending.Parks() != 0 {
			t.Fatalf("%s: Append parked %d deltas", tag, appending.Parks())
		}
	})
	if parked == 0 || admitted == 0 {
		t.Fatalf("sweep must take both paths: %d parked, %d admitted", parked, admitted)
	}
}

// TestParkingEligibility: nothing parks before the first admission, nor a
// delta carrying schedules, pairs or a new invocation edge. A pair naming
// a parked node gets its delta absorbed before the pair is validated, and
// a parked delta is validated only when it is absorbed.
func TestParkingEligibility(t *testing.T) {
	inc := front.NewIncremental(front.IncrementalOptions{})
	unparked := func(what string) {
		t.Helper()
		if inc.Parks() != 0 || front.ParkedNodes(inc) != 0 {
			t.Fatalf("%s: parked (%d parks, %d parked nodes)", what, inc.Parks(), front.ParkedNodes(inc))
		}
	}
	// Before any admission a nodes-only delta is admitted, and its
	// undeclared schedule fails validation with nothing changed.
	if _, err := inc.Admit(&front.Delta{Nodes: []front.DeltaNode{{ID: "t1", Sched: "S"}}}); err == nil {
		t.Fatal("first delta: undeclared schedule accepted")
	}
	unparked("first delta")
	if n := inc.LiveNodes(); n != 0 {
		t.Fatalf("rejected first delta left %d live nodes", n)
	}

	for _, tc := range []struct {
		what string
		d    *front.Delta
	}{
		{"seed", &front.Delta{
			Schedules: []model.ScheduleID{"S", "T"},
			Nodes:     []front.DeltaNode{{ID: "t1", Sched: "S"}, {ID: "t1.a", Parent: "t1", Sched: "T"}},
		}},
		{"schedules", &front.Delta{
			Schedules: []model.ScheduleID{"U"},
			Nodes:     []front.DeltaNode{{ID: "u1", Sched: "U"}},
		}},
		{"pairs", &front.Delta{
			Nodes:     []front.DeltaNode{{ID: "t2", Sched: "S"}, {ID: "t2.x", Parent: "t2"}},
			Conflicts: []front.DeltaPair{{Sched: "S", A: "t1.a", B: "t2.x"}},
		}},
		// Only S→T is in the invocation graph so far.
		{"new invocation edge", &front.Delta{
			Nodes: []front.DeltaNode{{ID: "t3", Sched: "S"}, {ID: "t3.a", Parent: "t3", Sched: "U"}},
		}},
	} {
		if v, err := inc.Admit(tc.d); err != nil || v != nil {
			t.Fatalf("%s: Admit = (%v, %v)", tc.what, v, err)
		}
		unparked(tc.what)
	}

	// A nodes-only delta over known edges parks and still counts as live.
	live := inc.LiveNodes()
	if v, err := inc.Admit(&front.Delta{
		Nodes: []front.DeltaNode{{ID: "t4", Sched: "S"}, {ID: "t4.a", Parent: "t4", Sched: "T"}},
	}); err != nil || v != nil {
		t.Fatalf("eligible delta: Admit = (%v, %v)", v, err)
	}
	if inc.Parks() != 1 || front.ParkedNodes(inc) != 2 || inc.LiveNodes() != live+2 {
		t.Fatalf("eligible delta: %d parks, %d parked nodes, %d live (want 1, 2, %d)",
			inc.Parks(), front.ParkedNodes(inc), inc.LiveNodes(), live+2)
	}
	// The pair names t4.a, which only validates once t4's delta is absorbed.
	if v, err := inc.Admit(&front.Delta{
		Nodes:     []front.DeltaNode{{ID: "t5", Sched: "S"}, {ID: "t5.x", Parent: "t5"}},
		Conflicts: []front.DeltaPair{{Sched: "S", A: "t4.a", B: "t5.x"}},
	}); err != nil || v != nil {
		t.Fatalf("pair naming a parked node: Admit = (%v, %v)", v, err)
	}
	if front.ParkedNodes(inc) != 0 || inc.System().Node("t4.a") == nil {
		t.Fatal("the named parked delta was not absorbed")
	}

	// Re-declaring t4 parks unvalidated; absorbing it reports the error.
	if _, err := inc.Admit(&front.Delta{Nodes: []front.DeltaNode{{ID: "t4", Sched: "S"}}}); err != nil {
		t.Fatalf("parking validated the delta: %v", err)
	}
	if _, err := inc.Append(&front.Delta{}); err == nil {
		t.Fatal("absorbing a re-declared node succeeded")
	}
	if front.ParkedNodes(inc) != 0 {
		t.Fatal("the invalid parked delta was kept")
	}
}

// TestParkingFold: Retire of every root leaves a parking engine empty, as
// it leaves an engine that never parked.
func TestParkingFold(t *testing.T) {
	foldedParked := false
	parkingStreams(func(tag string, deltas []*front.Delta) {
		parking := front.NewIncremental(front.IncrementalOptions{})
		appending := front.NewIncremental(front.IncrementalOptions{})
		for _, d := range deltas {
			// Violations and deltas naming a refused node are refused by
			// both; TestParkingMatchesAppend compares the verdicts.
			parking.Admit(d)
			appending.Append(d)
		}
		foldedParked = foldedParked || front.ParkedNodes(parking) > 0
		roots := appending.System().Roots()
		if err := appending.Retire(roots); err != nil {
			t.Fatalf("%s: Retire of the appending engine: %v", tag, err)
		}
		if err := parking.Retire(roots); err != nil {
			t.Fatalf("%s: Retire: %v", tag, err)
		}
		if parking.LiveNodes() != 0 || appending.LiveNodes() != 0 || front.ParkedNodes(parking) != 0 {
			t.Fatalf("%s: live nodes after the fold: parking %d (%d parked), appending %d",
				tag, parking.LiveNodes(), front.ParkedNodes(parking), appending.LiveNodes())
		}
	})
	if !foldedParked {
		t.Fatal("no fold dropped a parked delta")
	}
}

// TestParkingRetire retires the foldable roots of each stream's first
// half from a parking engine: the parked ones go unabsorbed, and every
// later Append verdict, and the final system, is byte-identical to a
// fresh engine's fed the pruned system.
func TestParkingRetire(t *testing.T) {
	droppedParked := false
	parkingStreams(func(tag string, deltas []*front.Delta) {
		half := len(deltas) / 2
		inc := front.NewIncremental(front.IncrementalOptions{})
		keep := front.NewIncremental(front.IncrementalOptions{})
		for _, d := range deltas[:half] {
			inc.Admit(d)
			keep.Append(d)
		}
		pruned := keep.System().Clone()
		targets := foldableRoots(pruned, deltas[half:])
		parked := front.ParkedNodes(inc)
		if err := inc.Retire(targets); err != nil {
			t.Fatalf("%s: Retire: %v", tag, err)
		}
		droppedParked = droppedParked || front.ParkedNodes(inc) < parked
		for _, id := range targets {
			pruned.RemoveTree(id)
		}
		if got, want := inc.LiveNodes(), pruned.NumNodes(); got != want {
			t.Fatalf("%s: %d live nodes after Retire, the pruned system has %d", tag, got, want)
		}
		fresh := front.NewIncremental(front.IncrementalOptions{})
		if _, err := fresh.Append(front.SystemDelta(pruned)); err != nil {
			t.Fatalf("%s: fresh engine: %v", tag, err)
		}
		for i, d := range deltas[half:] {
			gotV, gotErr := inc.Append(d)
			wantV, wantErr := fresh.Append(d)
			assertVerdictsEqual(t, fmt.Sprintf("%s/after%d", tag, i), gotV, gotErr, wantV, wantErr)
		}
		if got, want := encodeSys(t, inc.System()), encodeSys(t, fresh.System()); !bytes.Equal(got, want) {
			t.Fatalf("%s: retired engine diverged from the fresh one:\n%s\n%s", tag, got, want)
		}
	})
	if !droppedParked {
		t.Fatal("no Retire dropped a parked root")
	}
}
