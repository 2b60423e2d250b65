package front_test

import (
	"bytes"
	"fmt"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/workload"
)

// feed returns a fresh engine that propagates inputs, fed the deltas ds,
// each of which it must admit. It is the always-admit oracle of the
// rollback law: an engine that never saw a refused delta, rebuilt from the
// admitted ones as a certifier without rollback would rebuild itself.
func feed(t *testing.T, tag string, ds []*front.Delta) *front.Incremental {
	t.Helper()
	inc := front.NewIncremental(front.IncrementalOptions{PropagateInputs: true})
	for i, d := range ds {
		if v, err := inc.Append(d); err != nil || !v.Correct {
			t.Fatalf("%s: oracle refused admitted delta %d: %v %v", tag, i, v, err)
		}
	}
	return inc
}

// violations returns violating deltas over the admitted system sys, named
// after k. One declares a schedule, so it runs on a candidate engine. The
// others invoke a schedule from another one and order two transactions of
// the callee, so they propagate a weak-input pair that must not outlive
// the refusal: when sys has two schedules that invoke nothing, through a
// new invocation edge between them, which raises a level (a candidate
// engine again); and through the first edge sys has (the live engine).
func violations(sys *model.System, k int) []*front.Delta {
	n := func(s string) model.NodeID { return model.NodeID(fmt.Sprintf("bad%d.%s", k, s)) }
	ordered := func(d *front.Delta, sc model.ScheduleID, a, b string) {
		p := front.DeltaPair{Sched: sc, A: n(a), B: n(b)}
		d.Conflicts = append(d.Conflicts, p)
		d.WeakOut = append(d.WeakOut, p)
	}
	z := model.ScheduleID(fmt.Sprintf("Zbad%d", k))
	declares := &front.Delta{Schedules: []model.ScheduleID{z}, Nodes: []front.DeltaNode{
		{ID: n("R1"), Sched: z}, {ID: n("R1.a"), Parent: n("R1")}, {ID: n("R1.b"), Parent: n("R1")},
		{ID: n("R2"), Sched: z}, {ID: n("R2.a"), Parent: n("R2")}, {ID: n("R2.b"), Parent: n("R2")},
	}}
	ordered(declares, z, "R1.a", "R2.a")
	ordered(declares, z, "R2.b", "R1.b")
	out := []*front.Delta{declares}

	levels, err := sys.Levels()
	if err != nil {
		panic(err)
	}
	var bottom []model.ScheduleID
	for _, sc := range sys.Schedules() {
		if levels[sc.ID] == 1 {
			bottom = append(bottom, sc.ID)
		}
	}
	var edges [][2]model.ScheduleID
	if len(bottom) >= 2 {
		edges = append(edges, [2]model.ScheduleID{bottom[0], bottom[1]})
	}
	if pairs := sys.InvocationGraph().Pairs(); len(pairs) > 0 {
		edges = append(edges, pairs[0])
	}
	for _, e := range edges {
		s, t := e[0], e[1]
		d := &front.Delta{Nodes: []front.DeltaNode{
			{ID: n("R1"), Sched: s}, {ID: n("t1"), Parent: n("R1"), Sched: t},
			{ID: n("t1.a"), Parent: n("t1")}, {ID: n("t1.b"), Parent: n("t1")},
			{ID: n("R2"), Sched: s}, {ID: n("t2"), Parent: n("R2"), Sched: t},
			{ID: n("t2.a"), Parent: n("t2")}, {ID: n("t2.b"), Parent: n("t2")},
		}}
		ordered(d, s, "t1", "t2")
		ordered(d, t, "t1.a", "t2.a")
		ordered(d, t, "t2.b", "t1.b")
		out = append(out, d)
	}
	return out
}

// TestIncrementalRollbackPropagated checks undo ∘ admit ≡ id on engines
// that propagate inputs, where the system holds pairs no delta carries, so
// CheckReference over the deltas is no oracle: every verdict must equal
// that of an always-admit engine fed only the admitted deltas, and after
// every refusal System() must encode byte for byte as that engine's and
// Rebuilds() must not have moved. The streams of general executions are
// interleaved with violations on candidate and live engines.
func TestIncrementalRollbackPropagated(t *testing.T) {
	injected, refused := 0, 0
	for _, depth := range []int{2, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			sys := workload.General(workload.GeneralParams{
				Depth: depth, SchedsPerLevel: 2, Roots: 3, Fanout: 2,
				LeafRate: 0.4, ConflictRate: 0.5, Seed: seed,
			}).Sys
			for name, deltas := range map[string][]*front.Delta{
				"roots": front.DecomposeByRoot(sys),
				"steps": front.DecomposeSteps(sys),
			} {
				tag := fmt.Sprintf("propagated/d%d/seed%d/%s", depth, seed, name)
				inc := front.NewIncremental(front.IncrementalOptions{PropagateInputs: true})
				var admitted []*front.Delta
				offer := func(tag string, d *front.Delta, bad bool) {
					ref := feed(t, tag, admitted)
					want, rebuilds := encodeSys(t, ref.System()), inc.Rebuilds()
					wantV, wantErr := ref.Append(d)
					gotV, gotErr := inc.Append(d)
					assertVerdictsEqual(t, tag, gotV, gotErr, wantV, wantErr)
					if gotErr == nil && gotV.Correct {
						if bad {
							t.Fatalf("%s: the violation was admitted", tag)
						}
						admitted = append(admitted, d)
						return
					}
					refused++
					if got := encodeSys(t, inc.System()); !bytes.Equal(got, want) {
						t.Fatalf("%s: the refused delta left a trace:\nengine: %s\noracle: %s", tag, got, want)
					}
					if inc.Rebuilds() != rebuilds {
						t.Fatalf("%s: the refused delta counted %d rebuilds", tag, inc.Rebuilds()-rebuilds)
					}
				}
				for i, d := range deltas {
					offer(fmt.Sprintf("%s/prefix%d", tag, i), d, false)
					if i%3 != 0 {
						continue
					}
					for k, bad := range violations(inc.System(), i) {
						offer(fmt.Sprintf("%s/prefix%d/violation%d", tag, i, k), bad, true)
						injected++
					}
				}
			}
		}
	}
	if injected == 0 || refused <= injected {
		t.Fatalf("sweep offered %d violations and refused %d deltas; it must refuse stream deltas too", injected, refused)
	}
}
