package front_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/workload"
)

// seedCases pairs a seed execution with a continuing one of the same
// generator and shape (so they share schedule names, though not always
// invocation edges), denser in conflicts so the stream meets violations,
// across the stack, fork, join and general generators.
func seedCases() (tags []string, seeds, nexts []*model.System) {
	add := func(family string, gen func(cr float64, seed int64) *model.System) {
		for _, cr := range []float64{0, 0.2} {
			for seed := int64(1); seed <= 3; seed++ {
				tags = append(tags, fmt.Sprintf("%s/c%.1f/seed%d", family, cr, seed))
				sys := gen(cr, seed)
				// One root where Ptop invokes Pbot, so the continuation's
				// last delta (propagating) runs on the seeded engine, not
				// on a candidate built for a new invocation edge.
				sys.AddSchedule("Ptop")
				sys.AddSchedule("Pbot")
				sys.AddRoot("p.R0", "Ptop")
				sys.AddTx("p.R0.t", "p.R0", "Pbot")
				sys.AddLeaf("p.R0.t.l", "p.R0.t")
				seeds, nexts = append(seeds, sys), append(nexts, gen(cr+0.4, seed+10))
			}
		}
	}
	add("stack", func(cr float64, seed int64) *model.System {
		return workload.Stack(workload.StackParams{Levels: 2, Roots: 3, Fanout: 2, ConflictRate: cr, StrongRate: 0.3, Seed: seed}).Sys
	})
	add("fork", func(cr float64, seed int64) *model.System {
		return workload.Fork(workload.ForkParams{Branches: 2, Roots: 2, Fanout: 2, LeavesPerSub: 2, ConflictRate: cr, Seed: seed}).Sys
	})
	add("join", func(cr float64, seed int64) *model.System {
		return workload.Join(workload.JoinParams{Tops: 2, RootsPerTop: 2, Fanout: 2, LeavesPerSub: 2,
			ConflictRate: cr / 2, TopConflictRate: cr, Seed: seed}).Sys
	})
	add("general", func(cr float64, seed int64) *model.System {
		return workload.General(workload.GeneralParams{Depth: 3, SchedsPerLevel: 2, Roots: 2, Fanout: 2,
			LeafRate: 0.4, ConflictRate: cr, Seed: seed}).Sys
	})
	return tags, seeds, nexts
}

// propagating adds two roots of the seeds' Ptop, each invoking Pbot, and
// orders the two invocations in Ptop: an engine that propagates inputs
// adds the pair to Pbot's weak input order.
func propagating() *front.Delta {
	top, bot := model.ScheduleID("Ptop"), model.ScheduleID("Pbot")
	p := front.DeltaPair{Sched: top, A: "p.R1.t", B: "p.R2.t"}
	return &front.Delta{Nodes: []front.DeltaNode{
		{ID: "p.R1", Sched: top}, {ID: "p.R1.t", Parent: "p.R1", Sched: bot}, {ID: "p.R1.t.l", Parent: "p.R1.t"},
		{ID: "p.R2", Sched: top}, {ID: "p.R2.t", Parent: "p.R2", Sched: bot}, {ID: "p.R2.t.l", Parent: "p.R2.t"},
	}, Conflicts: []front.DeltaPair{p}, WeakOut: []front.DeltaPair{p}}
}

// TestSeedEqualsRetiredAdmit is Seed's law: Seed(sys) is the engine that
// Append of sys followed by Retire of every root leaves — the same
// schedules, invocation graph and levels, no live node — except that it
// ran no reduction: it counts no rebuild where the other counts the one
// that loaded sys. On a continuing stream, through Append and through
// Admit, with and without input propagation (the stream ends with a
// delta that propagates a pair), the two then return the same verdict at
// every step, rebuild at the same steps and hold the same system. Without propagation the seeded engine is also held to the
// stream oracle (CheckReference over the admitted prefix), except on
// general configurations: there a continuing stream need not re-create
// the invocation edges only retired roots made, which both engines keep
// (a retire never shrinks the invocation graph), so their level
// assignment can be deeper than a from-scratch Check of the pruned prefix
// computes.
func TestSeedEqualsRetiredAdmit(t *testing.T) {
	tags, seeds, nexts := seedCases()
	covered := map[string]int{}
	violations, rebuilt := 0, 0
	for c, sys := range seeds {
		for _, prop := range []bool{false, true} {
			for _, full := range []bool{true, false} {
				tag := fmt.Sprintf("%s/prop=%v/full=%v", tags[c], prop, full)
				opts := front.IncrementalOptions{PropagateInputs: prop}
				ref := front.NewIncremental(opts)
				if v, err := ref.Append(front.SystemDelta(sys)); err != nil || !v.Correct {
					continue // only a correct execution is ever retired
				}
				if err := ref.Retire(ref.System().Roots()); err != nil {
					t.Fatalf("%s: retire: %v", tag, err)
				}
				seeded, err := front.Seed(sys, opts)
				if err != nil {
					t.Fatalf("%s: seed: %v", tag, err)
				}
				family, _, _ := strings.Cut(tags[c], "/")
				covered[family]++

				if got, want := encodeSys(t, seeded.System()), encodeSys(t, ref.System()); !bytes.Equal(got, want) {
					t.Fatalf("%s: seeded system\n%s\nretired system\n%s", tag, got, want)
				}
				gs, ge, gl := front.InvocationGraph(seeded)
				ws, we, wl := front.InvocationGraph(ref)
				if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(ge, we) || !reflect.DeepEqual(gl, wl) {
					t.Fatalf("%s: seeded IG %v %v levels %v, retired IG %v %v levels %v", tag, gs, ge, gl, ws, we, wl)
				}
				if seeded.LiveNodes() != 0 || ref.LiveNodes() != 0 || seeded.Rebuilds() != 0 || ref.Rebuilds() != 1 {
					t.Fatalf("%s: live nodes %d/%d, rebuilds %d/%d; want 0/0 and 0/1",
						tag, seeded.LiveNodes(), ref.LiveNodes(), seeded.Rebuilds(), ref.Rebuilds())
				}

				var s *stream
				if !prop && family != "general" {
					s = newStream()
					s.prefix = seeded.System().Clone()
				}
				for i, d := range append(renameNodes(front.DecomposeByRoot(nexts[c]), "n."), propagating()) {
					step := fmt.Sprintf("%s/step%d", tag, i)
					var kept []model.ScheduleID
					for _, sc := range d.Schedules {
						if !seeded.Declared(sc) {
							kept = append(kept, sc)
						}
					}
					d.Schedules = kept
					admit := ref.Admit
					if full {
						admit = ref.Append
					}
					wantV, wantErr := admit(d)
					var gotV *front.Verdict
					var gotErr error
					if s != nil {
						gotV, gotErr = s.step(t, step, seeded, d, full)
					} else if full {
						gotV, gotErr = seeded.Append(d)
					} else {
						gotV, gotErr = seeded.Admit(d)
					}
					if (gotV == nil) != (wantV == nil) {
						t.Fatalf("%s: seeded (%v, %v), retired (%v, %v)", step, gotV, gotErr, wantV, wantErr)
					}
					if gotV != nil || gotErr != nil || wantErr != nil {
						assertVerdictsEqual(t, step, gotV, gotErr, wantV, wantErr)
					}
					if wantV != nil && !wantV.Correct {
						violations++
					}
					if seeded.Rebuilds() != ref.Rebuilds()-1 || seeded.LiveNodes() != ref.LiveNodes() {
						t.Fatalf("%s: rebuilds %d/%d, live nodes %d/%d", step,
							seeded.Rebuilds(), ref.Rebuilds(), seeded.LiveNodes(), ref.LiveNodes())
					}
				}
				rebuilt += seeded.Rebuilds()
				if got, want := encodeSys(t, seeded.System()), encodeSys(t, ref.System()); !bytes.Equal(got, want) {
					t.Fatalf("%s: after the stream, seeded system\n%s\nretired system\n%s", tag, got, want)
				}
			}
		}
	}
	for _, family := range []string{"stack", "fork", "join", "general"} {
		if covered[family] == 0 {
			t.Fatalf("no correct %s execution was seeded: %v", family, covered)
		}
	}
	if violations == 0 || rebuilt == 0 {
		t.Fatalf("the continuing streams met %d violations and %d rebuilds; want both", violations, rebuilt)
	}
	t.Logf("seeded %v; %d violations, %d rebuilds on the continuing streams", covered, violations, rebuilt)
}
