package front_test

import (
	"fmt"
	"reflect"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/workload"
)

// assertVerdictsEqual fails unless the two front.Check outcomes are identical in
// every observable field, including failure diagnostics and (when kept)
// the full front sequence. It is the oracle of the engine tests:
// front.Check and every front.Incremental prefix verdict must be
// indistinguishable from front.CheckReference (string-keyed path).
func assertVerdictsEqual(t *testing.T, tag string, gotV *front.Verdict, gotErr error, wantV *front.Verdict, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", tag, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %q, reference err = %q", tag, gotErr, wantErr)
		}
		return
	}
	if gotV.Correct != wantV.Correct || gotV.Order != wantV.Order || gotV.FailedLevel != wantV.FailedLevel {
		t.Fatalf("%s: verdict (correct=%v order=%d failed=%d), reference (correct=%v order=%d failed=%d)",
			tag, gotV.Correct, gotV.Order, gotV.FailedLevel, wantV.Correct, wantV.Order, wantV.FailedLevel)
	}
	if gotV.Reason != wantV.Reason {
		t.Fatalf("%s: reason %q, reference %q", tag, gotV.Reason, wantV.Reason)
	}
	if !reflect.DeepEqual(gotV.SerialOrder, wantV.SerialOrder) {
		t.Fatalf("%s: serial order %v, reference %v", tag, gotV.SerialOrder, wantV.SerialOrder)
	}
	if len(gotV.Steps) != len(wantV.Steps) {
		t.Fatalf("%s: %d steps, reference %d", tag, len(gotV.Steps), len(wantV.Steps))
	}
	for i, st := range gotV.Steps {
		ref := wantV.Steps[i]
		if st.Level != ref.Level || st.Failure != ref.Failure || st.BadTransaction != ref.BadTransaction ||
			!reflect.DeepEqual(st.Reduced, ref.Reduced) || !reflect.DeepEqual(st.Cycle, ref.Cycle) {
			t.Fatalf("%s: step %d = %v, reference %v", tag, i, st, ref)
		}
	}
	if len(gotV.Fronts) != len(wantV.Fronts) {
		t.Fatalf("%s: %d fronts, reference %d", tag, len(gotV.Fronts), len(wantV.Fronts))
	}
	for i, fr := range gotV.Fronts {
		ref := wantV.Fronts[i]
		if fr.Level != ref.Level || !reflect.DeepEqual(fr.Nodes(), ref.Nodes()) {
			t.Fatalf("%s: front %d nodes %v, reference %v", tag, i, fr.Nodes(), ref.Nodes())
		}
		if !fr.Obs.Equal(ref.Obs) || !ref.Obs.Equal(fr.Obs) {
			t.Fatalf("%s: front %d observed order differs: %v vs %v", tag, i, fr.Obs.Pairs(), ref.Obs.Pairs())
		}
		if !reflect.DeepEqual(fr.Con.Pairs(), ref.Con.Pairs()) {
			t.Fatalf("%s: front %d conflicts differ: %v vs %v", tag, i, fr.Con.Pairs(), ref.Con.Pairs())
		}
		if !fr.WeakIn.Equal(ref.WeakIn) || !fr.StrongIn.Equal(ref.StrongIn) {
			t.Fatalf("%s: front %d input orders differ", tag, i)
		}
	}
}

// checkBothWays runs front.Check and the reference reduction on sys
// and asserts identical outcomes, with and without KeepFronts. It returns
// whether the execution was correct (for coverage accounting).
func checkBothWays(t *testing.T, tag string, sys *model.System) bool {
	t.Helper()
	for _, keep := range []bool{false, true} {
		opts := front.Options{KeepFronts: keep}
		gotV, gotErr := front.Check(sys, opts)
		wantV, wantErr := front.CheckReference(sys, opts)
		assertVerdictsEqual(t, fmt.Sprintf("%s/keep=%v", tag, keep), gotV, gotErr, wantV, wantErr)
	}
	v, err := front.Check(sys, front.Options{})
	return err == nil && v.Correct
}

// TestCheckMatchesReferenceStack sweeps random stack executions across
// depth, width, conflict density and strong-order density.
func TestCheckMatchesReferenceStack(t *testing.T) {
	correct, incorrect := 0, 0
	for _, levels := range []int{1, 2, 3} {
		for _, roots := range []int{1, 3} {
			for _, cr := range []float64{0, 0.3, 0.9} {
				for _, sr := range []float64{0, 0.4} {
					for seed := int64(1); seed <= 3; seed++ {
						exec := workload.Stack(workload.StackParams{
							Levels: levels, Roots: roots, Fanout: 2,
							ConflictRate: cr, StrongRate: sr, Seed: seed,
						})
						tag := fmt.Sprintf("stack/l%d/r%d/c%.1f/s%.1f/seed%d", levels, roots, cr, sr, seed)
						if checkBothWays(t, tag, exec.Sys) {
							correct++
						} else {
							incorrect++
						}
					}
				}
			}
		}
	}
	if correct == 0 || incorrect == 0 {
		t.Fatalf("sweep must cover both outcomes: %d correct, %d incorrect", correct, incorrect)
	}
}

// TestCheckMatchesReferenceFork sweeps random fork executions.
func TestCheckMatchesReferenceFork(t *testing.T) {
	for _, branches := range []int{1, 3} {
		for _, cr := range []float64{0.3, 0.8} {
			for seed := int64(1); seed <= 3; seed++ {
				exec := workload.Fork(workload.ForkParams{
					Branches: branches, Roots: 2, Fanout: 2, LeavesPerSub: 2,
					ConflictRate: cr, Seed: seed,
				})
				checkBothWays(t, fmt.Sprintf("fork/b%d/c%.1f/seed%d", branches, cr, seed), exec.Sys)
			}
		}
	}
}

// TestCheckMatchesReferenceJoin sweeps random join executions.
func TestCheckMatchesReferenceJoin(t *testing.T) {
	for _, tcr := range []float64{0.2, 0.6} {
		for seed := int64(1); seed <= 3; seed++ {
			exec := workload.Join(workload.JoinParams{
				Tops: 2, RootsPerTop: 2, Fanout: 2, LeavesPerSub: 2,
				ConflictRate: 0.3, TopConflictRate: tcr, Seed: seed,
			})
			checkBothWays(t, fmt.Sprintf("join/t%.1f/seed%d", tcr, seed), exec.Sys)
		}
	}
}

// TestCheckMatchesReferenceGeneral sweeps general configurations: mixed
// leaf and transaction operations exercise the rule-1 lifting for new
// nodes and fronts spanning several levels. Each runs a second time
// relabelled, so no verdict can lean on what the generator names things.
func TestCheckMatchesReferenceGeneral(t *testing.T) {
	for _, depth := range []int{2, 3} {
		for _, cr := range []float64{0.3, 0.7} {
			for seed := int64(1); seed <= 5; seed++ {
				exec := workload.General(workload.GeneralParams{
					Depth: depth, SchedsPerLevel: 2, Roots: 2, Fanout: 2,
					LeafRate: 0.4, ConflictRate: cr, Seed: seed,
				})
				tag := fmt.Sprintf("general/d%d/c%.1f/seed%d", depth, cr, seed)
				checkBothWays(t, tag, exec.Sys)
				checkBothWays(t, tag+"/relabelled", relabel(exec.Sys))
			}
		}
	}
}

// TestCheckMatchesReferenceFigures pins the paper's two worked examples.
func TestCheckMatchesReferenceFigures(t *testing.T) {
	checkBothWays(t, "figure3", front.Figure3System())
	checkBothWays(t, "figure4", front.Figure4System())
}

// TestCheckBatchMatchesCheck verifies that the pooled batch checker
// returns exactly the sequential per-system verdicts, in input order.
func TestCheckBatchMatchesCheck(t *testing.T) {
	var systems []*model.System
	for seed := int64(1); seed <= 8; seed++ {
		systems = append(systems,
			workload.Stack(workload.StackParams{Levels: 3, Roots: 2, Fanout: 2, ConflictRate: 0.3, Seed: seed}).Sys,
			workload.Fork(workload.ForkParams{Branches: 2, Roots: 2, Fanout: 2, LeavesPerSub: 2, ConflictRate: 0.5, Seed: seed}).Sys,
		)
	}
	for _, parallelism := range []int{0, 1, 4} {
		results := front.CheckBatch(systems, parallelism, front.Options{})
		if len(results) != len(systems) {
			t.Fatalf("parallelism %d: %d results for %d systems", parallelism, len(results), len(systems))
		}
		for i, sys := range systems {
			wantV, wantErr := front.Check(sys, front.Options{})
			assertVerdictsEqual(t, fmt.Sprintf("batch/p%d/sys%d", parallelism, i),
				results[i].Verdict, results[i].Err, wantV, wantErr)
		}
	}
}

// TestCheckBatchSharedSystem checks many aliases of one *System
// concurrently: Check must only read its system (the race detector guards
// this via make verify).
func TestCheckBatchSharedSystem(t *testing.T) {
	sys := workload.Stack(workload.StackParams{Levels: 3, Roots: 4, Fanout: 2, ConflictRate: 0.2, Seed: 7}).Sys
	systems := make([]*model.System, 16)
	for i := range systems {
		systems[i] = sys
	}
	results := front.CheckBatch(systems, 8, front.Options{})
	want, wantErr := front.Check(sys, front.Options{})
	for i, r := range results {
		assertVerdictsEqual(t, fmt.Sprintf("shared/%d", i), r.Verdict, r.Err, want, wantErr)
	}
}

// TestCheckBatchEdgeCases covers empty input and nil entries.
func TestCheckBatchEdgeCases(t *testing.T) {
	if got := front.CheckBatch(nil, 4, front.Options{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	sys := workload.Stack(workload.StackParams{Levels: 2, Roots: 2, Fanout: 2, ConflictRate: 0.1, Seed: 1}).Sys
	results := front.CheckBatch([]*model.System{nil, sys}, 2, front.Options{})
	if results[0].Err == nil || results[0].Verdict != nil {
		t.Fatalf("nil system: want error result, got %+v", results[0])
	}
	if results[1].Err != nil || results[1].Verdict == nil {
		t.Fatalf("real system after nil: got %+v", results[1])
	}
}
