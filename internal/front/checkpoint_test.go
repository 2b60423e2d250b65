package front_test

import (
	"fmt"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/workload"
)

// futureRefs collects every node ID the remaining stream still references
// (as a parent, a pair endpoint, or an intra-order transaction).
func futureRefs(remaining []*front.Delta) map[model.NodeID]struct{} {
	refs := make(map[model.NodeID]struct{})
	for _, d := range remaining {
		for _, n := range d.Nodes {
			if n.Parent != "" {
				refs[n.Parent] = struct{}{}
			}
		}
		for _, ps := range [][]front.DeltaPair{d.Conflicts, d.WeakOut, d.StrongOut, d.WeakIn, d.StrongIn} {
			for _, p := range ps {
				refs[p.A] = struct{}{}
				refs[p.B] = struct{}{}
			}
		}
		for _, ip := range d.Intra {
			refs[ip.Tx] = struct{}{}
			refs[ip.A] = struct{}{}
			refs[ip.B] = struct{}{}
		}
	}
	return refs
}

// foldableRoots returns the roots of the prefix whose entire subtree is
// never referenced again — the checkpoint contract (the runtime certifier
// guarantees it by pruning its event index at the same cadence; here the
// test computes it by looking ahead).
func foldableRoots(prefix *model.System, remaining []*front.Delta) []model.NodeID {
	refs := futureRefs(remaining)
	var out []model.NodeID
	for _, r := range prefix.Roots() {
		if _, ref := refs[r]; ref {
			continue
		}
		clean := true
		for _, d := range prefix.Descendants(r) {
			if _, ref := refs[d]; ref {
				clean = false
				break
			}
		}
		if clean {
			out = append(out, r)
		}
	}
	return out
}

// replayCheckpointExact streams deltas through an Incremental, folding
// every foldable committed prefix with Checkpoint every `every` deltas,
// while applying the same deltas — and the same prunes — to a parallel
// prefix system. After EVERY delta the engine's Append verdict must be
// byte-identical to CheckReference over the (pruned) prefix: the stream
// straddles each checkpoint boundary, so this is the pruned-engine
// byte-identity property of ISSUE 7. Returns per-outcome counts plus the
// number of folds that actually dropped state.
func replayCheckpointExact(t *testing.T, tag string, deltas []*front.Delta, every int) (correct, failed, folds int) {
	t.Helper()
	inc := front.NewIncremental(front.IncrementalOptions{})
	prefix := model.NewSystem()
	for i, d := range deltas {
		d.Apply(prefix)
		gotV, gotErr := inc.Append(d)
		wantV, wantErr := front.CheckReference(prefix, front.Options{})
		assertVerdictsEqual(t, fmt.Sprintf("%s/prefix%d", tag, i), gotV, gotErr, wantV, wantErr)
		if gotErr == nil && gotV.Correct {
			correct++
		} else {
			failed++
		}
		if (i+1)%every != 0 || inc.Degraded() {
			continue
		}
		targets := foldableRoots(prefix, deltas[i+1:])
		if len(targets) == 0 {
			continue
		}
		before, cuts := inc.LiveNodes(), inc.Checkpoints()
		sum, err := inc.Checkpoint(targets)
		if err != nil {
			t.Fatalf("%s/prefix%d: checkpoint: %v", tag, i, err)
		}
		if sum.Roots != len(targets) || inc.Checkpoints() != cuts+1 {
			t.Fatalf("%s/prefix%d: summary folded %d roots, want %d; %d folds counted, want %d",
				tag, i, sum.Roots, len(targets), inc.Checkpoints(), cuts+1)
		}
		for _, id := range targets {
			prefix.RemoveTree(id)
		}
		if got, want := inc.LiveNodes(), prefix.NumNodes(); got != want || before-sum.Nodes != got {
			t.Fatalf("%s/prefix%d: engine holds %d live nodes after folding %d of %d, prefix has %d", tag, i, got, sum.Nodes, before, want)
		}
		if sum.Nodes > 0 {
			folds++
		}
	}
	return correct, failed, folds
}

// TestCheckpointPrefixExactStack sweeps random stack executions with a
// fold every few root commits, across conflict densities that produce
// both correct and violating continuations on the far side of folds.
func TestCheckpointPrefixExactStack(t *testing.T) {
	correct, failed, folds := 0, 0, 0
	for _, levels := range []int{1, 2, 3} {
		for _, cr := range []float64{0, 0.3, 0.9} {
			for seed := int64(1); seed <= 3; seed++ {
				exec := workload.Stack(workload.StackParams{
					Levels: levels, Roots: 6, Fanout: 2,
					ConflictRate: cr, StrongRate: 0.2, Seed: seed,
				})
				tag := fmt.Sprintf("ckstack/l%d/c%.1f/seed%d", levels, cr, seed)
				c, f, k := replayCheckpointExact(t, tag, front.DecomposeByRoot(exec.Sys), 2)
				correct, failed, folds = correct+c, failed+f, folds+k
			}
		}
	}
	if correct == 0 || failed == 0 || folds == 0 {
		t.Fatalf("sweep must cover both outcomes across real folds: %d correct, %d failed, %d folds", correct, failed, folds)
	}
}

// renameNodes prefixes every node ID in the deltas, giving each epoch a
// disjoint namespace (the runtime's root names are unique the same way).
func renameNodes(deltas []*front.Delta, prefix string) []*front.Delta {
	ren := func(id model.NodeID) model.NodeID {
		if id == "" {
			return id
		}
		return model.NodeID(prefix) + id
	}
	out := make([]*front.Delta, len(deltas))
	for i, d := range deltas {
		nd := &front.Delta{Schedules: d.Schedules}
		for _, n := range d.Nodes {
			nd.Nodes = append(nd.Nodes, front.DeltaNode{ID: ren(n.ID), Parent: ren(n.Parent), Sched: n.Sched})
		}
		renPairs := func(ps []front.DeltaPair) []front.DeltaPair {
			var r []front.DeltaPair
			for _, p := range ps {
				r = append(r, front.DeltaPair{Sched: p.Sched, A: ren(p.A), B: ren(p.B)})
			}
			return r
		}
		nd.Conflicts = renPairs(d.Conflicts)
		nd.WeakOut = renPairs(d.WeakOut)
		nd.StrongOut = renPairs(d.StrongOut)
		nd.WeakIn = renPairs(d.WeakIn)
		nd.StrongIn = renPairs(d.StrongIn)
		for _, ip := range d.Intra {
			nd.Intra = append(nd.Intra, front.DeltaIntra{Tx: ren(ip.Tx), A: ren(ip.A), B: ren(ip.B), Strong: ip.Strong})
		}
		out[i] = nd
	}
	return out
}

// replayEpochsExact streams several executions through ONE engine as
// successive epochs — the runtime's checkpoint cadence: after each epoch
// whose history is still correct, every root is folded away, and the next
// epoch's stream must stay byte-identical to CheckReference over the
// pruned prefix. Epochs get disjoint node namespaces; schedules persist
// across folds (re-declarations are stripped). Returns folds taken.
func replayEpochsExact(t *testing.T, tag string, systems []*model.System) int {
	t.Helper()
	inc := front.NewIncremental(front.IncrementalOptions{})
	prefix := model.NewSystem()
	folds := 0
	for e, sys := range systems {
		deltas := renameNodes(front.DecomposeByRoot(sys), fmt.Sprintf("e%d.", e))
		for i, d := range deltas {
			var kept []model.ScheduleID
			for _, s := range d.Schedules {
				if prefix.Schedule(s) == nil {
					kept = append(kept, s)
				}
			}
			d.Schedules = kept
			d.Apply(prefix)
			gotV, gotErr := inc.Append(d)
			wantV, wantErr := front.CheckReference(prefix, front.Options{})
			assertVerdictsEqual(t, fmt.Sprintf("%s/epoch%d/prefix%d", tag, e, i), gotV, gotErr, wantV, wantErr)
		}
		if inc.Degraded() {
			continue
		}
		roots := prefix.Roots()
		sum, err := inc.Checkpoint(roots)
		if err != nil {
			t.Fatalf("%s/epoch%d: checkpoint: %v", tag, e, err)
		}
		for _, r := range roots {
			prefix.RemoveTree(r)
		}
		if inc.LiveNodes() != 0 {
			t.Fatalf("%s/epoch%d: %d live nodes after a full fold", tag, e, inc.LiveNodes())
		}
		if sum.Nodes > 0 {
			folds++
		}
	}
	return folds
}

// TestCheckpointPrefixExactFork streams fork epochs across full folds.
func TestCheckpointPrefixExactFork(t *testing.T) {
	folds := 0
	for seed := int64(1); seed <= 3; seed++ {
		var systems []*model.System
		for _, cr := range []float64{0.2, 0.5, 0.8} {
			systems = append(systems, workload.Fork(workload.ForkParams{
				Branches: 2, Roots: 3, Fanout: 2, LeavesPerSub: 2,
				ConflictRate: cr, Seed: seed,
			}).Sys)
		}
		folds += replayEpochsExact(t, fmt.Sprintf("ckfork/seed%d", seed), systems)
	}
	if folds == 0 {
		t.Fatal("fork sweep folded nothing; loosen the workload")
	}
}

// TestCheckpointPrefixExactJoin streams join epochs across full folds.
func TestCheckpointPrefixExactJoin(t *testing.T) {
	folds := 0
	for seed := int64(1); seed <= 3; seed++ {
		var systems []*model.System
		for _, tcr := range []float64{0, 0.3, 0.6} {
			systems = append(systems, workload.Join(workload.JoinParams{
				Tops: 2, RootsPerTop: 2, Fanout: 2, LeavesPerSub: 2,
				ConflictRate: tcr / 2, TopConflictRate: tcr, Seed: seed,
			}).Sys)
		}
		folds += replayEpochsExact(t, fmt.Sprintf("ckjoin/seed%d", seed), systems)
	}
	if folds == 0 {
		t.Fatal("join sweep folded nothing; loosen the workload")
	}
}

// TestCheckpointPrefixExactGeneral sweeps general configurations — the
// streams also deepen the invocation graph mid-flight, so folds interleave
// with level-change rebuilds. Folds happen on the finest stream too
// (DecomposeSteps), exercising folds of complete roots while later roots
// are mid-construction.
func TestCheckpointPrefixExactGeneral(t *testing.T) {
	folds := 0
	for _, cr := range []float64{0.2, 0.6} {
		for seed := int64(1); seed <= 4; seed++ {
			exec := workload.General(workload.GeneralParams{
				Depth: 2, SchedsPerLevel: 2, Roots: 4, Fanout: 2,
				LeafRate: 0.4, ConflictRate: cr, Seed: seed,
			})
			tag := fmt.Sprintf("ckgeneral/c%.1f/seed%d", cr, seed)
			_, _, k1 := replayCheckpointExact(t, tag+"/roots", front.DecomposeByRoot(exec.Sys), 2)
			_, _, k2 := replayCheckpointExact(t, tag+"/steps", front.DecomposeSteps(exec.Sys), 5)
			folds += k1 + k2
		}
	}
	if folds == 0 {
		t.Fatal("general sweep folded nothing; loosen the workload")
	}
}

// TestCheckpointAdmitStream runs the certification fast path across
// epoch folds: Admit must return (nil, nil) exactly while the pruned
// prefix stays correct and the reference failure verdict afterwards.
func TestCheckpointAdmitStream(t *testing.T) {
	sawFold, sawFailure := false, false
	for seed := int64(1); seed <= 4; seed++ {
		inc := front.NewIncremental(front.IncrementalOptions{})
		prefix := model.NewSystem()
		for e, cr := range []float64{0.1, 0.4, 0.8} {
			sys := workload.Stack(workload.StackParams{
				Levels: 2, Roots: 4, Fanout: 2, ConflictRate: cr, Seed: seed,
			}).Sys
			deltas := renameNodes(front.DecomposeByRoot(sys), fmt.Sprintf("e%d.", e))
			for i, d := range deltas {
				var kept []model.ScheduleID
				for _, s := range d.Schedules {
					if prefix.Schedule(s) == nil {
						kept = append(kept, s)
					}
				}
				d.Schedules = kept
				d.Apply(prefix)
				gotV, gotErr := inc.Admit(d)
				wantV, wantErr := front.CheckReference(prefix, front.Options{})
				tag := fmt.Sprintf("ckadmit/seed%d/epoch%d/prefix%d", seed, e, i)
				if wantErr == nil && wantV.Correct {
					if gotV != nil || gotErr != nil {
						t.Fatalf("%s: correct prefix: Admit = (%v, %v), want (nil, nil)", tag, gotV, gotErr)
					}
				} else {
					sawFailure = true
					assertVerdictsEqual(t, tag, gotV, gotErr, wantV, wantErr)
				}
			}
			if inc.Degraded() {
				continue
			}
			roots := prefix.Roots()
			if _, err := inc.Checkpoint(roots); err != nil {
				t.Fatalf("seed %d epoch %d: checkpoint: %v", seed, e, err)
			}
			for _, r := range roots {
				prefix.RemoveTree(r)
			}
			sawFold = true
		}
	}
	if !sawFold || !sawFailure {
		t.Fatalf("admit sweep must fold and fail at least once: folds=%v failures=%v", sawFold, sawFailure)
	}
}

// TestCheckpointRejectsFoldedReferences asserts the truncation contract:
// once a root is folded, a delta referencing any of its nodes is rejected
// like a reference to a truncated LSN, and the engine continues
// prefix-exact afterwards.
func TestCheckpointRejectsFoldedReferences(t *testing.T) {
	sys := workload.Stack(workload.StackParams{
		Levels: 2, Roots: 4, Fanout: 2, ConflictRate: 0, Seed: 3,
	}).Sys
	deltas := front.DecomposeByRoot(sys)
	inc := front.NewIncremental(front.IncrementalOptions{})
	prefix := model.NewSystem()
	var folded model.NodeID
	for i, d := range deltas {
		d.Apply(prefix)
		if _, err := inc.Append(d); err != nil {
			t.Fatalf("prefix %d: %v", i, err)
		}
		if i == 1 {
			targets := foldableRoots(prefix, deltas[i+1:])
			if len(targets) == 0 {
				t.Fatal("no foldable roots at the boundary; adjust the workload")
			}
			folded = targets[0]
			sched := prefix.Node(folded).Sched
			if _, err := inc.Checkpoint(targets[:1]); err != nil {
				t.Fatal(err)
			}
			prefix.RemoveTree(folded)
			live := prefix.Roots()
			if len(live) == 0 {
				t.Fatal("fold left no live root to pair against")
			}
			bad := &front.Delta{WeakIn: []front.DeltaPair{{Sched: sched, A: folded, B: live[0]}}}
			if v, err := inc.Append(bad); err == nil {
				t.Fatalf("delta referencing folded root %q accepted (verdict %v)", folded, v)
			}
		}
	}
	gotV, gotErr := front.CheckReference(prefix, front.Options{})
	wantV, wantErr := front.Check(inc.System(), front.Options{})
	assertVerdictsEqual(t, "post-fold-tail", wantV, wantErr, gotV, gotErr)
}

// TestCheckpointErrors pins the refusal cases: degraded engines, unknown
// roots, non-roots, duplicates — each must leave the engine untouched.
func TestCheckpointErrors(t *testing.T) {
	sys := workload.Stack(workload.StackParams{
		Levels: 2, Roots: 2, Fanout: 2, ConflictRate: 0, Seed: 1,
	}).Sys
	inc := front.NewIncremental(front.IncrementalOptions{})
	for _, d := range front.DecomposeByRoot(sys) {
		if _, err := inc.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	roots := inc.System().Roots()
	if _, err := inc.Checkpoint([]model.NodeID{"no-such-root"}); err == nil {
		t.Fatal("checkpoint of unknown root accepted")
	}
	var nonRoot model.NodeID
	for _, id := range inc.System().NodeIDs() {
		if inc.System().Node(id).Parent != "" {
			nonRoot = id
			break
		}
	}
	if _, err := inc.Checkpoint([]model.NodeID{nonRoot}); err == nil {
		t.Fatalf("checkpoint of non-root %q accepted", nonRoot)
	}
	if _, err := inc.Checkpoint([]model.NodeID{roots[0], roots[0]}); err == nil {
		t.Fatal("checkpoint naming a root twice accepted")
	}
	if got, want := inc.LiveNodes(), len(inc.System().NodeIDs()); got != want {
		t.Fatalf("failed checkpoints changed live node count: %d != %d", got, want)
	}
	if inc.Checkpoints() != 0 {
		t.Fatalf("failed checkpoints counted: %d", inc.Checkpoints())
	}

	// A degraded engine refuses to fold (the history is not certified).
	bad := front.NewIncremental(front.IncrementalOptions{})
	for seed := int64(1); ; seed++ {
		if seed > 50 {
			t.Fatal("no violating execution found")
		}
		vsys := workload.Stack(workload.StackParams{
			Levels: 2, Roots: 3, Fanout: 2, ConflictRate: 0.9, Seed: seed,
		}).Sys
		bad = front.NewIncremental(front.IncrementalOptions{})
		for _, d := range front.DecomposeSteps(vsys) {
			if _, err := bad.Append(d); err != nil {
				t.Fatal(err)
			}
		}
		if bad.Degraded() {
			break
		}
	}
	if _, err := bad.Checkpoint(bad.System().Roots()); err == nil {
		t.Fatal("degraded engine accepted a checkpoint")
	}
}
