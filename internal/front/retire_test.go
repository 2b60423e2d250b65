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
// every foldable committed prefix with Retire every `every` deltas,
// while the stream oracle keeps the admitted prefix — with the same
// prunes. Every delta's verdict must be byte-identical to CheckReference
// over the (pruned) prefix plus the delta: the stream straddles each
// checkpoint boundary, so this is the pruned-engine byte-identity property.
// Returns the outcome counts plus the number of folds that actually
// dropped state.
func replayCheckpointExact(t *testing.T, tag string, deltas []*front.Delta, every int) (sum tally, folds int) {
	t.Helper()
	inc := front.NewIncremental(front.IncrementalOptions{})
	s := newStream()
	for i, d := range deltas {
		s.step(t, fmt.Sprintf("%s/prefix%d", tag, i), inc, d, true)
		if (i+1)%every != 0 {
			continue
		}
		targets := foldableRoots(s.prefix, deltas[i+1:])
		if len(targets) == 0 {
			continue
		}
		before, prefixBefore := inc.LiveNodes(), s.prefix.NumNodes()
		if err := inc.Retire(targets); err != nil {
			t.Fatalf("%s/prefix%d: retire: %v", tag, i, err)
		}
		for _, id := range targets {
			s.prefix.RemoveTree(id)
		}
		dropped := prefixBefore - s.prefix.NumNodes()
		if got, want := inc.LiveNodes(), s.prefix.NumNodes(); got != want || before-dropped != got {
			t.Fatalf("%s/prefix%d: engine holds %d live nodes after folding %d of %d, prefix has %d", tag, i, got, dropped, before, want)
		}
		if dropped > 0 {
			folds++
		}
	}
	return s.outcome, folds
}

// TestCheckpointPrefixExactStack sweeps random stack executions with a
// fold every few root commits, across conflict densities that produce
// both correct and violating continuations on the far side of folds.
func TestCheckpointPrefixExactStack(t *testing.T) {
	var sum tally
	folds := 0
	for _, levels := range []int{1, 2, 3} {
		for _, cr := range []float64{0, 0.3, 0.9} {
			for seed := int64(1); seed <= 3; seed++ {
				exec := workload.Stack(workload.StackParams{
					Levels: levels, Roots: 6, Fanout: 2,
					ConflictRate: cr, StrongRate: 0.2, Seed: seed,
				})
				tag := fmt.Sprintf("ckstack/l%d/c%.1f/seed%d", levels, cr, seed)
				k, f := replayCheckpointExact(t, tag, front.DecomposeByRoot(exec.Sys), 2)
				sum, folds = sum.plus(k), folds+f
			}
		}
	}
	if sum.admitted == 0 || sum.violated == 0 || folds == 0 {
		t.Fatalf("sweep must cover both verdicts across real folds: %+v, %d folds", sum, folds)
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

// stripKnown drops the schedules the prefix already has from d: epochs
// share schedules, and a fold keeps them.
func stripKnown(d *front.Delta, prefix *model.System) {
	var kept []model.ScheduleID
	for _, sc := range d.Schedules {
		if prefix.Schedule(sc) == nil {
			kept = append(kept, sc)
		}
	}
	d.Schedules = kept
}

// replayEpochsExact streams several executions through ONE engine as
// successive epochs — the runtime's checkpoint cadence: after each epoch
// every admitted root is folded away, and the next epoch's stream must
// stay byte-identical to CheckReference over the pruned prefix. Epochs get
// disjoint node namespaces; schedules persist across folds (re-declarations
// are stripped). full picks Append over Admit. Returns the outcome counts
// and the folds taken.
func replayEpochsExact(t *testing.T, tag string, systems []*model.System, full bool) (tally, int) {
	t.Helper()
	inc := front.NewIncremental(front.IncrementalOptions{})
	s := newStream()
	folds := 0
	for e, sys := range systems {
		deltas := renameNodes(front.DecomposeByRoot(sys), fmt.Sprintf("e%d.", e))
		for i, d := range deltas {
			stripKnown(d, s.prefix)
			s.step(t, fmt.Sprintf("%s/epoch%d/prefix%d", tag, e, i), inc, d, full)
		}
		roots := s.prefix.Roots()
		if err := inc.Retire(roots); err != nil {
			t.Fatalf("%s/epoch%d: retire: %v", tag, e, err)
		}
		if s.prefix.NumNodes() > 0 {
			folds++
		}
		for _, r := range roots {
			s.prefix.RemoveTree(r)
		}
		if inc.LiveNodes() != 0 {
			t.Fatalf("%s/epoch%d: %d live nodes after a full fold", tag, e, inc.LiveNodes())
		}
	}
	return s.outcome, folds
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
		_, k := replayEpochsExact(t, fmt.Sprintf("ckfork/seed%d", seed), systems, true)
		folds += k
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
		_, k := replayEpochsExact(t, fmt.Sprintf("ckjoin/seed%d", seed), systems, true)
		folds += k
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
			_, k1 := replayCheckpointExact(t, tag+"/roots", front.DecomposeByRoot(exec.Sys), 2)
			_, k2 := replayCheckpointExact(t, tag+"/steps", front.DecomposeSteps(exec.Sys), 5)
			folds += k1 + k2
		}
	}
	if folds == 0 {
		t.Fatal("general sweep folded nothing; loosen the workload")
	}
}

// TestCheckpointAdmitStream runs the certification fast path across
// epoch folds: Admit must return (nil, nil) exactly while the pruned
// prefix plus the delta stays correct, and the reference failure verdict
// otherwise.
func TestCheckpointAdmitStream(t *testing.T) {
	var sum tally
	folds := 0
	for seed := int64(1); seed <= 4; seed++ {
		var systems []*model.System
		for _, cr := range []float64{0.1, 0.4, 0.8} {
			systems = append(systems, workload.Stack(workload.StackParams{
				Levels: 2, Roots: 4, Fanout: 2, ConflictRate: cr, Seed: seed,
			}).Sys)
		}
		k, f := replayEpochsExact(t, fmt.Sprintf("ckadmit/seed%d", seed), systems, false)
		sum, folds = sum.plus(k), folds+f
	}
	if folds == 0 || sum.violated == 0 {
		t.Fatalf("admit sweep must fold and fail at least once: %d folds, %+v", folds, sum)
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
			if err := inc.Retire(targets[:1]); err != nil {
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

// TestCheckpointErrors pins Retire's refusal cases: unknown roots,
// non-roots, duplicates — each must leave the engine untouched.
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
	roots, live := inc.System().Roots(), inc.LiveNodes()
	if err := inc.Retire([]model.NodeID{"no-such-root"}); err == nil {
		t.Fatal("retire of unknown root accepted")
	}
	var nonRoot model.NodeID
	for _, id := range inc.System().NodeIDs() {
		if inc.System().Node(id).Parent != "" {
			nonRoot = id
			break
		}
	}
	if err := inc.Retire([]model.NodeID{nonRoot}); err == nil {
		t.Fatalf("retire of non-root %q accepted", nonRoot)
	}
	if err := inc.Retire([]model.NodeID{roots[0], roots[0]}); err == nil {
		t.Fatal("retire naming a root twice accepted")
	}
	if got, want := inc.LiveNodes(), live; got != want {
		t.Fatalf("failed retires changed live node count: %d != %d", got, want)
	}
}
