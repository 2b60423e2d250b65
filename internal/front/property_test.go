package front_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/order"
	"compositetx/internal/workload"
)

// TestCheckRejectsBrokenStructure: Check must return an error (never
// panic, never a bogus verdict) on structurally broken systems.
func TestCheckRejectsBrokenStructure(t *testing.T) {
	build := map[string]func() *model.System{
		"dangling parent": func() *model.System {
			s := model.NewSystem()
			s.AddSchedule("S")
			s.AddLeaf("a", "ghost")
			return s
		},
		"leaf with child": func() *model.System {
			s := model.NewSystem()
			s.AddSchedule("S")
			s.AddRoot("T", "S")
			s.AddLeaf("a", "T")
			s.AddLeaf("b", "a")
			return s
		},
		"missing schedule": func() *model.System {
			s := model.NewSystem()
			s.AddRoot("T", "S")
			return s
		},
		"self-invocation": func() *model.System {
			s := model.NewSystem()
			s.AddSchedule("S")
			s.AddRoot("T", "S")
			s.AddTx("t", "T", "S")
			return s
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			if _, err := front.Check(mk(), front.Options{}); err == nil {
				t.Fatal("Check must reject a broken structure")
			}
		})
	}
}

// TestPruningPreservesCorrectness: removing an entire composite
// transaction only removes constraints, so a correct execution stays
// correct (sub-execution closure).
func TestPruningPreservesCorrectness(t *testing.T) {
	pruned := 0
	for seed := int64(0); seed < 120 && pruned < 40; seed++ {
		exec := workload.General(workload.GeneralParams{
			Depth: 3, SchedsPerLevel: 2, Roots: 4, Fanout: 2,
			LeafRate: 0.3, ConflictRate: 0.35, Seed: seed,
		})
		ok, err := front.IsCompC(exec.Sys)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		for _, root := range exec.Sys.Roots() {
			clone := exec.Sys.Clone()
			clone.RemoveTree(root)
			if err := clone.Validate(); err != nil {
				t.Fatalf("seed %d: pruned execution must stay well-formed: %v", seed, err)
			}
			stillOK, err := front.IsCompC(clone)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !stillOK {
				t.Fatalf("seed %d: pruning root %s turned a correct execution incorrect", seed, root)
			}
			pruned++
		}
	}
	if pruned == 0 {
		t.Fatal("no correct executions found to prune")
	}
}

// TestRelabelingInvariance: Comp-C must not depend on node or schedule
// names; renaming everything consistently preserves the verdict.
func TestRelabelingInvariance(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		exec := workload.General(workload.GeneralParams{
			Depth: 2, SchedsPerLevel: 2, Roots: 3, Fanout: 2,
			LeafRate: 0.4, ConflictRate: 0.4, Seed: seed,
		})
		orig, err := front.IsCompC(exec.Sys)
		if err != nil {
			t.Fatal(err)
		}
		relabeled := relabel(exec.Sys)
		if err := relabeled.Validate(); err != nil {
			t.Fatalf("seed %d: relabeled system must validate: %v", seed, err)
		}
		got, err := front.IsCompC(relabeled)
		if err != nil {
			t.Fatal(err)
		}
		if got != orig {
			t.Fatalf("seed %d: relabeling changed the verdict %v -> %v", seed, orig, got)
		}
	}
}

// mangle renames an ID reversibly so that lexicographic order is reversed
// (prefix + inverted runes), to shake out any accidental dependence on ID
// ordering. Uniqueness is guaranteed by the original riding as a suffix.
func mangle(s string) string {
	var b strings.Builder
	b.WriteString("zz_")
	for _, r := range s {
		b.WriteRune('~' - (r-' ')%('~'-' '))
	}
	fmt.Fprintf(&b, "_%d_%s", len(s), s)
	return b.String()
}

func mn(id model.NodeID) model.NodeID         { return model.NodeID(mangle(string(id))) }
func ms(id model.ScheduleID) model.ScheduleID { return model.ScheduleID(mangle(string(id))) }

// relabel rewrites every node and schedule ID of sys through mangle.
func relabel(sys *model.System) *model.System {
	out := model.NewSystem()
	for _, sc := range sys.Schedules() {
		out.AddSchedule(ms(sc.ID))
	}
	// Add nodes top-down so parents exist first (not required, but tidy).
	var addSubtree func(id model.NodeID)
	addSubtree = func(id model.NodeID) {
		n := sys.Node(id)
		switch {
		case n.Parent == "":
			out.AddRoot(mn(id), ms(n.Sched))
		case n.Sched != "":
			out.AddTx(mn(id), mn(n.Parent), ms(n.Sched))
		default:
			out.AddLeaf(mn(id), mn(n.Parent))
		}
		if n.WeakIntra != nil {
			r := order.New[model.NodeID]()
			n.WeakIntra.Each(func(a, b model.NodeID) { r.Add(mn(a), mn(b)) })
			out.Node(mn(id)).WeakIntra = r
		}
		if n.StrongIntra != nil {
			r := order.New[model.NodeID]()
			n.StrongIntra.Each(func(a, b model.NodeID) { r.Add(mn(a), mn(b)) })
			out.Node(mn(id)).StrongIntra = r
		}
		for _, k := range sys.Children(id) {
			addSubtree(k)
		}
	}
	for _, r := range sys.Roots() {
		addSubtree(r)
	}
	for _, sc := range sys.Schedules() {
		nsc := out.Schedule(ms(sc.ID))
		sc.Conflicts.Each(func(a, b model.NodeID) { nsc.AddConflict(mn(a), mn(b)) })
		sc.WeakIn.Each(func(a, b model.NodeID) { nsc.WeakIn.Add(mn(a), mn(b)) })
		sc.StrongIn.Each(func(a, b model.NodeID) { nsc.StrongIn.Add(mn(a), mn(b)) })
		sc.WeakOut.Each(func(a, b model.NodeID) { nsc.WeakOut.Add(mn(a), mn(b)) })
		sc.StrongOut.Each(func(a, b model.NodeID) { nsc.StrongOut.Add(mn(a), mn(b)) })
	}
	return out
}

// TestSerialWitnessIsConsistent: for correct executions, replaying the
// serial witness as strong input orders at the root level must again be
// correct (the witness is a genuine equivalent serial front).
func TestSerialWitnessIsConsistent(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 80 && checked < 25; seed++ {
		exec := workload.Stack(workload.StackParams{
			Levels: 2, Roots: 3, Fanout: 2, ConflictRate: 0.3, Seed: seed,
		})
		v, err := front.Check(exec.Sys, front.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Correct {
			continue
		}
		checked++
		// The witness must order any two roots whose subtrees conflict in
		// the direction the execution serialized them.
		pos := map[model.NodeID]int{}
		for i, n := range v.SerialOrder {
			pos[n] = i
		}
		sys := exec.Sys
		for _, sc := range sys.Schedules() {
			sc.Conflicts.Each(func(a, b model.NodeID) {
				ra, rb := rootOf(sys, a), rootOf(sys, b)
				if ra == rb {
					return
				}
				if sc.WeakOut.Has(a, b) && pos[ra] > pos[rb] {
					// Only a hard violation if the pair's order survived
					// to the top (no common vouching schedule). A stack
					// has a single schedule per level, so any conflict is
					// between ops of one schedule; if that schedule's
					// parents coincide this is fine. For the property we
					// check the leaf level only, where Definition 10
					// rule 1 makes the order observed.
					if sys.Node(a).IsLeaf() && sys.Node(b).IsLeaf() && !vouchedAbove(sys, a, b) {
						t.Errorf("seed %d: witness orders %s after %s against conflict (%s,%s)",
							seed, ra, rb, a, b)
					}
				}
			})
		}
	}
	if checked == 0 {
		t.Fatal("no correct executions to check")
	}
}

func rootOf(sys *model.System, id model.NodeID) model.NodeID {
	cur := id
	for {
		p := sys.Parent(cur)
		if p == cur || p == "" {
			return cur
		}
		cur = p
	}
}

// vouchedAbove reports whether some common ancestor schedule of a and b
// declares the corresponding ancestor operations non-conflicting (then the
// order was legitimately forgotten on the way up).
func vouchedAbove(sys *model.System, a, b model.NodeID) bool {
	pa, pb := sys.Parent(a), sys.Parent(b)
	for pa != pb {
		sa, sb := sys.OpSchedule(pa), sys.OpSchedule(pb)
		if sa != "" && sa == sb {
			if !sys.Schedule(sa).Conflict(pa, pb) {
				return true
			}
		}
		// Lift the deeper side (or both when balanced).
		pa2, pb2 := sys.Parent(pa), sys.Parent(pb)
		if pa2 == pa && pb2 == pb {
			return false
		}
		pa, pb = pa2, pb2
	}
	return false
}

// relabelStream renames a delta stream through mangle, keeping the order of
// the stream: nodes still arrive in the original's NodeID order, which is
// now the reverse of their own — the input on which an engine that reads
// diagnostics off arrival-order indices without sorting disagrees with the
// reference.
func relabelStream(deltas []*front.Delta) []*front.Delta {
	pairs := func(ps []front.DeltaPair) []front.DeltaPair {
		var out []front.DeltaPair
		for _, p := range ps {
			out = append(out, front.DeltaPair{Sched: ms(p.Sched), A: mn(p.A), B: mn(p.B)})
		}
		return out
	}
	out := make([]*front.Delta, len(deltas))
	for i, d := range deltas {
		r := &front.Delta{
			Conflicts: pairs(d.Conflicts),
			WeakOut:   pairs(d.WeakOut), StrongOut: pairs(d.StrongOut),
			WeakIn: pairs(d.WeakIn), StrongIn: pairs(d.StrongIn),
		}
		for _, id := range d.Schedules {
			r.Schedules = append(r.Schedules, ms(id))
		}
		for _, n := range d.Nodes {
			rn := front.DeltaNode{ID: mn(n.ID)}
			if n.Parent != "" {
				rn.Parent = mn(n.Parent)
			}
			if n.Sched != "" {
				rn.Sched = ms(n.Sched)
			}
			r.Nodes = append(r.Nodes, rn)
		}
		for _, ip := range d.Intra {
			r.Intra = append(r.Intra, front.DeltaIntra{Tx: mn(ip.Tx), A: mn(ip.A), B: mn(ip.B), Strong: ip.Strong})
		}
		out[i] = r
	}
	return out
}

// perturb adds k random relation pairs to sys, each inside the domain its
// relation has (operations, transactions or one transaction's operations of
// a schedule): the raw material of every failure kind, which the
// generators — they record executions of well-behaved schedulers — hardly
// produce: contradicted intra orders, input orders against observed ones.
func perturb(sys *model.System, rng *rand.Rand, k int) {
	scheds := sys.Schedules()
	for ; k > 0; k-- {
		sc := scheds[rng.Intn(len(scheds))]
		txs := sys.Transactions(sc.ID)
		if len(txs) == 0 {
			continue
		}
		from := sys.Ops(sc.ID)
		kind := rng.Intn(6)
		switch kind {
		case 2, 3:
			from = txs
		case 4, 5:
			from = sys.Children(txs[rng.Intn(len(txs))])
		}
		if len(from) < 2 {
			continue
		}
		a, b := from[rng.Intn(len(from))], from[rng.Intn(len(from))]
		if a == b {
			continue
		}
		switch kind {
		case 0:
			sc.WeakOut.Add(a, b)
		case 1:
			sc.StrongOut.Add(a, b)
		case 2:
			sc.WeakIn.Add(a, b)
		case 3:
			sc.StrongIn.Add(a, b)
		default: // an intra order, contradicted by the schedule in case 5
			nd := sys.Node(sys.Node(a).Parent)
			if nd.WeakIntra == nil {
				nd.WeakIntra = order.New[model.NodeID]()
			}
			nd.WeakIntra.Add(a, b)
			if kind == 5 {
				sc.AddConflict(a, b)
				sc.WeakOut.Add(b, a)
			}
		}
	}
}

// TestDiagnosticsMatchReferenceOnPerturbed: on perturbed executions Check
// and every stream prefix — the system as generated, relabelled, and as a
// relabelled stream in the original arrival order — carry the reference's
// verdict, and the sweep meets every failure kind of a reduction step.
// Systems in which the perturbation made a schedule's own order cyclic are
// skipped: they break Definition 3, and the reference is no oracle there
// (so the level 0 failure is left to TestDiagnosticsInNodeIDOrder).
func TestDiagnosticsMatchReferenceOnPerturbed(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 150; seed++ {
		var sys *model.System
		switch seed % 3 {
		case 0:
			sys = workload.General(workload.GeneralParams{Depth: 2 + int(seed%2), SchedsPerLevel: 2, Roots: 3,
				Fanout: 2, LeafRate: 0.4, ConflictRate: 0.05, Seed: seed}).Sys
		case 1:
			sys = workload.Stack(workload.StackParams{Levels: 1 + int(seed%2), Roots: 3, Fanout: 2,
				ConflictRate: 0.05, StrongRate: 0.2, Seed: seed}).Sys
		case 2:
			sys = workload.Join(workload.JoinParams{Tops: 2, RootsPerTop: 2, Fanout: 2, LeavesPerSub: 2,
				ConflictRate: 0.05, TopConflictRate: 0.1, Seed: seed}).Sys
		}
		rng := rand.New(rand.NewSource(seed))
		perturb(sys, rng, 1+rng.Intn(4))
		cyclic := false
		for _, sc := range sys.Schedules() {
			cyclic = cyclic || order.UnionOf(sc.WeakOut, sc.StrongOut).HasCycle() || order.UnionOf(sc.WeakIn, sc.StrongIn).HasCycle()
		}
		if cyclic {
			continue
		}
		tag := fmt.Sprintf("perturbed/seed%d", seed)
		checkBothWays(t, tag, sys)
		checkBothWays(t, tag+"/relabelled", relabel(sys))
		replayBoth(t, tag, sys)
		replayPrefixExact(t, tag+"/relabelled-stream", relabelStream(front.DecomposeSteps(sys)))

		v, err := front.Check(sys, front.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seen[v.Steps[len(v.Steps)-1].Failure.String()]++
	}
	for _, kind := range []front.FailureKind{front.FailNone, front.FailCalculation, front.FailIsolation, front.FailCC} {
		if seen[kind.String()] < 5 {
			t.Errorf("only %d executions ended in %q; the sweep must cover every outcome (%v)", seen[kind.String()], kind, seen)
		}
	}
}
