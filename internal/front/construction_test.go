package front_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/order"
)

// copyInto adds src's nodes to dst in the given order, then its
// schedules (those dst lacks) and every relation pair, with every node ID
// prefixed by prefix. Adding nodes before schedules and children before
// parents is what Decode and Delta.Apply may do.
func copyInto(dst, src *model.System, prefix string, nodes []model.NodeID) {
	ren := func(id model.NodeID) model.NodeID {
		if id == "" {
			return ""
		}
		return model.NodeID(prefix) + id
	}
	for _, id := range nodes {
		n := src.Node(id)
		var c *model.Node
		switch {
		case n.Parent == "":
			c = dst.AddRoot(ren(id), n.Sched)
		case n.Sched == "":
			c = dst.AddLeaf(ren(id), ren(n.Parent))
		default:
			c = dst.AddTx(ren(id), ren(n.Parent), n.Sched)
		}
		if n.WeakIntra != nil {
			c.WeakIntra = n.WeakIntra.Map(ren)
		}
		if n.StrongIntra != nil {
			c.StrongIntra = n.StrongIntra.Map(ren)
		}
	}
	for _, sc := range src.Schedules() {
		d := dst.Schedule(sc.ID)
		if d == nil {
			d = dst.AddSchedule(sc.ID)
		}
		sc.Conflicts.Each(func(a, b model.NodeID) { d.AddConflict(ren(a), ren(b)) })
		for _, rel := range [][2]*order.Relation[model.NodeID]{
			{d.WeakIn, sc.WeakIn}, {d.StrongIn, sc.StrongIn}, {d.WeakOut, sc.WeakOut}, {d.StrongOut, sc.StrongOut},
		} {
			rel[1].Each(func(a, b model.NodeID) { rel[0].Add(ren(a), ren(b)) })
		}
	}
}

// checkAndEncode returns the verdict's JSON and the system's Encode bytes.
func checkAndEncode(t *testing.T, tag string, sys *model.System) (verdict, encoded []byte) {
	t.Helper()
	v, err := front.Check(sys, front.Options{})
	if err != nil {
		t.Fatalf("%s: Check: %v", tag, err)
	}
	verdict, err = v.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return verdict, buf.Bytes()
}

// TestConstructionOrder builds each system three ways — parents first;
// children before parents and schedules after every node; and as what
// RemoveTrees leaves of a larger system whose removed nodes came first —
// and requires one verdict and one encoding from all three: a node's ref
// is an insertion index, never part of what Check or Encode observe.
func TestConstructionOrder(t *testing.T) {
	corpus := generalCorpus(3, 8)
	extra := generalCorpus(4, 1)[0].Sys
	verdicts := map[bool]int{}
	for i, ex := range corpus {
		base := ex.Sys
		tag := fmt.Sprintf("system %d", i)
		wantV, wantE := checkAndEncode(t, tag+" parents first", base)
		v, _ := front.Check(base, front.Options{})
		verdicts[v.Correct]++

		// Reverse ID order lists "T1.2.3" before "T1.2" before "T1".
		childrenFirst := model.NewSystem()
		ids := base.NodeIDs()
		slices.Reverse(ids)
		copyInto(childrenFirst, base, "", ids)

		// The larger system's extra nodes take the low refs, so removing
		// them moves every node that stays.
		pruned := model.NewSystem()
		copyInto(pruned, extra, "X", extra.NodeIDs())
		copyInto(pruned, base, "", base.NodeIDs())
		var xroots []model.NodeID
		for _, r := range extra.Roots() {
			xroots = append(xroots, "X"+r)
		}
		pruned.RemoveTrees(xroots)

		for _, c := range []struct {
			how string
			sys *model.System
		}{{"children first", childrenFirst}, {"after RemoveTrees", pruned}} {
			if err := c.sys.ValidateStructure(); err != nil {
				t.Fatalf("%s %s: %v", tag, c.how, err)
			}
			gotV, gotE := checkAndEncode(t, tag+" "+c.how, c.sys)
			if !bytes.Equal(gotV, wantV) {
				t.Errorf("%s %s: verdict\n%s\nwant\n%s", tag, c.how, gotV, wantV)
			}
			if !bytes.Equal(gotE, wantE) {
				t.Errorf("%s %s: Encode differs from the parents-first system's", tag, c.how)
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("corpus must hold both verdicts: %v", verdicts)
	}
}
