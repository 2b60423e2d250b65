package sched

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"

	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/model"
)

// TestSpelledIDs pins the names the driver spells into a root's ID
// buffer. T2 runs three levels deep on the diamond under Hybrid: its first
// attempt dies to the older T1 (wait-die), and in the attempt that commits
// an injected apply fault makes retrySub re-run its ledger subtransaction
// under the airline, so its attempts and the re-run all append to one
// buffer. Then T3 to T103 run the same program one after another on this
// goroutine, each taking the attempt the one before gave back. The
// committed stages' node IDs, parents and event items must equal
// parent + "/" + i and comp + "/" + item spelled by concatenation, and
// T2's and T3's must still read so after the 100 roots that followed.
func TestSpelledIDs(t *testing.T) {
	rt := DiamondTopology().NewRuntime(Hybrid)
	if err := rt.EnableCertify(); err != nil {
		t.Fatal(err)
	}
	type stage struct {
		nodes []front.DeltaNode
		evs   []event
	}
	var mu sync.Mutex
	staged := map[model.NodeID]stage{}
	rt.ix.observe = func(d *front.Delta, evs []event) {
		mu.Lock()
		defer mu.Unlock()
		staged[d.Nodes[0].ID] = stage{slices.Clone(d.Nodes), slices.Clone(evs)}
	}
	rt.SetFaults(FaultPlan{Triggers: []Trigger{{Site: FaultApply, Txn: "T2", Step: "T2/2/1/1"}}})

	incr := func(item string) data.Op { return data.Op{Mode: data.ModeIncr, Item: item, Arg: 1} }
	held, release := make(chan struct{}), make(chan struct{})
	var heldOnce, releaseOnce sync.Once
	hold := leafAt("airline", "t1", incr("t1"))
	hold.Sync = func() { heldOnce.Do(func() { close(held) }); <-release }
	t1 := Invocation{Component: "agencyA", Steps: []Step{
		leafAt("ledger", "x", data.Op{Mode: data.ModeWrite, Item: "x", Arg: 1}), hold,
	}}
	attempts := 0
	first := leafAt("ledger", "x", data.Op{Mode: data.ModeWrite, Item: "x", Arg: 2})
	first.Sync = func() {
		// T2's second attempt lets T1 finish: the first one is sure to
		// find x held by the older T1 and die.
		if attempts++; attempts == 2 {
			releaseOnce.Do(func() { close(release) })
		}
	}
	prog := Invocation{Component: "agencyA", Steps: []Step{
		first,
		{Invoke: &Invocation{Component: "airline", Item: "seat", Mode: data.ModeIncr, Steps: []Step{
			leafAt("ledger", "fee", incr("fee")),
			{Op: &data.Op{Mode: data.ModeIncr, Item: "seats", Arg: 1}},
		}}},
	}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := rt.Submit("T1", t1); err != nil {
			t.Error(err)
		}
	}()
	<-held
	res, err := rt.Submit("T2", prog)
	releaseOnce.Do(func() { close(release) }) // T2 failed before its second attempt
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics(); res.Retries < 1 || m.Aborts < 1 || m.SubRetries != 1 {
		t.Fatalf("T2 retries = %d, aborts = %d, sub-retries = %d: want a wait-die retry and one local re-run",
			res.Retries, m.Aborts, m.SubRetries)
	}

	type spelled struct {
		comp     string
		op       model.NodeID
		parentTx model.NodeID
		item     string
	}
	// want spells root's stage by concatenation, in the order the driver
	// stages it.
	want := func(root model.NodeID) ([]front.DeltaNode, []spelled) {
		nodes := []front.DeltaNode{{ID: root, Sched: "agencyA"}}
		add := func(parent model.NodeID, i int, sched string) model.NodeID {
			id := parent + "/" + model.NodeID(strconv.Itoa(i))
			nodes = append(nodes, front.DeltaNode{ID: id, Parent: parent, Sched: model.ScheduleID(sched)})
			return id
		}
		ledgerX := add(root, 1, "ledger")
		ledgerXLeaf := add(ledgerX, 1, "")
		airline := add(root, 2, "airline")
		fee := add(airline, 1, "ledger")
		feeLeaf := add(fee, 1, "")
		seats := add(airline, 2, "")
		return nodes, []spelled{
			{"agencyA", ledgerX, root, "ledger" + "/" + "x"},
			{"ledger", ledgerXLeaf, ledgerX, "x"},
			{"agencyA", airline, root, "airline" + "/" + "seat"},
			{"airline", fee, airline, "ledger" + "/" + "fee"},
			{"ledger", feeLeaf, fee, "fee"},
			{"airline", seats, airline, "seats"},
		}
	}
	check := func(root model.NodeID, when string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		st := staged[root]
		wantNodes, wantEvs := want(root)
		if !slices.Equal(st.nodes, wantNodes) {
			t.Fatalf("%s: %s's staged nodes\n%v\nwant\n%v", when, root, st.nodes, wantNodes)
		}
		got := make([]spelled, len(st.evs))
		for i, e := range st.evs {
			got[i] = spelled{e.comp, e.op, e.parentTx, e.item}
		}
		if !slices.Equal(got, wantEvs) {
			t.Fatalf("%s: %s's staged events\n%v\nwant\n%v", when, root, got, wantEvs)
		}
	}
	check("T2", "at commit")

	for k := 3; k <= 103; k++ {
		name := fmt.Sprintf("T%d", k)
		if _, err := rt.Submit(name, prog); err != nil {
			t.Fatal(err)
		}
		if k == 3 {
			check("T3", "at commit")
		}
	}
	check("T2", "after 101 later roots")
	check("T3", "after 100 later roots")
}
