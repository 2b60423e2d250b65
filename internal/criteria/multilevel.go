package criteria

import (
	"fmt"
	"sort"

	"compositetx/internal/model"
	"compositetx/internal/order"
)

// This file implements the two classical multilevel criteria the paper's
// introduction positions Comp-C against, both restricted to stack
// configurations:
//
//   - LLSR, level-by-level serializability [We91]: to allow independent
//     schedulers per level it assumes that operations conflicting at one
//     level conflict at all lower levels — equivalently, every ordering a
//     level establishes constrains the level above, whether or not the
//     upper schedule declares a conflict. This destroys modularity and
//     accepts strictly fewer executions than SCC (= Comp-C on stacks).
//     The implementation here is the pessimistic propagate-everything
//     discipline and stands in for the whole LLSR/MLSR family the paper's
//     §4 cites [We91, Wei91]: multilevel variants differ in how much of
//     the lower-level order they lift, and all of them lift at least the
//     conflicting pairs, so all are contained in SCC.
//
//   - OPSR, order-preserving (conflict) serializability [BBG89]: each
//     level must be serializable in an order consistent with the real-time
//     order of non-overlapping transactions, which requires the temporal
//     execution sequence of each schedule.

// IsLLSR reports level-by-level serializability of a stack execution: at
// every level, the union of the schedule's input order, its serialization
// order, and the orders lifted from the level below must be acyclic; all
// established orders are lifted to the next level regardless of declared
// conflicts (the pessimistic conflict-propagation assumption).
func IsLLSR(sys *model.System) (bool, error) {
	stack, err := stackByLevel(sys)
	if err != nil {
		return false, err
	}
	lifted := order.New[model.NodeID]()
	for _, sc := range stack {
		local := order.UnionOf(sc.WeakIn, SerOrder(sys, sc), lifted)
		if local.HasCycle() {
			return false, nil
		}
		next := order.New[model.NodeID]()
		local.TransitiveClosure().Each(func(a, b model.NodeID) {
			pa, pb := sys.Parent(a), sys.Parent(b)
			if pa != pb && pa != a { // stop lifting at the roots
				next.Add(pa, pb)
			}
		})
		lifted = next
	}
	return true, nil
}

// Sequences records, per schedule, the temporal order in which the
// schedule executed its operations. It is extra information beyond the
// model (which only keeps the required weak/strong orders); generators and
// the runtime (Runtime.Sequences) supply it for the OPSR baseline.
type Sequences map[model.ScheduleID][]model.NodeID

// WhollyBefore derives the "transaction t finished before t' started"
// relation of a schedule from its temporal operation sequence.
func WhollyBefore(sys *model.System, sched model.ScheduleID, seq []model.NodeID) *order.Relation[model.NodeID] {
	first := map[model.NodeID]int{}
	last := map[model.NodeID]int{}
	for i, op := range seq {
		t := sys.Parent(op)
		if _, ok := first[t]; !ok {
			first[t] = i
		}
		last[t] = i
	}
	wb := order.New[model.NodeID]()
	txs := make([]model.NodeID, 0, len(first))
	for t := range first {
		txs = append(txs, t)
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i] < txs[j] })
	for _, t := range txs {
		for _, t2 := range txs {
			if t != t2 && last[t] < first[t2] {
				wb.Add(t, t2)
			}
		}
	}
	return wb
}

// IsOPSR reports order-preserving serializability of a stack execution:
// every level must be serializable consistently with its input orders and
// with the real-time order of non-overlapping transactions. seqs must
// contain the temporal operation sequence of every schedule.
func IsOPSR(sys *model.System, seqs Sequences) (bool, error) {
	stack, err := stackByLevel(sys)
	if err != nil {
		return false, err
	}
	for _, sc := range stack {
		seq, ok := seqs[sc.ID]
		if !ok {
			return false, fmt.Errorf("criteria: no temporal sequence recorded for schedule %s", sc.ID)
		}
		u := order.UnionOf(sc.WeakIn, SerOrder(sys, sc), WhollyBefore(sys, sc.ID, seq))
		if u.HasCycle() {
			return false, nil
		}
	}
	return true, nil
}

// stackByLevel returns the stack's schedules ordered bottom-up, or an
// error if the system is not a stack.
func stackByLevel(sys *model.System) ([]*model.Schedule, error) {
	if !IsStack(sys) {
		return nil, fmt.Errorf("criteria: system is not a stack configuration")
	}
	levels, err := sys.Levels()
	if err != nil {
		return nil, err
	}
	out := make([]*model.Schedule, len(levels))
	for id, l := range levels {
		out[l-1] = sys.Schedule(id)
	}
	return out, nil
}
