package front

import "compositetx/internal/model"

// ParkedNodes counts the nodes of the deltas inc holds parked.
func ParkedNodes(inc *Incremental) int { return inc.parkedNodes }

// LoadedEngine loads sys into a Check-sized engine and returns the
// checkpoint fold's engine path — reset, then load the same system — for
// the byte-budget test; reload reports whether the engine failed.
func LoadedEngine(sys *model.System) (reload func() bool, err error) {
	pre, levels, err := sys.Structure()
	if err != nil {
		return nil, err
	}
	eng := newIncEngine(levels, false, len(pre))
	eng.load(sys, pre)
	return func() bool {
		eng.reset()
		eng.load(sys, pre)
		return eng.failed
	}, nil
}

// InvocationGraph returns inc's accumulated invocation graph — its
// schedules and edges, sorted — and the levels it assigns.
func InvocationGraph(inc *Incremental) (scheds []model.ScheduleID, edges [][2]model.ScheduleID, levels map[model.ScheduleID]int) {
	return inc.ig.Nodes(), inc.ig.Pairs(), inc.levels
}
