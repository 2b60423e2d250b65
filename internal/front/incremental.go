package front

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"compositetx/internal/model"
	"compositetx/internal/order"
)

// Incremental is the Comp-C engine of the package — the one production
// implementation of the reduction of Definitions 15–16. It accumulates a
// composite execution delta by delta and re-decides correctness after each
// append by recomputing only the rows and levels a delta touches; Check is
// the degenerate stream, one run of the same engine over a whole system.
//
// Soundness rests on monotonicity: appends only ever ADD nodes and pairs,
// and with a fixed level assignment every derived set of the reduction —
// per-level front membership intervals, observed orders, generalized
// conflicts, constraint relations — only grows. Incorrectness is
// therefore monotone: once any reduction check fails it fails forever,
// so the engine can propagate just the newly derived pairs ("frontier
// propagation" through levels 0..N) and stop at the first failure.
//
// Admission is tentative: the engine journals the words a delta writes
// (order.Journal), and a violating delta is diagnosed, then rolled back
// (undo ∘ admit ≡ id). A delta that changes the level assignment (a new
// schedule, or a new invocation edge) is loaded with the accumulated
// system into a candidate engine, which replaces the live one only if the
// delta is admitted; that happens at most once per topology edge.
//
// Verdicts are identical to the string-keyed oracle's (CheckReference):
// on success the engine materializes the same fronts, serial witness and
// step reports; on failure it completes the relations of the level that
// tripped and reads the reference's diagnostics off them (diagnose) —
// reason, witness cycle, failed level, byte for byte. The property tests
// in incremental_test.go assert this prefix by prefix.
type Incremental struct {
	opts     IncrementalOptions
	sys      *model.System
	ig       *order.Relation[model.ScheduleID]
	levels   map[model.ScheduleID]int
	eng      *incEngine
	rebuilds int

	// Deltas Admit parked, in park order (nil once absorbed), the index
	// of each of their nodes, and their node and root counts.
	parked      []*Delta
	parkedAt    map[model.NodeID]int32
	parkedNodes int
	parkedRoots int
	parks       int // deltas ever parked
}

// IncrementalOptions configures an Incremental.
type IncrementalOptions struct {
	// PropagateInputs mirrors Definition 4 item 7 as the runtime applies
	// it: whenever the (closed) weak output order of a schedule relates two
	// of its operations that are transactions of one common callee
	// schedule, the pair is added to the callee's weak input order. The
	// runtime certifier enables this so the accumulated system matches
	// Runtime.RecordedSystem exactly.
	PropagateInputs bool
}

// NewIncremental returns an empty incremental engine.
func NewIncremental(opts IncrementalOptions) *Incremental {
	return &Incremental{
		opts:   opts,
		sys:    model.NewSystem(),
		ig:     order.New[model.ScheduleID](),
		levels: map[model.ScheduleID]int{},
	}
}

// System returns the accumulated composite system, parked deltas
// absorbed first. Callers must not mutate it; append through deltas
// instead.
func (inc *Incremental) System() *model.System {
	// A parked delta that fails validation stays out of the system, as
	// Append would have left it; System has no error to report it with.
	_ = inc.absorbAll()
	return inc.sys
}

// Parks counts the deltas Admit has parked since the engine was made.
func (inc *Incremental) Parks() int { return inc.parks }

// Declared reports whether schedule s is part of the accumulated
// execution (every declared schedule has a level, and levels start at 1).
func (inc *Incremental) Declared(s model.ScheduleID) bool { return inc.levels[s] > 0 }

// Rebuilds counts admitted level-assignment changes; each replaced the
// engine with one loaded from the accumulated system.
func (inc *Incremental) Rebuilds() int { return inc.rebuilds }

// Append applies the delta and returns the verdict for the accumulated
// execution plus the delta, identical to CheckReference over that system.
// An invalid or violating delta leaves nothing behind: a later delta
// naming its nodes fails validation. Append never parks, and absorbs every
// parked delta first.
func (inc *Incremental) Append(d *Delta) (*Verdict, error) {
	if err := inc.absorbAll(); err != nil {
		return nil, err
	}
	return inc.append(d, true)
}

// Admit is Append for certification hot paths: on success it skips
// materializing the success verdict and returns (nil, nil); on a
// violation it returns the full failure verdict.
//
// Admit parks a delta that carries no schedules, no relation pairs and
// only invocation edges the engine already has. Such a delta adds only
// isolated vertices to every constraint relation, and an isolated vertex
// lies on no cycle, so the engine does not need it until a later delta
// names one of its nodes: Admit absorbs the parked deltas a delta names
// (as a parent or a pair endpoint) before admitting it, and System and
// Append absorb them all. A parked delta is validated when it is
// absorbed; Retire drops it unabsorbed.
func (inc *Incremental) Admit(d *Delta) (*Verdict, error) {
	if inc.parkable(d) {
		inc.park(d)
		return nil, nil
	}
	if err := inc.absorbNamed(d); err != nil {
		return nil, err
	}
	return inc.append(d, false)
}

// park holds d out of the engine until it is named or absorbed.
func (inc *Incremental) park(d *Delta) {
	if inc.parkedAt == nil {
		inc.parkedAt = map[model.NodeID]int32{}
	}
	k := int32(len(inc.parked))
	inc.parked = append(inc.parked, d)
	for _, n := range d.Nodes {
		inc.parkedAt[n.ID] = k
		if n.Parent == "" {
			inc.parkedRoots++
		}
	}
	inc.parkedNodes += len(d.Nodes)
	inc.parks++
}

// absorb validates parked delta k and adds its nodes to the system and
// the engine: what Admit of the delta would do, minus draining queues
// that stay empty. A delta that fails validation is dropped.
func (inc *Incremental) absorb(k int32) error {
	d := inc.unpark(k)
	if err := validateDelta(inc.sys, d); err != nil {
		return err
	}
	d.Apply(inc.sys)
	inc.eng.ensureCap(len(inc.eng.ids) + len(d.Nodes))
	for _, n := range d.Nodes {
		inc.eng.pos = append(inc.eng.pos, inc.eng.addDeltaNode(inc.sys, n))
	}
	return nil
}

// unpark takes parked delta k out of the parked set and returns it.
func (inc *Incremental) unpark(k int32) *Delta {
	d := inc.parked[k]
	inc.parked[k] = nil
	for _, n := range d.Nodes {
		delete(inc.parkedAt, n.ID)
		if n.Parent == "" {
			inc.parkedRoots--
		}
	}
	inc.parkedNodes -= len(d.Nodes)
	return d
}

// absorbNamed absorbs the parked deltas holding a parent or a pair
// endpoint d names.
func (inc *Incremental) absorbNamed(d *Delta) error {
	if len(inc.parkedAt) == 0 {
		return nil
	}
	var err error
	name := func(id model.NodeID) {
		if k, ok := inc.parkedAt[id]; ok && err == nil {
			err = inc.absorb(k)
		}
	}
	for _, n := range d.Nodes {
		name(n.Parent)
	}
	for _, pairs := range [...][]DeltaPair{d.Conflicts, d.WeakOut, d.StrongOut, d.WeakIn, d.StrongIn} {
		for _, p := range pairs {
			name(p.A)
			name(p.B)
		}
	}
	for _, ip := range d.Intra {
		name(ip.Tx)
		name(ip.A)
		name(ip.B)
	}
	return err
}

// absorbAll absorbs every parked delta, in park order, and returns the
// first validation error.
func (inc *Incremental) absorbAll() (err error) {
	for k, d := range inc.parked {
		if d != nil {
			err = cmp.Or(err, inc.absorb(int32(k)))
		}
	}
	inc.dropParked()
	return err
}

// dropParked forgets every parked delta.
func (inc *Incremental) dropParked() {
	clear(inc.parked)
	inc.parked = inc.parked[:0]
	clear(inc.parkedAt)
	inc.parkedNodes, inc.parkedRoots = 0, 0
}

// parkable reports whether Admit may park d: the engine has admitted a
// delta, and d carries no schedules, no relation pairs and only invocation
// edges already in the accumulated IG (a new edge could change the level
// assignment, which only an append handles).
func (inc *Incremental) parkable(d *Delta) bool {
	if inc.eng == nil {
		return false
	}
	if len(d.Schedules)+len(d.Conflicts)+len(d.WeakOut)+len(d.StrongOut)+
		len(d.WeakIn)+len(d.StrongIn)+len(d.Intra) != 0 {
		return false
	}
	// A stage exercises very few distinct invocation edges; memoizing the
	// ones already confirmed spares the per-node relation lookups.
	var seen [4][2]model.ScheduleID
	ns := 0
	for _, n := range d.Nodes {
		if n.Sched == "" || n.Parent == "" {
			continue
		}
		// Stage deltas are small: a linear parent scan beats building a map.
		var caller model.ScheduleID
		found := false
		for j := range d.Nodes {
			if d.Nodes[j].ID == n.Parent {
				caller, found = d.Nodes[j].Sched, true
				break
			}
		}
		if !found {
			nd := inc.sys.Node(n.Parent)
			if nd == nil {
				return false // parked or unknown: admission absorbs or reports it
			}
			caller = nd.Sched
		}
		if caller == "" {
			continue
		}
		hit := false
		for k := 0; k < ns; k++ {
			if seen[k][0] == caller && seen[k][1] == n.Sched {
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		if !inc.ig.Has(caller, n.Sched) {
			return false
		}
		if ns < len(seen) {
			seen[ns] = [2]model.ScheduleID{caller, n.Sched}
			ns++
		}
	}
	return true
}

// append admits d tentatively, on the live engine under its journal or
// on a candidate engine loaded with a copy of the system plus d. A
// violation is diagnosed first; then the live engine rolls d back, or the
// candidate is dropped. Only an admitted d reaches the system and the IG.
func (inc *Incremental) append(d *Delta, full bool) (*Verdict, error) {
	if err := validateDelta(inc.sys, d); err != nil {
		return nil, err
	}
	ig, levels, changed, err := inc.applyIG(d)
	if err != nil {
		return nil, err
	}
	sys, eng, n0 := inc.sys, inc.eng, 0
	if eng == nil || changed {
		sys = inc.sys.Clone()
		d.Apply(sys)
		// The live engine's capacity carries over: rows are allocated
		// lazily, and it spares the candidate the slab re-layouts.
		capN := 0
		if inc.eng != nil {
			capN = inc.eng.capN
		}
		eng = newIncEngine(levels, inc.opts.PropagateInputs, capN)
		eng.load(sys, sys.Preorder())
	} else {
		n0 = len(eng.ids)
		eng.jr.Begin()
		eng.apply(sys, d)
	}
	if eng.failed {
		v, err := eng.verdict(false)
		if eng == inc.eng {
			eng.rollback(n0)
		}
		return v, err
	}
	if eng == inc.eng {
		eng.jr.Commit()
		d.Apply(sys)
		eng.commit(n0)
	} else {
		inc.sys, inc.eng, inc.levels = sys, eng, levels
		inc.rebuilds++
	}
	inc.ig = ig
	eng.flush(sys)
	if !full {
		return nil, nil
	}
	return eng.verdict(false)
}

// applyIG folds the delta's invocation-graph additions (Definition 8)
// into a copy of the accumulated IG; a recursive configuration is an
// error. It returns the IG, its level assignment and whether that changed.
func (inc *Incremental) applyIG(d *Delta) (*order.Relation[model.ScheduleID], map[model.ScheduleID]int, bool, error) {
	dn := make(map[model.NodeID]model.ScheduleID, len(d.Nodes))
	for _, n := range d.Nodes {
		dn[n.ID] = n.Sched
	}
	schedOf := func(id model.NodeID) model.ScheduleID {
		if s, ok := dn[id]; ok {
			return s
		}
		if nd := inc.sys.Node(id); nd != nil {
			return nd.Sched
		}
		return ""
	}
	var edges [][2]model.ScheduleID
	for _, n := range d.Nodes {
		if n.Sched == "" || n.Parent == "" {
			continue
		}
		if caller := schedOf(n.Parent); caller != "" && !inc.ig.Has(caller, n.Sched) {
			edges = append(edges, [2]model.ScheduleID{caller, n.Sched})
		}
	}
	if len(d.Schedules) == 0 && len(edges) == 0 {
		return inc.ig, inc.levels, false, nil
	}
	wig := inc.ig.Clone()
	for _, s := range d.Schedules {
		wig.AddNode(s)
	}
	for _, e := range edges {
		wig.Add(e[0], e[1])
	}
	levels, err := igLevels(wig)
	if err != nil {
		return nil, nil, false, err
	}
	return wig, levels, !maps.Equal(levels, inc.levels), nil
}

// igLevels is model.System.Levels on a standalone invocation graph.
func igLevels(ig *order.Relation[model.ScheduleID]) (map[model.ScheduleID]int, error) {
	sorted, ok := ig.TopoSort()
	if !ok {
		return nil, fmt.Errorf("front: invocation graph is cyclic (recursive configuration): %v", ig.FindCycle())
	}
	levels := make(map[model.ScheduleID]int, len(sorted))
	for i := len(sorted) - 1; i >= 0; i-- {
		sc := sorted[i]
		longest := 0
		for _, succ := range ig.Successors(sc) {
			if l := levels[succ]; l > longest {
				longest = l
			}
		}
		levels[sc] = longest + 1
	}
	return levels, nil
}

// ipair is one pending pair of interned node indices.
type ipair struct{ a, b int32 }

// incLevel is the accumulated reduction state of one front level.
type incLevel struct {
	nodes    order.Bitset
	obs      *order.ClosedRelation // <o, transitively closed throughout
	cc       *order.ClosedRelation // closure of obs ∪ weakIn: CC sentinel
	con      *order.IndexRelation  // CON, symmetric and irreflexive
	weakIn   *order.IndexRelation
	strongIn *order.IndexRelation
	e        *order.IndexRelation  // constraint relation E (levels ≥ 1)
	q        *order.ClosedRelation // closed quotient of E (levels ≥ 1)
}

// incEngine holds the interned-index reduction state for a fixed level
// assignment: every node is an int32 so relation rows are bitset words and
// membership is a bit test, and every per-level structure is maintained
// incrementally under pair insertion. A load numbers the system's nodes in
// its parents-first preorder (model.System.Preorder), so each composite
// transaction's rows are contiguous; later deltas' nodes are numbered in
// arrival order. pos maps the system's refs to these indices; everything a
// verdict exposes is put in NodeID order when it is materialized.
// Relations and node bits are written through jr, which records while a
// delta is tentative.
type incEngine struct {
	jr        *order.Journal
	propagate bool    // IncrementalOptions.PropagateInputs
	prop      []ipair // weak-input pairs the pass propagated, for flush
	closed    []ipair // processLevel's scratch: the pairs one observed insert closed
	failed    bool
	failedAt  int // level whose queues tripped a reduction check, when failed

	orderN   int // N, the highest schedule level
	schedIDs []model.ScheduleID
	schedNum map[model.ScheduleID]int
	slevel   []int
	schedsAt [][]int

	capN      int
	ids       []model.NodeID
	pos       []int32                // engine index of every node of the system, by model.NodeRef
	tent      map[model.NodeID]int32 // engine index of the tentative delta's nodes
	parent    []int32
	sched     []int32 // schedule the node is a transaction of; -1 for leaves
	opSched   []int32 // schedule the node is an operation of; -1 for roots
	entry     []int32 // level the node enters the front
	exitL     []int32 // level the node is reduced at (orderN+1 for roots)
	isLeaf    order.Bitset
	children  [][]int32
	rootCount int

	conf *order.IndexRelation // global conflict predicate (Definition 11 case 1)

	// Per schedule: declared conflict pairs, closed weak output order (≪
	// folded in), conflicting pairs directed by it, closed input orders
	// (⇒ folded into →), and the union of the txs' closed intra orders.
	ops       []order.Bitset
	txs       [][]int32
	confDecl  []*order.IndexRelation
	confOut   []*order.IndexRelation
	weakOutC  []*order.ClosedRelation
	weakInC   []*order.ClosedRelation
	strongInC []*order.ClosedRelation
	intraC    []*order.ClosedRelation

	lv []*incLevel

	// Every relation and bitset over the index space, for reset and
	// ensureCap.
	rels    []*order.IndexRelation
	closeds []*order.ClosedRelation
	bitsets []*order.Bitset

	// Pending frontier queues of the in-flight apply, indexed by level.
	pObs, pWeakIn, pStrongIn, pE [][]ipair
}

// newIncEngine returns an empty engine over the schedules levels assigns.
// capN is the initial width of the index space (at least 64); it grows on
// demand. The per-node tables are sized from it here, once: reset keeps
// them.
func newIncEngine(levels map[model.ScheduleID]int, propagate bool, capN int) *incEngine {
	capN = max(capN, 64)
	eng := &incEngine{
		jr:        &order.Journal{},
		propagate: propagate,
		schedNum:  map[model.ScheduleID]int{},
		capN:      capN,
		ids:       make([]model.NodeID, 0, capN),
		parent:    make([]int32, 0, capN),
		sched:     make([]int32, 0, capN),
		opSched:   make([]int32, 0, capN),
		entry:     make([]int32, 0, capN),
		exitL:     make([]int32, 0, capN),
		children:  make([][]int32, 0, capN),
	}
	for _, l := range levels {
		eng.orderN = max(eng.orderN, l)
	}
	// Schedule numbers ascend with ScheduleID, so schedsAt iteration order
	// and Reduced concatenation match the reference without extra sorting.
	for id := range levels {
		eng.schedIDs = append(eng.schedIDs, id)
	}
	slices.Sort(eng.schedIDs)
	eng.ops = make([]order.Bitset, len(eng.schedIDs))
	eng.txs = make([][]int32, len(eng.schedIDs))
	for s, id := range eng.schedIDs {
		eng.schedNum[id] = s
		eng.slevel = append(eng.slevel, levels[id])
		eng.bitset(&eng.ops[s])
		eng.confDecl = append(eng.confDecl, eng.rel())
		eng.confOut = append(eng.confOut, eng.rel())
		eng.weakOutC = append(eng.weakOutC, eng.closedRel())
		eng.weakInC = append(eng.weakInC, eng.closedRel())
		eng.strongInC = append(eng.strongInC, eng.closedRel())
		eng.intraC = append(eng.intraC, eng.closedRel())
	}
	eng.schedsAt = make([][]int, eng.orderN+1)
	for s := range eng.schedIDs {
		if l := eng.slevel[s]; l >= 1 && l <= eng.orderN {
			eng.schedsAt[l] = append(eng.schedsAt[l], s)
		}
	}
	eng.bitset(&eng.isLeaf)
	eng.conf = eng.rel()
	eng.lv = make([]*incLevel, eng.orderN+1)
	for l := range eng.lv {
		st := &incLevel{obs: eng.closedRel(), cc: eng.closedRel(), con: eng.rel(), weakIn: eng.rel(), strongIn: eng.rel()}
		eng.bitset(&st.nodes)
		if l >= 1 {
			st.e, st.q = eng.rel(), eng.closedRel()
		}
		eng.lv[l] = st
	}
	return eng
}

// rel, closedRel and bitset make and register a structure over the index
// space.
func (eng *incEngine) rel() *order.IndexRelation {
	r := order.NewIndexRelation(eng.capN).Journaled(eng.jr)
	eng.rels = append(eng.rels, r)
	return r
}

func (eng *incEngine) closedRel() *order.ClosedRelation {
	c := order.NewClosedRelation(eng.capN).Journaled(eng.jr)
	eng.closeds = append(eng.closeds, c)
	return c
}

func (eng *incEngine) bitset(b *order.Bitset) {
	*b = order.NewBitset(eng.capN)
	eng.bitsets = append(eng.bitsets, b)
}

// reset returns the engine to its empty state in place, keeping every
// allocated structure — the per-node tables, the slot tables and the
// slabs — for the replay that follows a retirement fold. Valid only while
// the level assignment is unchanged: the per-schedule and per-level
// skeletons (and capN, so row widths stay consistent) are retained, which
// spares the fold both the ~dozens of fresh relation allocations and the
// doubling ladder of slab re-layouts as the next window refills.
func (eng *incEngine) reset() {
	used := len(eng.ids)
	eng.failed = false
	eng.ids, eng.pos, eng.parent, eng.sched = eng.ids[:0], eng.pos[:0], eng.parent[:0], eng.sched[:0]
	eng.opSched, eng.entry, eng.exitL, eng.children = eng.opSched[:0], eng.entry[:0], eng.exitL[:0], eng.children[:0]
	clear(eng.tent)
	eng.rootCount = 0
	for s := range eng.txs {
		eng.txs[s] = eng.txs[s][:0]
	}
	for _, r := range eng.rels {
		r.Reset(used)
	}
	for _, c := range eng.closeds {
		c.Reset(used)
	}
	for _, b := range eng.bitsets {
		clear(*b)
	}
}

// ensureCap widens every index-space structure to hold n nodes. All
// bitsets sharing the space must be regrown together (word-parallel ops
// assume equal widths), so growth is eager and geometric.
func (eng *incEngine) ensureCap(n int) {
	if n <= eng.capN {
		return
	}
	for eng.capN < n {
		eng.capN *= 2
	}
	for _, r := range eng.rels {
		r.Grow(eng.capN)
	}
	for _, c := range eng.closeds {
		c.Grow(eng.capN)
	}
	for _, b := range eng.bitsets {
		*b = b.Grow(eng.capN)
	}
}

// apply runs one validated delta for sys through the engine, tentatively:
// phase A routes every new node and generating pair into per-level
// pending queues; phase B (drain) empties the queues level by level. The
// delta's nodes are not in sys yet; commit maps them once it is applied.
func (eng *incEngine) apply(sys *model.System, d *Delta) {
	eng.begin(len(d.Nodes))
	if eng.tent == nil {
		eng.tent = make(map[model.NodeID]int32, len(d.Nodes))
	}
	for _, dn := range d.Nodes {
		eng.tent[dn.ID] = eng.addDeltaNode(sys, dn)
	}
	at := func(id model.NodeID) int { return int(eng.index(sys, id)) }
	for _, p := range d.Conflicts {
		eng.addConflict(eng.schedNum[p.Sched], at(p.A), at(p.B))
	}
	for _, p := range d.WeakOut {
		eng.addWeakOut(eng.schedNum[p.Sched], at(p.A), at(p.B))
	}
	for _, p := range d.StrongOut {
		eng.addWeakOut(eng.schedNum[p.Sched], at(p.A), at(p.B)) // ≪ ⊆ ≺
	}
	for _, p := range d.WeakIn {
		eng.addWeakIn(eng.schedNum[p.Sched], at(p.A), at(p.B), false)
	}
	for _, p := range d.StrongIn {
		eng.addWeakIn(eng.schedNum[p.Sched], at(p.A), at(p.B), true)
	}
	for _, ip := range d.Intra {
		eng.addIntra(at(ip.Tx), at(ip.A), at(ip.B))
	}
	eng.drain()
}

// index returns the engine index of node id: a node of sys, or one of the
// tentative delta's.
func (eng *incEngine) index(sys *model.System, id model.NodeID) int32 {
	if r := sys.Ref(id); r != model.NoRef {
		return eng.pos[r]
	}
	return eng.tent[id]
}

// addDeltaNode adds a delta's node, whose parent is a node of sys or an
// earlier node of the delta, and returns its engine index.
func (eng *incEngine) addDeltaNode(sys *model.System, dn DeltaNode) int32 {
	pi, si := int32(-1), int32(-1)
	if dn.Parent != "" {
		pi = eng.index(sys, dn.Parent)
	}
	if dn.Sched != "" {
		si = int32(eng.schedNum[dn.Sched])
	}
	return eng.addNode(dn.ID, pi, si)
}

// commit maps the nodes the admitted pass added from index n0 on — now
// applied to the system, whose refs they take in delta order.
func (eng *incEngine) commit(n0 int) {
	for i := n0; i < len(eng.ids); i++ {
		eng.pos = append(eng.pos, int32(i))
	}
	clear(eng.tent)
}

// load runs a whole system through an empty engine as one delta, reading
// sys in place: no Delta is built and nothing is copied. sys must be
// structurally valid and pre its parents-first preorder
// (model.System.Structure or Preorder gives it); the engine numbers the
// nodes in that order. Its relation pairs need not be valid — a pair
// naming an unknown node, or a node outside the domain Definitions 2–3
// give the relation (operations of the schedule for conflicts and output
// orders, its transactions for input orders, the transaction's own
// operations for intra orders), is ignored, which is what validateDelta
// guarantees apply never sees.
func (eng *incEngine) load(sys *model.System, pre []model.NodeRef) {
	eng.begin(len(pre))
	snum := make([]int32, sys.NumSchedules()) // system schedule number → engine's
	for k := range snum {
		snum[k] = -1
		if s, ok := eng.schedNum[sys.ScheduleAt(k).ID]; ok {
			snum[k] = int32(s)
		}
	}
	// The engine is empty, so the k-th node of pre gets index k. Size every
	// child list and transaction list up front: one backing array holds
	// all the child lists.
	eng.pos = slices.Grow(eng.pos[:0], sys.NumNodes())[:sys.NumNodes()]
	for k, r := range pre {
		eng.pos[r] = int32(k)
	}
	nkids := make([]int32, len(pre))
	ntxs := make([]int, len(eng.txs))
	for _, r := range pre {
		nd := sys.At(r)
		if p := nd.ParentRef(); p != model.NoRef {
			nkids[eng.pos[p]]++
		}
		if k := nd.SchedNum(); k >= 0 && snum[k] >= 0 {
			ntxs[snum[k]]++
		}
	}
	for s, n := range ntxs {
		eng.txs[s] = slices.Grow(eng.txs[s], n)
	}
	kids := make([]int32, len(pre))
	for k, r := range pre {
		nd := sys.At(r)
		pi, si := int32(-1), int32(-1)
		if p := nd.ParentRef(); p != model.NoRef {
			pi = eng.pos[p] // parents first
		}
		if k := nd.SchedNum(); k >= 0 {
			si = snum[k]
		}
		eng.addNode(nd.ID, pi, si)
		eng.children[k], kids = kids[:0:nkids[k]], kids[nkids[k]:]
	}

	// pair resolves (a, b) to indices when both nodes are known and of[·]
	// (opSched, sched or parent) maps both to want.
	pair := func(of []int32, want int, a, b model.NodeID) (i, j int32, ok bool) {
		ra, rb := sys.Ref(a), sys.Ref(b)
		if ra == model.NoRef || rb == model.NoRef {
			return 0, 0, false
		}
		i, j = eng.pos[ra], eng.pos[rb]
		return i, j, of[i] == int32(want) && of[j] == int32(want)
	}
	for s, id := range eng.schedIDs {
		sc := sys.Schedule(id)
		sc.Conflicts.Each(func(a, b model.NodeID) {
			if i, j, ok := pair(eng.opSched, s, a, b); ok {
				eng.addConflict(s, int(i), int(j))
			}
		})
		weakOut := func(a, b model.NodeID) {
			if i, j, ok := pair(eng.opSched, s, a, b); ok {
				eng.addWeakOut(s, int(i), int(j))
			}
		}
		sc.WeakOut.Each(weakOut)
		sc.StrongOut.Each(weakOut) // ≪ ⊆ ≺
		sc.WeakIn.Each(func(a, b model.NodeID) {
			if i, j, ok := pair(eng.sched, s, a, b); ok {
				eng.addWeakIn(s, int(i), int(j), false)
			}
		})
		sc.StrongIn.Each(func(a, b model.NodeID) {
			if i, j, ok := pair(eng.sched, s, a, b); ok {
				eng.addWeakIn(s, int(i), int(j), true)
			}
		})
	}
	for t, r := range pre {
		if eng.sched[t] < 0 {
			continue
		}
		intra := func(a, b model.NodeID) {
			if i, j, ok := pair(eng.parent, t, a, b); ok {
				eng.addIntra(t, int(i), int(j))
			}
		}
		nd := sys.At(r)
		if nd.WeakIntra != nil {
			nd.WeakIntra.Each(intra)
		}
		if nd.StrongIntra != nil {
			nd.StrongIntra.Each(intra)
		}
	}
	eng.drain()
}

// begin opens one pass: room for n more nodes, empty queues.
func (eng *incEngine) begin(n int) {
	eng.ensureCap(len(eng.ids) + n)
	eng.prop = eng.prop[:0]
	eng.pObs = resetQueues(eng.pObs, eng.orderN+1)
	eng.pWeakIn = resetQueues(eng.pWeakIn, eng.orderN+1)
	eng.pStrongIn = resetQueues(eng.pStrongIn, eng.orderN+1)
	eng.pE = resetQueues(eng.pE, eng.orderN+1)
}

// drain empties the frontier queues level by level (all pushes go strictly
// upward, so one ascending pass suffices). On the first reduction failure
// the engine stops and remembers the level: everything below it is fully
// drained, and the level's own queues still hold every pair the early exit
// skipped — what diagnose needs.
func (eng *incEngine) drain() {
	for l := 0; l <= eng.orderN; l++ {
		eng.processLevel(l)
		if eng.failed {
			eng.failedAt = l
			return
		}
	}
}

func resetQueues(q [][]ipair, n int) [][]ipair {
	if len(q) != n {
		return make([][]ipair, n)
	}
	for i := range q {
		q[i] = q[i][:0]
	}
	return q
}

func (eng *incEngine) pushObs(l int, a, b int32) { eng.pObs[l] = append(eng.pObs[l], ipair{a, b}) }
func (eng *incEngine) pushWeakIn(l int, a, b int32) {
	eng.pWeakIn[l] = append(eng.pWeakIn[l], ipair{a, b})
}
func (eng *incEngine) pushStrongIn(l int, a, b int32) {
	eng.pStrongIn[l] = append(eng.pStrongIn[l], ipair{a, b})
}
func (eng *incEngine) pushE(l int, a, b int32) { eng.pE[l] = append(eng.pE[l], ipair{a, b}) }

// rollback undoes the pass that began with n0 nodes: the journal restores
// relation words and node bits; the nodes are dropped, newest first.
func (eng *incEngine) rollback(n0 int) {
	eng.jr.Rollback()
	clear(eng.tent)
	for i := len(eng.ids) - 1; i >= n0; i-- {
		if p := eng.parent[i]; p >= 0 {
			eng.children[p] = eng.children[p][:len(eng.children[p])-1]
		} else {
			eng.rootCount--
		}
		if s := eng.sched[i]; s >= 0 {
			eng.txs[s] = eng.txs[s][:len(eng.txs[s])-1]
		}
	}
	eng.ids, eng.parent, eng.children = eng.ids[:n0], eng.parent[:n0], eng.children[:n0]
	eng.sched, eng.opSched = eng.sched[:n0], eng.opSched[:n0]
	eng.entry, eng.exitL = eng.entry[:n0], eng.exitL[:n0]
	eng.failed = false
}

// flush adds the weak-input pairs the admitted pass propagated to sys.
func (eng *incEngine) flush(sys *model.System) {
	for _, p := range eng.prop {
		sys.Schedule(eng.schedIDs[eng.sched[p.a]]).WeakIn.Add(eng.ids[p.a], eng.ids[p.b])
	}
}

// addNode numbers one forest node — its parent's index pi and its home
// schedule si, or -1 for a root or a leaf — and fixes its static membership
// interval: a node is in the level-l front for entry ≤ l < exit, where
// leaves enter at 0, transactions at their schedule's level, and every
// non-root is reduced at its operation schedule's level (roots never are).
// It returns the node's index.
func (eng *incEngine) addNode(id model.NodeID, pi, si int32) int32 {
	i := int32(len(eng.ids))
	eng.ids = append(eng.ids, id)
	eng.children = append(eng.children, nil)

	if pi >= 0 {
		eng.children[pi] = append(eng.children[pi], i)
	}
	eng.parent = append(eng.parent, pi)

	if si >= 0 {
		eng.txs[si] = append(eng.txs[si], i)
	} else {
		eng.jr.Set(eng.isLeaf, int(i))
	}
	eng.sched = append(eng.sched, si)

	osi := int32(-1)
	if pi >= 0 {
		osi = eng.sched[pi]
		eng.jr.Set(eng.ops[osi], int(i))
	} else {
		eng.rootCount++
	}
	eng.opSched = append(eng.opSched, osi)

	var en int32
	if si >= 0 {
		en = int32(eng.slevel[si])
	}
	ex := int32(eng.orderN + 1)
	if pi >= 0 {
		ex = int32(eng.slevel[osi])
	}
	eng.entry = append(eng.entry, en)
	eng.exitL = append(eng.exitL, ex)
	for l := int(en); l < int(ex) && l <= eng.orderN; l++ {
		eng.jr.Set(eng.lv[l].nodes, int(i))
	}
	return i
}

// group maps a node to its level-l reduction group: its parent when the
// step to level l reduces it, itself otherwise.
func (eng *incEngine) group(i, l int) int {
	if eng.exitL[i] == int32(l) {
		return int(eng.parent[i])
	}
	return i
}

func (eng *incEngine) isNewTxAt(g, l int) bool {
	return eng.sched[g] >= 0 && eng.slevel[eng.sched[g]] == l
}

// addConflict registers a declared conflict pair of schedule s: the
// global predicate, the generalized conflict at every level where both
// endpoints coexist, conflicting-output direction, and the un-forget
// rule — an observed pair previously dropped at the lift into level(s)
// by the forgotten-pair rule must be lifted now that the conflict exists.
func (eng *incEngine) addConflict(s, a, b int) {
	if eng.confDecl[s].Has(a, b) {
		return
	}
	eng.confDecl[s].AddSym(a, b)
	eng.conf.AddSym(a, b)

	lo := int(eng.entry[a])
	if int(eng.entry[b]) > lo {
		lo = int(eng.entry[b])
	}
	hi := int(eng.exitL[a])
	if int(eng.exitL[b]) < hi {
		hi = int(eng.exitL[b])
	}
	hi--
	if hi > eng.orderN {
		hi = eng.orderN
	}
	for l := lo; l <= hi; l++ {
		eng.addConDir(l, a, b)
		eng.addConDir(l, b, a)
	}

	if eng.weakOutC[s].Has(a, b) {
		eng.addConfOut(s, a, b)
	}
	if eng.weakOutC[s].Has(b, a) {
		eng.addConfOut(s, b, a)
	}

	e := eng.slevel[s]
	if eng.lv[e-1].obs.Has(a, b) {
		eng.liftInto(e, a, b)
	}
	if eng.lv[e-1].obs.Has(b, a) {
		eng.liftInto(e, b, a)
	}
}

// addConDir adds one direction of the level-l generalized conflict; a
// pair both observed and conflicting is a constraint pair of the next
// step (Definition 16 step 1).
func (eng *incEngine) addConDir(l, u, v int) {
	if eng.lv[l].con.Has(u, v) {
		return
	}
	eng.lv[l].con.Add(u, v)
	if l < eng.orderN && eng.lv[l].obs.Has(u, v) {
		eng.pushE(l+1, int32(u), int32(v))
	}
}

// addConfOut records a conflicting pair directed by the closed output
// order of schedule s: a constraint pair of the step reducing s, and an
// observed pair between the owning transactions (Definition 10 rule 2).
func (eng *incEngine) addConfOut(s, a, b int) {
	if eng.confOut[s].Has(a, b) {
		return
	}
	eng.confOut[s].Add(a, b)
	l := eng.slevel[s]
	eng.pushE(l, int32(a), int32(b))
	if pa, pb := eng.parent[a], eng.parent[b]; pa != pb {
		eng.pushObs(l, pa, pb)
	}
}

// addWeakOut inserts a weak (or folded strong) output-order pair of
// schedule s and routes every newly closed pair.
func (eng *incEngine) addWeakOut(s, a, b int) {
	eng.weakOutC[s].InsertFunc(a, b, func(x, y int) {
		eng.weakOutPair(s, x, y)
	})
}

// weakOutPair routes one newly closed output-order pair of schedule s:
// leaf pairs seed the level-0 observed order (Definition 10 rule 1),
// transaction–leaf pairs enter the observed order with the transaction,
// and transaction pairs of one callee propagate to its input order
// (Definition 4 item 7) when the engine records runtime executions; flush
// adds those to the system once the pass is admitted.
func (eng *incEngine) weakOutPair(s, x, y int) {
	xLeaf, yLeaf := eng.isLeaf.Has(x), eng.isLeaf.Has(y)
	switch {
	case xLeaf && yLeaf:
		eng.pushObs(0, int32(x), int32(y))
	case xLeaf != yLeaf:
		t := x
		if xLeaf {
			t = y
		}
		eng.pushObs(int(eng.entry[t]), int32(x), int32(y))
	default:
		if eng.propagate && eng.sched[x] == eng.sched[y] && eng.sched[x] >= 0 {
			eng.addWeakIn(int(eng.sched[x]), x, y, false)
			eng.prop = append(eng.prop, ipair{int32(x), int32(y)})
		}
	}
	if eng.confDecl[s].Has(x, y) {
		eng.addConfOut(s, x, y)
	}
}

// addWeakIn inserts an input-order pair of schedule s (strong pairs fold
// into the weak order, Definition 3) and queues every newly closed pair
// at the level where s's transactions enter the front.
func (eng *incEngine) addWeakIn(s, a, b int, strong bool) {
	l := eng.slevel[s]
	eng.weakInC[s].InsertFunc(a, b, func(x, y int) {
		eng.pushWeakIn(l, int32(x), int32(y))
	})
	if strong {
		eng.strongInC[s].InsertFunc(a, b, func(x, y int) {
			eng.pushStrongIn(l, int32(x), int32(y))
		})
	}
}

// addIntra inserts an intra-transaction order pair of transaction t;
// closed pairs are constraint pairs of the step reducing t's schedule.
// Distinct transactions have disjoint operation sets, so the shared
// per-schedule closure equals the union of per-transaction closures.
func (eng *incEngine) addIntra(t, a, b int) {
	s := int(eng.sched[t])
	l := eng.slevel[s]
	eng.intraC[s].InsertFunc(a, b, func(x, y int) {
		eng.pushE(l, int32(x), int32(y))
	})
}

// liftInto pushes a level-(l-1) observed pair into the level-l observed
// order, mapped through the level-l grouping, unless it is forgotten:
// both endpoints reduced, operations of one common schedule, no declared
// conflict (Definition 10 rule 2).
func (eng *incEngine) liftInto(l, x, y int) {
	gx, gy := eng.group(x, l), eng.group(y, l)
	if gx == gy {
		return
	}
	if eng.exitL[x] == int32(l) && eng.exitL[y] == int32(l) {
		if sx := eng.opSched[x]; sx >= 0 && sx == eng.opSched[y] && !eng.conf.Has(x, y) {
			return
		}
	}
	eng.pushObs(l, int32(gx), int32(gy))
}

// obsPair handles one newly closed observed pair of level l: generalized
// conflict between cross-schedule nodes (Definition 11 case 2),
// constraint membership when the pair also conflicts, and the lift to
// the next front.
func (eng *incEngine) obsPair(l, x, y int) {
	if l >= 1 {
		sx, sy := eng.opSched[x], eng.opSched[y]
		if sx != sy || sx < 0 {
			eng.addConDir(l, x, y)
			eng.addConDir(l, y, x)
		}
	}
	if l < eng.orderN {
		if eng.lv[l].con.Has(x, y) {
			eng.pushE(l+1, int32(x), int32(y))
		}
		eng.liftInto(l+1, x, y)
	}
}

// processLevel drains the level-l queues: constraint pairs first (the
// two existence checks of Definition 16 step 1 — per-group acyclicity
// and quotient acyclicity), then observed pairs (closed, CC-checked,
// lifted), then input orders (CC-checked, survival-propagated). Every
// push from here goes to level l+1 or higher, so the caller's single
// ascending pass over levels drains everything.
func (eng *incEngine) processLevel(l int) {
	st := eng.lv[l]

	if l >= 1 {
		var dirty []int32
		for k := 0; k < len(eng.pE[l]) && !eng.failed; k++ {
			p := eng.pE[l][k]
			a, b := int(p.a), int(p.b)
			if st.e.Has(a, b) {
				continue
			}
			st.e.Add(a, b)
			ga, gb := eng.group(a, l), eng.group(b, l)
			if ga == gb {
				if eng.isNewTxAt(ga, l) {
					dirty = append(dirty, int32(ga))
				} else {
					eng.failed = true // cyclic singleton group: no calculation
				}
				continue
			}
			if st.q.Has(gb, ga) {
				eng.failed = true // quotient cycle: transactions cannot be isolated
				continue
			}
			st.q.Insert(ga, gb)
		}
		for _, g := range dirty {
			if eng.failed {
				break
			}
			if subgraphCyclic(st.e, eng.children[g]) {
				eng.failed = true // cyclic group: no calculation for the transaction
			}
		}
		if eng.failed {
			return
		}
	}

	for k := 0; k < len(eng.pObs[l]) && !eng.failed; k++ {
		p := eng.pObs[l][k]
		a, b := int(p.a), int(p.b)
		if st.obs.Has(a, b) {
			continue
		}
		if a == b || st.cc.Has(b, a) {
			eng.failed = true // conflict-consistency cycle
			break
		}
		st.cc.Insert(a, b)
		closed := eng.closed[:0]
		st.obs.InsertFunc(a, b, func(x, y int) {
			closed = append(closed, ipair{int32(x), int32(y)})
		})
		for _, c := range closed {
			eng.obsPair(l, int(c.a), int(c.b))
		}
		eng.closed = closed
	}
	if eng.failed {
		return
	}

	for k := 0; k < len(eng.pWeakIn[l]) && !eng.failed; k++ {
		p := eng.pWeakIn[l][k]
		a, b := int(p.a), int(p.b)
		if st.weakIn.Has(a, b) {
			continue
		}
		if a == b || st.cc.Has(b, a) {
			eng.failed = true // conflict-consistency cycle
			break
		}
		st.cc.Insert(a, b)
		st.weakIn.Add(a, b)
		if l < eng.orderN && eng.lv[l+1].nodes.Has(a) && eng.lv[l+1].nodes.Has(b) {
			eng.pushWeakIn(l+1, p.a, p.b)
		}
	}
	if eng.failed {
		return
	}

	for k := 0; k < len(eng.pStrongIn[l]); k++ {
		p := eng.pStrongIn[l][k]
		a, b := int(p.a), int(p.b)
		if st.strongIn.Has(a, b) {
			continue
		}
		st.strongIn.Add(a, b)
		if l < eng.orderN {
			eng.pushE(l+1, p.a, p.b)
			if eng.lv[l+1].nodes.Has(a) && eng.lv[l+1].nodes.Has(b) {
				eng.pushStrongIn(l+1, p.a, p.b)
			}
		}
	}
}

// verdict assembles the verdict of the accumulated execution, identical
// to the reference's: the same step reports (schedule-ascending,
// NodeID-sorted Reduced lists), the same materialized fronts (every level
// the reduction built, when keepFronts), and on success the same serial
// witness, on failure the same diagnostics.
func (eng *incEngine) verdict(keepFronts bool) (*Verdict, error) {
	v := &Verdict{Order: eng.orderN, FailedLevel: -1}
	last := eng.orderN // level of the last step attempted
	if eng.failed {
		last = eng.failedAt
	}
	for l := 0; l <= last; l++ {
		v.Steps = append(v.Steps, &StepReport{Level: l, Reduced: eng.reducedAt(l)})
	}

	if eng.failed {
		rep := v.Steps[last]
		if last == 0 {
			// The level 0 front is built, not stepped to: the reference
			// reports its CC failure in Reason only and keeps the front.
			rep = &StepReport{}
		}
		if err := eng.diagnose(rep); err != nil {
			return nil, err
		}
		v.FailedLevel, v.Reason = last, failReason(rep)
		if keepFronts {
			for l := 0; l <= max(last-1, 0); l++ {
				v.Fronts = append(v.Fronts, eng.materialize(l))
			}
		}
		return v, nil
	}

	if keepFronts {
		for l := 0; l <= last; l++ {
			v.Fronts = append(v.Fronts, eng.materialize(l))
		}
	}
	final := eng.lv[last]
	if n := final.nodes.Count(); n != eng.rootCount {
		return nil, fmt.Errorf("front: level %d front has %d nodes, want %d roots", eng.orderN, n, eng.rootCount)
	}
	serial, ok := eng.serialOrder(final)
	if !ok {
		// Cannot happen: every insert passed the CC sentinel.
		return nil, fmt.Errorf("front: CC level-%d front has no topological order", eng.orderN)
	}
	v.Correct = true
	v.SerialOrder = serial
	return v, nil
}

// diagnose fills rep with the failure the reference reports for the level
// that tripped. drain stopped at the first violated check it met, in
// arrival order; the reference reports the first in its own order of
// checks. So diagnose first completes the level's relations from the
// still-pending queues without any early exit (every level below is fully
// drained, so the queues hold every remaining generating pair), then asks
// the reference's questions in the reference's order (Definition 16):
// a group with cyclic internal constraints, smallest NodeID first
// (FailCalculation); a cycle between groups (FailIsolation); a cycle in
// observed order ∪ weak input order (FailCC — the only check at level 0).
// Its writes to the engine's relations go through the journal like the
// pass's own, so a rollback undoes them too.
func (eng *incEngine) diagnose(rep *StepReport) error {
	l := rep.Level
	st := eng.lv[l]

	if l >= 1 {
		for _, p := range eng.pE[l] {
			st.e.Add(int(p.a), int(p.b))
		}
		// Groups with an internal constraint pair are the only candidates
		// for a missing calculation; q collects the pairs between groups.
		q := order.NewIndexRelation(eng.capN)
		groups := order.NewBitset(eng.capN)
		inner := order.NewBitset(eng.capN)
		st.e.Each(func(a, b int) {
			ga, gb := eng.group(a, l), eng.group(b, l)
			groups.Set(ga)
			groups.Set(gb)
			if ga != gb {
				q.Add(ga, gb)
			} else {
				inner.Set(ga)
			}
		})
		for _, g := range eng.sortedByID(inner) {
			members := []int32{g} // a surviving node constrained against itself
			if eng.isNewTxAt(int(g), l) {
				members = eng.children[g]
			}
			if !subgraphCyclic(st.e, members) {
				continue
			}
			mask := order.NewBitset(eng.capN)
			for _, m := range members {
				mask.Set(int(m))
			}
			rep.Failure = FailCalculation
			rep.BadTransaction = eng.ids[g]
			rep.Cycle = eng.findCycle(st.e, mask)
			return nil
		}
		if c := eng.findCycle(q, groups); c != nil {
			rep.Failure = FailIsolation
			rep.Cycle = c
			return nil
		}
	}

	for _, p := range eng.pObs[l] {
		st.obs.Insert(int(p.a), int(p.b))
	}
	u := st.obs.Rel().Clone()
	u.Or(st.weakIn)
	for _, p := range eng.pWeakIn[l] {
		u.Add(int(p.a), int(p.b))
	}
	if c := eng.findCycle(u, st.nodes); c != nil {
		rep.Failure = FailCC
		rep.Cycle = c
		return nil
	}
	return fmt.Errorf("front: reduction failed at level %d but no violated check was found (engine bug)", l)
}

// serialOrder is the reference's serialWitness — Relation.TopoSort of
// <o ∪ → over the final front — on indices: Kahn's algorithm, always
// taking the ready node of smallest NodeID. It fails iff the union is
// cyclic over the front.
func (eng *incEngine) serialOrder(st *incLevel) ([]model.NodeID, bool) {
	nodes := eng.sortedByID(st.nodes)
	row := order.NewBitset(eng.capN)
	succ := func(u int32, fn func(v int)) {
		clear(row)
		row.OrAnd(st.obs.Row(int(u)), st.nodes)
		row.OrAnd(st.weakIn.Row(int(u)), st.nodes)
		row.Each(fn)
	}
	indeg := make([]int32, len(eng.ids))
	for _, u := range nodes {
		succ(u, func(v int) { indeg[v]++ })
	}
	out := make([]model.NodeID, 0, len(nodes))
	for len(out) < len(nodes) {
		k := slices.IndexFunc(nodes, func(u int32) bool { return indeg[u] == 0 })
		if k < 0 {
			return nil, false
		}
		indeg[nodes[k]] = -1
		out = append(out, eng.ids[nodes[k]])
		succ(nodes[k], func(v int) { indeg[v]-- })
	}
	return out, true
}

// sortedByID lists the node indices of set in ascending NodeID order — the
// order the string-keyed reference iterates in, which arrival-order
// indices lack.
func (eng *incEngine) sortedByID(set order.Bitset) []int32 {
	out := indices(set)
	slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(eng.ids[a], eng.ids[b]) })
	return out
}

// indices lists the set bits of set, ascending.
func indices(set order.Bitset) []int32 {
	out := make([]int32, 0, set.Count())
	set.Each(func(i int) { out = append(out, int32(i)) })
	return out
}

// findCycle is Relation.FindCycle on rel restricted to the nodes of mask,
// mirroring the reference exactly — white/grey/black DFS, roots and
// successors visited in ascending NodeID order, identical back-edge cycle
// reconstruction — so witness cycles match the string-keyed path byte for
// byte. Returns nil when acyclic over mask.
func (eng *incEngine) findCycle(rel *order.IndexRelation, mask order.Bitset) []model.NodeID {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]byte, len(eng.ids))
	parent := make([]int32, len(eng.ids))
	// One string sort ranks the masked nodes; successor lists then sort on
	// the integer rank.
	roots := eng.sortedByID(mask)
	rank := make([]int32, len(eng.ids))
	for k, u := range roots {
		rank[u] = int32(k)
	}
	row := order.NewBitset(eng.capN)
	successors := func(u int32) []int32 {
		clear(row)
		row.OrAnd(rel.Row(int(u)), mask)
		out := indices(row)
		slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(rank[a], rank[b]) })
		return out
	}

	var cycle []model.NodeID
	var dfs func(u int32) bool
	dfs = func(u int32) bool {
		color[u] = grey
		for _, m := range successors(u) {
			switch color[m] {
			case white:
				parent[m] = u
				if dfs(m) {
					return true
				}
			case grey:
				// Back edge u -> m: reconstruct the path m ... u.
				cycle = []model.NodeID{eng.ids[m]}
				for x := u; x != m; x = parent[x] {
					cycle = append(cycle, eng.ids[x])
				}
				slices.Reverse(cycle[1:])
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, u := range roots {
		if color[u] == white && dfs(u) {
			return cycle
		}
	}
	return nil
}

// subgraphCyclic reports whether e restricted to members contains a cycle.
func subgraphCyclic(e *order.IndexRelation, members []int32) bool {
	if len(members) == 0 {
		return false
	}
	color := make([]byte, len(members))
	var dfs func(k int) bool
	dfs = func(k int) bool {
		color[k] = 1
		row := e.Row(int(members[k]))
		for k2, m := range members {
			if !row.Has(int(m)) {
				continue
			}
			if color[k2] == 1 {
				return true
			}
			if color[k2] == 0 && dfs(k2) {
				return true
			}
		}
		color[k] = 2
		return false
	}
	for k := range members {
		if color[k] == 0 && dfs(k) {
			return true
		}
	}
	return false
}

// reducedAt lists the transactions entering the front at level l, per
// ascending schedule, NodeIDs sorted — the arrival-order indices need an
// explicit sort to reproduce the reference's lexicographic order.
func (eng *incEngine) reducedAt(l int) []model.NodeID {
	var out []model.NodeID
	for _, s := range eng.schedsAt[l] {
		ids := make([]model.NodeID, 0, len(eng.txs[s]))
		for _, t := range eng.txs[s] {
			ids = append(ids, eng.ids[t])
		}
		slices.Sort(ids)
		out = append(out, ids...)
	}
	return out
}

// materialize converts the level-l state to the string-keyed Front of the
// public API.
func (eng *incEngine) materialize(l int) *Front {
	st := eng.lv[l]
	out := &Front{
		Level:    l,
		nodes:    make(map[model.NodeID]struct{}, st.nodes.Count()),
		Obs:      order.New[model.NodeID](),
		Con:      model.NewPairSet(),
		WeakIn:   order.New[model.NodeID](),
		StrongIn: order.New[model.NodeID](),
	}
	st.nodes.Each(func(i int) {
		id := eng.ids[i]
		out.nodes[id] = struct{}{}
		out.Obs.AddNode(id)
	})
	st.obs.Each(func(i, j int) { out.Obs.Add(eng.ids[i], eng.ids[j]) })
	st.con.Each(func(i, j int) {
		if i < j {
			out.Con.Add(eng.ids[i], eng.ids[j])
		}
	})
	st.weakIn.Each(func(i, j int) { out.WeakIn.Add(eng.ids[i], eng.ids[j]) })
	st.strongIn.Each(func(i, j int) { out.StrongIn.Add(eng.ids[i], eng.ids[j]) })
	return out
}
