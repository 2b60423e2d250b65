package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"compositetx"
	"compositetx/internal/data"
	"compositetx/internal/front"
	"compositetx/internal/sched"
)

// The two single-process commit workloads share one runtime shape (bank
// topology, Hybrid, certified, checkpoint every 64 commits — the E17
// steady state) and differ in what the programs do to it:
//
//	commit-commute         12 commuting increments on client-private
//	                       items, in memory: zero conflicts, every commit
//	                       takes the certifier's fast path.
//	commit-mixed-durable   transfers, audits and hot-set writes over 4 096
//	                       skewed accounts, journaled: real conflict pairs,
//	                       the engine path, WAL appends and checkpoint cuts.

const (
	checkpointEvery = 64

	// mixedSyncEvery is commit-mixed-durable's flush policy: an fsync every
	// 4 096 records, plus the one every checkpoint marker forces (so at
	// most one cadence of commits is ever unsynced). A checkpoint journals
	// every store item, ~74 records per commit here; at an fsync every 64
	// records that is more than one fsync per commit, and fsync on the
	// reference box swings 2x for minutes at a time (README.md, "Noise").
	mixedSyncEvery = 4096

	commuteLegs   = 12
	commuteItems  = 64   // private items per branch
	commutePool   = 1024 // distinct programs cycled through
	commuteSeedV  = 1 << 20
	mixedAccounts = 4096
	mixedHot      = 16
	mixedPool     = 8192
	mixedSeedV    = 1000
)

// leg is one leaf operation of a program, executed at a branch through a
// subtransaction of the bank.
type leg struct {
	comp string
	op   data.Op
}

// program is one root transaction and what it does, so the benchmark can
// predict every store value and every read result without the runtime.
type program struct {
	inv  sched.Invocation
	legs []leg
}

func newProgram(legs []leg) program {
	steps := make([]sched.Step, len(legs))
	for i, l := range legs {
		op := l.op
		steps[i] = sched.Step{Invoke: &sched.Invocation{
			Component: l.comp, Item: op.Item, Mode: op.Mode,
			Steps: []sched.Step{{Op: &op}},
		}}
	}
	return program{inv: sched.Invocation{Component: "bank", Steps: steps}, legs: legs}
}

// bankModel is the benchmark's own account of the stores: component →
// item → value after the programs submitted so far.
type bankModel map[string]map[string]int64

func (m bankModel) clone() bankModel {
	c := make(bankModel, len(m))
	for comp, items := range m {
		ci := make(map[string]int64, len(items))
		for k, v := range items {
			ci[k] = v
		}
		c[comp] = ci
	}
	return c
}

// apply plays a program on the model and returns what its reads return.
func (m bankModel) apply(p *program) (reads []int64) {
	for _, l := range p.legs {
		switch l.op.Mode {
		case data.ModeIncr:
			m[l.comp][l.op.Item] += l.op.Arg
		case data.ModeWrite:
			m[l.comp][l.op.Item] = l.op.Arg
		case data.ModeRead:
			reads = append(reads, m[l.comp][l.op.Item])
		}
	}
	return reads
}

// diff compares the model with a component's store contents.
func (m bankModel) diff(comp string, got map[string]int64) error {
	want := m[comp]
	if len(got) != len(want) {
		return fmt.Errorf("store %s holds %d items, expected %d", comp, len(got), len(want))
	}
	for item, v := range want {
		if got[item] != v {
			return fmt.Errorf("store %s item %s = %d, expected %d", comp, item, got[item], v)
		}
	}
	return nil
}

// commutePrograms builds a pool of 12-leg roots over one client's private
// items: six transfers east → west, every leg a commuting increment.
func commutePrograms(rng *rand.Rand, client, n, legs int) []program {
	pool := make([]program, n)
	for i := range pool {
		ls := make([]leg, 0, legs)
		for l := 0; l < legs; l += 2 {
			amt := int64(1 + rng.Intn(7))
			ls = append(ls,
				leg{"east", data.Op{Mode: data.ModeIncr, Item: fmt.Sprintf("c%d-p%d", client, rng.Intn(commuteItems)), Arg: -amt}},
				leg{"west", data.Op{Mode: data.ModeIncr, Item: fmt.Sprintf("c%d-p%d", client, rng.Intn(commuteItems)), Arg: amt}})
		}
		pool[i] = newProgram(ls[:legs])
	}
	return pool
}

func commuteSeeds(clients int) bankModel {
	m := bankModel{"east": {}, "west": {}}
	for c := 0; c < clients; c++ {
		for k := 0; k < commuteItems; k++ {
			item := fmt.Sprintf("c%d-p%d", c, k)
			m["east"][item], m["west"][item] = commuteSeedV, commuteSeedV
		}
	}
	return m
}

func accountHome(k int) (comp, item string) {
	if k%2 == 0 {
		return "east", "a" + strconv.Itoa(k)
	}
	return "west", "a" + strconv.Itoa(k)
}

// mixPattern interleaves 12 transfers, 5 audits and 3 hot-set writes.
// The kind of the i-th program is fixed; the seed draws only accounts,
// amounts and values, so record, fsync and allocation counts are the same
// for every seed.
const mixPattern = "TATTWTATTATWTATTATWT"

// mixedPrograms builds the read/write mix: 60 % transfers between two
// Zipf-chosen accounts, 25 % audits reading one, 15 % writes on the hot
// set. Audits conflict with increments and writes with everything, so
// commits carry real conflict pairs into the certifier.
func mixedPrograms(rng *rand.Rand, n, accounts int) []program {
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(accounts-1))
	pool := make([]program, n)
	for i := range pool {
		switch mixPattern[i%len(mixPattern)] {
		case 'T':
			from, to := int(zipf.Uint64()), int(zipf.Uint64())
			if to == from {
				to = (from + 1) % accounts
			}
			amt := int64(1 + rng.Intn(7))
			fc, fi := accountHome(from)
			tc, ti := accountHome(to)
			pool[i] = newProgram([]leg{
				{fc, data.Op{Mode: data.ModeIncr, Item: fi, Arg: -amt}},
				{tc, data.Op{Mode: data.ModeIncr, Item: ti, Arg: amt}},
			})
		case 'A':
			c, it := accountHome(int(zipf.Uint64()))
			pool[i] = newProgram([]leg{{c, data.Op{Mode: data.ModeRead, Item: it}}})
		default:
			item := "hot" + strconv.Itoa(rng.Intn(mixedHot))
			pool[i] = newProgram([]leg{{"east", data.Op{Mode: data.ModeWrite, Item: item, Arg: rng.Int63n(1000)}}})
		}
	}
	return pool
}

func mixedSeeds(accounts int) bankModel {
	m := bankModel{"east": {}, "west": {}}
	for k := 0; k < accounts; k++ {
		c, it := accountHome(k)
		m[c][it] = mixedSeedV
	}
	for h := 0; h < mixedHot; h++ {
		m["east"]["hot"+strconv.Itoa(h)] = 0
	}
	return m
}

// newBankRuntime builds the runtime both commit workloads (and
// recover-replay's crashed run) measure: seeded stores, live
// certification, the checkpoint cadence, and a WAL when walDir is set.
func newBankRuntime(seeds bankModel, certify bool, walDir string, syncEvery int) (*sched.Runtime, error) {
	rt := sched.BankTopology().NewRuntime(sched.Hybrid)
	for comp, items := range seeds {
		st := rt.Store(comp)
		names := make([]string, 0, len(items))
		for it := range items {
			names = append(names, it)
		}
		sort.Strings(names)
		for _, it := range names {
			st.Set(it, items[it])
		}
	}
	if certify {
		if err := rt.EnableCertify(); err != nil {
			return nil, err
		}
	}
	if walDir != "" {
		if err := rt.EnableWAL(sched.WALConfig{Dir: walDir, SyncEvery: syncEvery}); err != nil {
			return nil, err
		}
	}
	rt.EnableCheckpoints(sched.CheckpointConfig{Every: checkpointEvery})
	return rt, nil
}

// commitWorkload: op = one committed root, one client.
type commitWorkload struct {
	mixed   bool
	seed    int64
	scratch string

	dir   string // WAL directory (mixed only)
	rt    *sched.Runtime
	pool  []program
	model bankModel
	next  int // programs submitted so far; names and pool position follow it

	// corruptModel, set by tests, makes the expectation wrong on purpose.
	corruptModel bool
}

func newCommitCommute(seed int64, _ sizes, scratch string) workload {
	return &commitWorkload{seed: seed, scratch: scratch}
}

func newCommitMixed(seed int64, _ sizes, scratch string) workload {
	return &commitWorkload{mixed: true, seed: seed, scratch: scratch}
}

func (w *commitWorkload) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	if w.mixed {
		dir, err := os.MkdirTemp(w.scratch, "mixed-wal-*")
		if err != nil {
			return err
		}
		w.dir = dir
		w.pool = mixedPrograms(rng, mixedPool, mixedAccounts)
		w.model = mixedSeeds(mixedAccounts)
	} else {
		w.pool = commutePrograms(rng, 0, commutePool, commuteLegs)
		w.model = commuteSeeds(1)
	}
	rt, err := newBankRuntime(w.model, true, w.dir, mixedSyncEvery)
	if err != nil {
		return err
	}
	w.rt = rt
	if w.corruptModel {
		w.model["east"]["bogus"] = 1
	}
	return nil
}

// prepare names the next ops transactions and predicts their reads; the
// model runs ahead of the runtime by exactly the prepared operations.
func (w *commitWorkload) prepare(ops int) (opFunc, error) {
	base := w.next
	w.next += ops
	names := make([]string, ops)
	wantReads := make([][]int64, ops)
	for i := range names {
		names[i] = "T" + strconv.Itoa(base+i)
		wantReads[i] = w.model.apply(&w.pool[(base+i)%len(w.pool)])
	}
	return func(_, i int) error {
		res, err := w.rt.Submit(names[i], w.pool[(base+i)%len(w.pool)].inv)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		want := wantReads[i]
		if len(res.Values) != len(want) {
			return fmt.Errorf("%s: %d read results, expected %d", names[i], len(res.Values), len(want))
		}
		for k, v := range want {
			if res.Values[k] != v {
				return fmt.Errorf("%s: read %d returned %d, expected %d", names[i], k, res.Values[k], v)
			}
		}
		return nil
	}, nil
}

// procWriteBytes is the process's cumulative bytes handed to write(2)
// (/proc/self/io wchar): during a rep only the WAL writes, so its delta
// is the exact log volume even while checkpoints delete segments. It is 0
// where /proc is not available.
func procWriteBytes() float64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar: "); ok {
			v, _ := strconv.ParseFloat(rest, 64)
			return v
		}
	}
	return 0
}

func runtimeCounters(rt *sched.Runtime) map[string]float64 {
	m := rt.Metrics()
	return map[string]float64{
		"commits":      float64(m.Commits),
		"fastpath":     float64(m.CertifyFastPath),
		"rejects":      float64(m.CertifyRejects),
		"retries":      float64(m.Aborts + m.ValidationAborts + m.Timeouts),
		"lock_waits":   float64(m.LockWaits),
		"checkpoints":  float64(m.CheckpointsTaken),
		"nodes_pruned": float64(m.NodesPruned),
		"wal_records":  float64(rt.WALRecords()),
		"wal_bytes":    procWriteBytes(),
	}
}

func (w *commitWorkload) counters() map[string]float64 { return runtimeCounters(w.rt) }

// verifyBank is the gate every runtime-backed workload ends on: nothing
// rejected, every submitted root committed, the stores exactly as the
// model predicts (so value is conserved), and the recorded execution
// Comp-C.
func verifyBank(rt *sched.Runtime, model bankModel, submitted int, conserved int64) []error {
	var errs []error
	m := rt.Metrics()
	if m.CertifyRejects != 0 {
		errs = append(errs, fmt.Errorf("%d certify rejects", m.CertifyRejects))
	}
	if int(m.Commits) != submitted {
		errs = append(errs, fmt.Errorf("%d commits, %d roots submitted", m.Commits, submitted))
	}
	var sum int64
	for _, comp := range []string{"east", "west"} {
		snap := rt.Store(comp).Snapshot()
		if err := model.diff(comp, snap); err != nil {
			errs = append(errs, err)
		}
		for item, v := range snap {
			if !strings.HasPrefix(item, "hot") {
				sum += v
			}
		}
	}
	if sum != conserved {
		errs = append(errs, fmt.Errorf("account total %d, expected %d: value not conserved", sum, conserved))
	}
	sys := rt.CertifiedSystem()
	if sys == nil {
		return append(errs, errors.New("runtime is not certifying"))
	}
	v, err := compositetx.Check(sys, compositetx.CheckOptions{})
	switch {
	case err != nil:
		errs = append(errs, fmt.Errorf("checking the certified execution: %w", err))
	case !v.Correct:
		errs = append(errs, fmt.Errorf("certified execution is not Comp-C: %s", v.Reason))
	}
	return errs
}

func (w *commitWorkload) conserved() int64 {
	if w.mixed {
		return mixedAccounts * mixedSeedV
	}
	return 2 * commuteItems * commuteSeedV
}

func (w *commitWorkload) verify() []error {
	return verifyBank(w.rt, w.model, w.next, w.conserved())
}

func (w *commitWorkload) close() error {
	if w.rt == nil {
		return nil
	}
	err := w.rt.CloseWAL()
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir))
	}
	return err
}

// lane is one stream of roots a latency probe submits: a runtime, the
// programs cycled through, and a name prefix unique on that runtime.
type lane struct {
	rt     *sched.Runtime
	pool   []program
	prefix string
}

// laneP50 returns each lane's median Submit latency. The lanes take turns
// in short chunks, so a noisy stretch of the machine lands on all of them
// alike and their differences stay meaningful.
func laneP50(p *prober, lanes []lane, chunks, chunk int) ([]float64, error) {
	lat := make([][]int64, len(lanes))
	for k := 0; k < chunks; k++ {
		for l, ln := range lanes {
			var err error
			p.call("sched.Runtime.Submit/"+ln.prefix, func() {
				for i := k * chunk; i < (k+1)*chunk; i++ {
					t0 := time.Now()
					if _, err = ln.rt.Submit(ln.prefix+strconv.Itoa(i), ln.pool[i%len(ln.pool)].inv); err != nil {
						return
					}
					lat[l] = append(lat[l], int64(time.Since(t0)))
				}
			})
			if err != nil {
				return nil, err
			}
		}
	}
	p50 := make([]float64, len(lanes))
	for l := range lanes {
		sort.Slice(lat[l], func(a, b int) bool { return lat[l][a] < lat[l][b] })
		p50[l] = float64(percentile(lat[l], 0.5)) / 1e3
	}
	return p50, nil
}

func (w *commitWorkload) probe(p *prober) error {
	probeSchedCounters(p)
	if err := w.probeCheckpoint(p); err != nil {
		return err
	}
	var ops []data.Op
	for i := range w.pool {
		for _, l := range w.pool[i].legs {
			ops = append(ops, l.op)
		}
	}
	if err := probeData(p, ops); err != nil {
		return err
	}
	if w.mixed {
		return w.probeMixed(p)
	}
	return w.probeCommute(p)
}

// probeSchedCounters turns the runtime's counter deltas over the traced
// rep into per-commit figures. With one client they repeat exactly.
func probeSchedCounters(p *prober) {
	commits := max(p.delta["commits"], 1)
	p.set("sched.fastpath_ratio", p.delta["fastpath"]/commits)
	p.set("sched.certify_rejects", p.delta["rejects"])
	p.set("sched.retries_per_commit", p.delta["retries"]/commits)
	p.set("sched.lock_waits_per_commit", p.delta["lock_waits"]/commits)
	p.set("sched.checkpoints_per_kop", 1000*p.delta["checkpoints"]/commits)
	p.set("sched.nodes_pruned_per_checkpoint", p.delta["nodes_pruned"]/max(p.delta["checkpoints"], 1))
}

// probeCheckpoint times explicit checkpoint cuts at steady state: half a
// cadence of commits, then the cut.
func (w *commitWorkload) probeCheckpoint(p *prober) error {
	const cuts = 16
	stalls := make([]float64, 0, cuts)
	for k := 0; k < cuts; k++ {
		op, err := w.prepare(checkpointEvery / 2)
		if err != nil {
			return err
		}
		for i := 0; i < checkpointEvery/2; i++ {
			if err := op(0, i); err != nil {
				return err
			}
		}
		var cerr error
		d := p.call("sched.Runtime.Checkpoint", func() { _, cerr = w.rt.Checkpoint() })
		if cerr != nil {
			return fmt.Errorf("checkpoint: %w", cerr)
		}
		stalls = append(stalls, float64(d.Microseconds()))
	}
	p.set("sched.checkpoint_stall_us", median(stalls))
	return nil
}

// probeData replays the workload's leaf operations on a bare store, then
// compacts the version chains they left.
func probeData(p *prober, ops []data.Op) error {
	const rounds = 8
	applies := p.n(50000)
	var apply time.Duration
	compact := make([]float64, 0, rounds)
	st := data.NewStore()
	for r := 0; r < rounds; r++ {
		var err error
		apply += p.call("data.Store.Apply", func() {
			for i := 0; i < applies; i++ {
				if _, err = st.Apply(ops[i%len(ops)]); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fmt.Errorf("data probe: %w", err)
		}
		d := p.call("data.Store.Compact", func() { st.Compact(st.Clock() + 1) })
		compact = append(compact, float64(d.Microseconds()))
	}
	p.set("data.apply_ns_per_op", float64(apply.Nanoseconds())/float64(applies*rounds))
	p.set("data.compact_us", median(compact))
	return nil
}

// probeCommute fits Submit's cost to a per-root and a per-leg part from
// 1-leg and 12-leg roots on fresh runtimes, prices certification against
// an uncertified runtime, and records 2-client scaling.
func (w *commitWorkload) probeCommute(p *prober) error {
	rng := rand.New(rand.NewSource(w.seed + 1))
	fresh := func(certify bool, clients int) (*sched.Runtime, error) {
		return newBankRuntime(commuteSeeds(clients), certify, "", 0)
	}
	certified, err := fresh(true, 1)
	if err != nil {
		return err
	}
	plain, err := fresh(false, 1)
	if err != nil {
		return err
	}
	oneLeg := commutePrograms(rng, 0, commutePool, 1)
	lanes := []lane{{certified, w.pool, "12-leg-"}, {certified, oneLeg, "1-leg-"}, {plain, w.pool, "uncertified-"}}
	if _, err := laneP50(p, lanes, 4, p.n(1024)); err != nil { // warm-up
		return err
	}
	for i := range lanes {
		lanes[i].prefix = "m-" + lanes[i].prefix
	}
	p50, err := laneP50(p, lanes, 16, p.n(512))
	if err != nil {
		return err
	}
	p12, p1, u12 := p50[0], p50[1], p50[2]
	perLeg := (p12 - p1) / (commuteLegs - 1)
	perRoot := p1 - perLeg
	p.set("sched.per_leg_us", perLeg)
	p.set("sched.per_root_us", perRoot)
	p.set("sched.fit_residual_pct", 100*abs(perRoot+commuteLegs*perLeg-p.p50US)/p.p50US)
	p.set("sched.certify_overhead_us_per_op", p12-u12)

	// Two clients on disjoint private items against one client: on two
	// cores the second client competes with the GC and the certifier's
	// drainer, so this is informational.
	scale := func(clients int) (float64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU())) // the workload itself runs at 1
		rt, err := fresh(true, clients)
		if err != nil {
			return 0, err
		}
		pools := make([][]program, clients)
		for c := range pools {
			pools[c] = commutePrograms(rng, c, commutePool, commuteLegs)
		}
		var r repResult
		p.call(fmt.Sprintf("sched.Runtime.Submit/%d-clients", clients), func() {
			r = measure(func(c, i int) error {
				_, err := rt.Submit(fmt.Sprintf("C%d-%d", c, i), pools[c][i%commutePool].inv)
				return err
			}, clients, clients*p.n(8192), nil, -1)
		})
		return r.throughput(), r.firstErr
	}
	one, err := scale(1)
	if err != nil {
		return err
	}
	two, err := scale(2)
	if err != nil {
		return err
	}
	p.set("sched.scale_2c", two/one)
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// probeMixed measures what the conflict and durable paths add: the order
// and incremental-engine cost of the live certified tail, and the WAL.
func (w *commitWorkload) probeMixed(p *prober) error {
	// Leave most of a cadence of commits in the certifier, so the tail
	// the probes replay is what an admission sees between two cuts.
	op, err := w.prepare(checkpointEvery - 8)
	if err != nil {
		return err
	}
	for i := 0; i < checkpointEvery-8; i++ {
		if err := op(0, i); err != nil {
			return err
		}
	}
	sys := w.rt.CertifiedSystem()
	probeOrder(p, []*compositetx.System{sys})
	appendUS, err := appendPerRoot(p, sys)
	if err != nil {
		return err
	}
	p.set("front.append_us_per_root", appendUS)
	commits := max(p.delta["commits"], 1)
	p.set("wal.records_per_commit", p.delta["wal_records"]/commits)
	p.set("wal.bytes_per_commit", p.delta["wal_bytes"]/commits)
	return probeWAL(p, w.scratch, int(p.delta["wal_records"]/commits+0.5))
}

// appendPerRoot replays a recorded execution root by root through a fresh
// incremental engine, the way the certifier's engine path admits commits,
// and returns the microseconds per root.
func appendPerRoot(p *prober, sys *compositetx.System) (float64, error) {
	deltas := front.DecomposeByRoot(sys)
	inc := front.NewIncremental(front.IncrementalOptions{PropagateInputs: true})
	var err error
	d := p.call("front.Incremental.Append", func() {
		for _, dl := range deltas {
			if _, err = inc.Append(dl); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("append probe: %w", err)
	}
	return float64(d.Microseconds()) / float64(len(deltas)), nil
}
