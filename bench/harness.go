package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The run protocol (README.md, "Run protocol") lives here: timed set-ups
// with a fixed-count warm-up, a measured window of fixed-count reps, the
// per-rep and pooled statistics, and the traced variant that feeds the
// per-layer probes. Workloads only supply inputs, the operation, the
// correctness gates and their probes.

// opFunc executes operation i of one client and reports a failed or wrong
// result as an error. The harness times the whole call.
type opFunc func(client, i int) error

// workload is one benchmark workload bound to a seed and its sizes.
type workload interface {
	// setup generates every input from the seed and builds the system
	// under test. The harness runs the warm-up through prepare.
	setup() error
	// prepare builds the inputs of the next ops operations outside the
	// clock and returns the operation. The inputs are garbage once the
	// returned function is dropped.
	prepare(ops int) (opFunc, error)
	// counters returns cumulative layer counters (nil when the workload
	// has none); the traced run divides their deltas over a rep by ops.
	counters() map[string]float64
	// verify runs the correctness gates that need the whole window (value
	// conservation, Comp-C audit of the recorded execution). Each error is
	// one failed operation.
	verify() []error
	// probe measures this workload's layers from outside (traced run).
	probe(p *prober) error
	// close releases the system and removes its files.
	close() error
}

// sizes fixes the operation counts of a run, so allocation, record and
// fsync counts are comparable from run to run.
type sizes struct {
	setups int // timed set-ups; the last one is measured on
	warmup int // operations of the fixed-count warm-up, part of set-up
	reps   int // measured reps
	repOps int // operations per rep

	probeDiv int // divides the probes' fixed counts; 1 outside the tests
}

// workloadDef declares a workload: its reason to exist, its load shape,
// and the size of one rep.
type workloadDef struct {
	name    string
	why     string
	clients int // closed-loop client goroutines; a constant, never derived from the machine
	procs   int // GOMAXPROCS the workload runs at; 0 leaves the default
	warmup  int
	repOps  int      // operations of one rep, a constant: counts per rep never depend on --seconds
	repSecs float64  // what a rep lasts on the quiet 2-CPU reference box; turns --seconds into a rep count
	layers  []string // per-layer metrics this workload measures; the rest report 0
	make    func(seed int64, sz sizes, scratch string) workload
}

const (
	timedSetups = 3

	// The times of the window are taken over the 1/quietFraction of the
	// reps with the least wall time (README.md, "Run protocol", rule 3).
	quietFraction = 3
	minReps       = 2 * quietFraction
)

// sizesFor turns the run length into a rep count: as many fixed-size reps
// as last about seconds on the reference box.
func (d *workloadDef) sizesFor(seconds int) sizes {
	reps := max(int(float64(seconds)/d.repSecs+0.5), minReps)
	return sizes{setups: timedSetups, warmup: d.warmup, reps: reps, repOps: d.repOps, probeDiv: 1}
}

// setProcs applies the workload's GOMAXPROCS and returns the call that
// restores the previous value.
func (d *workloadDef) setProcs() (restore func()) {
	if d.procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(d.procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// repResult is one measured rep.
type repResult struct {
	ops      int
	failed   int
	firstErr error
	wall     time.Duration
	cpuUS    float64 // process user+sys CPU over the rep
	allocKB  float64 // TotalAlloc delta over the rep
	lat      []int64 // per-operation latency in ns, all clients
	pace     float64 // the box's pace over the rep: mean of the kernel before and after it
}

func (r *repResult) throughput() float64 { return float64(r.ops) / r.wall.Seconds() }

// timedSetup is one timed set-up and the box's pace over it.
type timedSetup struct {
	seconds, pace float64
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// quietReps returns the indices of the len/quietFraction reps with the
// least wall time, in run order. Every rep does the same operations, and a
// busy neighbour on the host only ever adds time, so these are the reps
// the machine disturbed least.
func quietReps(reps []repResult) []int {
	idx := make([]int, len(reps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return reps[idx[a]].wall < reps[idx[b]].wall })
	kept := idx[:max(len(idx)/quietFraction, 1)]
	sort.Ints(kept)
	return kept
}

// measure runs ops operations closed-loop on the given number of client
// goroutines. With a tracer every operation gets an "op" span under
// parent, numbered from 0.
func measure(op opFunc, clients, ops int, tr *tracer, parent int) repResult {
	per := ops / clients
	lat := make([][]int64, clients)
	fails := make([]int, clients)
	errs := make([]error, clients)
	for c := range lat {
		lat[c] = make([]int64, per)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := cpuMicros()

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := lat[c]
			for i := 0; i < per; i++ {
				id := tr.begin("op", parent, int64(c*per+i))
				t0 := time.Now()
				err := op(c, i)
				mine[i] = int64(time.Since(t0))
				tr.end(id)
				if err != nil {
					fails[c]++
					if errs[c] == nil {
						errs[c] = err
					}
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	cpu1 := cpuMicros()
	runtime.ReadMemStats(&ms)
	res := repResult{
		ops:     per * clients,
		wall:    wall,
		cpuUS:   cpu1 - cpu0,
		allocKB: float64(ms.TotalAlloc-alloc0) / 1024,
		lat:     make([]int64, 0, per*clients),
	}
	for c := range lat {
		res.lat = append(res.lat, lat[c]...)
		res.failed += fails[c]
		if res.firstErr == nil {
			res.firstErr = errs[c]
		}
	}
	return res
}

// metric is one reported number. min and max bracket the per-rep (or
// per-set-up) values a median was taken over; they equal value for
// single measurements.
type metric struct {
	name     string
	unit     string
	value    float64
	min, max float64
	note     string
}

// runResult is everything one run prints.
type runResult struct {
	def       *workloadDef
	seed      int64
	sz        sizes
	env       envStamp
	traced    bool
	attempted int
	failed    int
	failures  []string // first few failure messages
	metrics   []metric
	setups    []timedSetup // every timed set-up
	reps      []repStat    // every rep of the window, in run order
}

// repStat is one rep as the report lists it: what was measured, and the
// pace the times of the quiet reps are divided by.
type repStat struct {
	wallS, tps, p50US, p99US, cpuUS, allocKB float64
	pace                                     float64
	quiet                                    bool
}

func (r *runResult) fail(n int, err error) {
	r.failed += n
	if err != nil && len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
}

// setUp builds the workload and runs its fixed-count warm-up.
func setUp(def *workloadDef, seed int64, sz sizes, scratch string) (workload, error) {
	w := def.make(seed, sz, scratch)
	if err := w.setup(); err != nil {
		return nil, errors.Join(fmt.Errorf("set-up: %w", err), w.close())
	}
	if sz.warmup > 0 {
		op, err := w.prepare(sz.warmup)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up inputs: %w", err), w.close())
		}
		if r := measure(op, def.clients, sz.warmup, nil, -1); r.firstErr != nil {
			return nil, errors.Join(fmt.Errorf("warm-up: %w", r.firstErr), w.close())
		}
	}
	return w, nil
}

// runWorkload executes one untraced run: timed set-ups, the measured
// window, the correctness gates.
func runWorkload(def *workloadDef, seed int64, sz sizes, scratch string) (*runResult, error) {
	defer def.setProcs()()
	if err := initPace(); err != nil {
		return nil, err
	}
	res := &runResult{def: def, seed: seed, sz: sz, env: stampEnv(scratch)}

	var w workload
	for s := 0; s < sz.setups; s++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", s, err)
			}
		}
		before := boxPace()
		t0 := time.Now()
		var err error
		if w, err = setUp(def, seed, sz, scratch); err != nil {
			return nil, err
		}
		elapsed := time.Since(t0).Seconds()
		res.setups = append(res.setups, timedSetup{seconds: elapsed, pace: (before + boxPace()) / 2})
	}

	reps := make([]repResult, 0, sz.reps)
	before := boxPace()
	for r := 0; r < sz.reps; r++ {
		op, err := w.prepare(sz.repOps)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("rep %d inputs: %w", r, err), w.close())
		}
		rep := measure(op, def.clients, sz.repOps, nil, -1)
		after := boxPace()
		rep.pace, before = (before+after)/2, after
		res.attempted += rep.ops
		res.fail(rep.failed, rep.firstErr)
		reps = append(reps, rep)
	}

	// The bounded-memory promise: what the system still holds once the
	// per-rep inputs are gone.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	for _, err := range w.verify() {
		res.fail(1, err)
	}
	if err := w.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if res.failed > res.attempted {
		res.failed = res.attempted
	}

	res.metrics, res.reps = endToEnd(res.setups, reps, heapMB)
	return res, nil
}

// endToEnd folds the reps into the seven end-to-end metrics. The times of
// the measured window come from the quiet reps alone, each taken at the
// reference pace (divided by the rep's pace; throughput multiplied):
// medians of the per-rep values, and one p99 over their pooled samples.
// setup_s is the median of the timed set-ups, at the reference pace too.
// alloc_kb_per_op is a count: the median over all reps, as measured.
func endToEnd(setups []timedSetup, reps []repResult, heapMB float64) ([]metric, []repStat) {
	stats := make([]repStat, len(reps))
	for i := range reps {
		r := &reps[i]
		sort.Slice(r.lat, func(a, b int) bool { return r.lat[a] < r.lat[b] })
		stats[i] = repStat{
			wallS: r.wall.Seconds(), tps: r.throughput(),
			p50US: float64(percentile(r.lat, 0.50)) / 1e3, p99US: float64(percentile(r.lat, 0.99)) / 1e3,
			cpuUS: r.cpuUS / float64(r.ops), allocKB: r.allocKB / float64(r.ops),
			pace: r.pace,
		}
	}
	var setup, rawSetup, tps, p50, cpu, alloc, pace []float64
	var pooled []float64 // per-operation latency in us at the reference pace
	for _, s := range setups {
		setup, rawSetup = append(setup, s.seconds/s.pace), append(rawSetup, s.seconds)
	}
	for i := range stats {
		alloc = append(alloc, stats[i].allocKB)
	}
	for _, i := range quietReps(reps) {
		st := &stats[i]
		st.quiet = true
		tps, p50, cpu = append(tps, st.tps*st.pace), append(p50, st.p50US/st.pace), append(cpu, st.cpuUS/st.pace)
		pace = append(pace, st.pace)
		for _, ns := range reps[i].lat {
			pooled = append(pooled, float64(ns)/1e3/st.pace)
		}
	}
	sort.Float64s(pooled)
	p99 := pooled[int(math.Ceil(0.99*float64(len(pooled))))-1]
	beyond := len(pooled) - int(math.Ceil(0.99*float64(len(pooled))))

	med := func(name string, xs []float64, note string) metric {
		lo, hi := minMax(xs)
		return metric{name: name, unit: endToEndUnit[name], value: median(xs), min: lo, max: hi, note: note}
	}
	perRep := fmt.Sprintf("median of the %d quiet reps of %d, at the reference pace (theirs: %.3f)", len(tps), len(reps), median(pace))
	return []metric{
		med("setup_s", setup, fmt.Sprintf("median of %d set-ups at the reference pace (as measured: %.4f)", len(setups), median(rawSetup))),
		med("throughput_ops_s", tps, perRep),
		med("latency_p50_us", p50, perRep),
		med("latency_p99_us", []float64{p99}, fmt.Sprintf("over the %d pooled samples of the quiet reps at the reference pace, %d beyond it", len(pooled), beyond)),
		med("cpu_us_per_op", cpu, perRep),
		med("alloc_kb_per_op", alloc, fmt.Sprintf("median of all %d reps", len(reps))),
		med("heap_live_mb", []float64{heapMB}, "HeapAlloc after the last rep and two GCs"),
	}, stats
}

// prober is what a workload's probe method measures its layers with: a
// span per call into a layer, the counter deltas of the traced rep, and
// the untraced rep to fit against.
type prober struct {
	tr     *tracer
	parent int
	out    map[string]float64
	div    int // sizes.probeDiv

	ops   int                // operations of the traced rep
	delta map[string]float64 // counter deltas over the traced rep
	p50US float64            // latency_p50_us of the untraced rep
}

// call times one call into a layer under its own span.
func (p *prober) call(name string, f func()) time.Duration {
	id := p.tr.begin(name, p.parent, -1)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	p.tr.end(id)
	return d
}

func (p *prober) set(name string, v float64) { p.out[name] = v }

// n is a probe's fixed count, scaled down in the tests.
func (p *prober) n(count int) int { return max(count/p.div, 1) }

// perOp divides a counter delta of the traced rep by its operations.
func (p *prober) perOp(counter string) float64 { return p.delta[counter] / float64(p.ops) }

func counterDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// runTraced executes the traced variant: one set-up, a traced rep between
// two untraced reps of the same operation count (the throughput difference
// is the tracing overhead), then the workload's layer probes. The span
// list goes to traceFile.
func runTraced(def *workloadDef, seed int64, sz sizes, scratch, traceFile string) (*runResult, error) {
	defer def.setProcs()()
	sz.setups, sz.reps = 1, 3
	res := &runResult{def: def, seed: seed, sz: sz, env: stampEnv(scratch), traced: true}
	tr := newTracer()
	runSpan := tr.begin("run", -1, -1)

	setupSpan := tr.begin("setup", runSpan, -1)
	w, err := setUp(def, seed, sz, scratch)
	tr.end(setupSpan)
	if err != nil {
		return nil, err
	}

	rep := func(t *tracer) (repResult, map[string]float64, error) {
		op, err := w.prepare(sz.repOps)
		if err != nil {
			return repResult{}, nil, err
		}
		id := tr.begin("rep", runSpan, -1)
		before := w.counters()
		r := measure(op, def.clients, sz.repOps, t, id)
		delta := counterDelta(before, w.counters())
		tr.end(id)
		res.attempted += r.ops
		res.fail(r.failed, r.firstErr)
		return r, delta, nil
	}
	// Untraced, traced, untraced: the traced rep is compared with the mean
	// of its neighbours, so warm-up drift does not read as overhead.
	plain, _, err := rep(nil)
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	traced, delta, err := rep(tr)
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	plain2, _, err := rep(nil)
	if err != nil {
		return nil, errors.Join(err, w.close())
	}
	for _, err := range w.verify() {
		res.fail(1, err)
	}

	sort.Slice(plain.lat, func(a, b int) bool { return plain.lat[a] < plain.lat[b] })
	p := &prober{
		tr: tr, out: map[string]float64{}, div: sz.probeDiv,
		ops: traced.ops, delta: delta,
		p50US: float64(percentile(plain.lat, 0.50)) / 1e3,
	}
	p.parent = tr.begin("probes", runSpan, -1)
	perr := w.probe(p)
	tr.end(p.parent)
	if err := errors.Join(perr, w.close()); err != nil {
		return nil, err
	}
	untraced := (plain.throughput() + plain2.throughput()) / 2
	p.set("trace.overhead_pct", 100*(untraced-traced.throughput())/untraced)
	tr.end(runSpan)

	for name := range p.out {
		if _, ok := perLayerUnit[name]; !ok {
			return nil, fmt.Errorf("probe reported undeclared per-layer metric %q", name)
		}
	}
	for _, name := range def.layers {
		if _, ok := p.out[name]; !ok {
			return nil, fmt.Errorf("probe did not report per-layer metric %q", name)
		}
	}
	// A layer the workload never enters costs it nothing: every declared
	// per-layer metric is printed, off-path ones as 0.
	for _, m := range perLayer {
		v, measured := p.out[m.name]
		note := ""
		if !measured {
			note = "off this workload's path"
		}
		res.metrics = append(res.metrics, metric{name: m.name, unit: m.unit, value: v, min: v, max: v, note: note})
	}
	if res.failed > res.attempted {
		res.failed = res.attempted
	}
	if err := tr.write(traceFile, res.env, def.name, seed); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(tr.spans), traceFile)
	return res, nil
}
