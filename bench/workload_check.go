package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"compositetx"
	"compositetx/internal/criteria"
	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/order"
	gen "compositetx/internal/workload"
)

// generalShape is the check-general corpus shape: depth 3, 2 schedules
// per level, 32 roots, fan-out 3. The conflict rate is calibrated so 40–60 %
// of the executions are Comp-C — an incorrect execution exits the
// reduction early, so a corpus of only one verdict would measure half the
// checker.
var generalShape = gen.GeneralParams{
	Depth: 3, SchedsPerLevel: 2, Roots: 32, Fanout: 3,
	LeafRate: 0.3, ConflictRate: 0.00125,
}

// referenceSample is how many corpus systems set-up also decides with the
// string-keyed reference engine.
const referenceSample = 8

// checkGeneral: op = one Comp-C verdict over a seeded corpus of
// general-configuration executions, one system at a time, one caller.
// Every rep is one pass over the corpus.
type checkGeneral struct {
	seed   int64
	sz     sizes
	seeds  []int64 // per-system generator seeds, for the generator probe
	corpus []*gen.Execution
	want   []string // verdict each system must keep getting; "" until first decided

	corrupt bool // tests: expect a wrong verdict on purpose
}

func newCheckGeneral(seed int64, sz sizes, _ string) workload {
	return &checkGeneral{seed: seed, sz: sz}
}

func verdictKey(v *front.Verdict) string {
	return fmt.Sprintf("%t|level=%d|%s", v.Correct, v.FailedLevel, v.Reason)
}

func (w *checkGeneral) setup() error {
	n := w.sz.repOps
	rng := rand.New(rand.NewSource(w.seed))
	w.seeds = make([]int64, n)
	w.corpus = make([]*gen.Execution, n)
	w.want = make([]string, n)
	for i := range w.corpus {
		p := generalShape
		p.Seed = rng.Int63()
		w.seeds[i] = p.Seed
		w.corpus[i] = gen.General(p)
	}
	// The reference engine fixes the expected verdict of a spread sample;
	// the indexed engine has to reproduce it on every rep.
	sample := min(referenceSample, n)
	for k := 0; k < sample; k++ {
		i := k * n / sample
		v, err := front.CheckReference(w.corpus[i].Sys, front.Options{})
		if err != nil {
			return fmt.Errorf("reference check of system %d: %w", i, err)
		}
		w.want[i] = verdictKey(v)
	}
	if w.corrupt {
		w.want[n-1] = "corrupted expectation" // past the warm-up, so the window meets it
	}
	return nil
}

func (w *checkGeneral) prepare(int) (opFunc, error) {
	return func(_, i int) error {
		i %= len(w.corpus)
		v, err := compositetx.Check(w.corpus[i].Sys, compositetx.CheckOptions{})
		if err != nil {
			return fmt.Errorf("system %d: %w", i, err)
		}
		switch got := verdictKey(v); {
		case w.want[i] == "":
			w.want[i] = got
		case w.want[i] != got:
			return fmt.Errorf("system %d: verdict %q, expected %q", i, got, w.want[i])
		}
		return nil
	}, nil
}

func (w *checkGeneral) counters() map[string]float64 { return nil }
func (w *checkGeneral) verify() []error              { return nil }
func (w *checkGeneral) close() error                 { return nil }

// probe replays the corpus through model, order, front and criteria one
// exported function at a time.
func (w *checkGeneral) probe(p *prober) error {
	sample := w.corpus[:min(p.n(128), len(w.corpus))]
	small := sample[:min(p.n(16), len(sample))]
	us := func(d time.Duration, n int) float64 { return float64(d.Microseconds()) / float64(n) }

	var d time.Duration
	for i := range small {
		params := generalShape
		params.Seed = w.seeds[i]
		d += p.call("workload.General", func() { gen.General(params) })
	}
	p.set("workload.gen_ms_per_system", us(d, len(small))/1e3)

	var decode, validate time.Duration
	for i, e := range sample {
		var buf bytes.Buffer
		if err := e.Sys.Encode(&buf); err != nil {
			return fmt.Errorf("encoding system %d: %w", i, err)
		}
		var sys *model.System
		var err error
		decode += p.call("model.Decode", func() { sys, err = model.Decode(&buf) })
		if err != nil {
			return fmt.Errorf("decoding system %d: %w", i, err)
		}
		validate += p.call("model.Validate", func() { err = sys.Validate() })
		if err != nil {
			return fmt.Errorf("validating system %d: %w", i, err)
		}
	}
	p.set("model.decode_us_per_system", us(decode, len(sample)))
	p.set("model.validate_us_per_system", us(validate, len(sample)))

	var systems []*model.System
	for _, e := range sample {
		systems = append(systems, e.Sys)
	}
	probeOrder(p, systems)

	var correct, incorrect time.Duration
	var nCorrect, nIncorrect int
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	for i, e := range sample {
		var v *front.Verdict
		var err error
		d := p.call("front.Check", func() { v, err = front.Check(e.Sys, front.Options{}) })
		if err != nil {
			return fmt.Errorf("checking system %d: %w", i, err)
		}
		if v.Correct {
			correct, nCorrect = correct+d, nCorrect+1
		} else {
			incorrect, nIncorrect = incorrect+d, nIncorrect+1
		}
	}
	runtime.ReadMemStats(&ms)
	p.set("front.check_correct_us", us(correct, max(nCorrect, 1)))
	p.set("front.check_incorrect_us", us(incorrect, max(nIncorrect, 1)))
	p.set("front.alloc_kb_per_check", float64(ms.TotalAlloc-alloc0)/1024/float64(len(sample)))

	var ref, idx time.Duration
	for i, e := range small {
		var err error
		ref += p.call("front.CheckReference", func() { _, err = front.CheckReference(e.Sys, front.Options{}) })
		if err != nil {
			return fmt.Errorf("reference check of system %d: %w", i, err)
		}
		idx += p.call("front.Check", func() { _, err = front.Check(e.Sys, front.Options{}) })
		if err != nil {
			return fmt.Errorf("checking system %d: %w", i, err)
		}
	}
	p.set("front.reference_ratio", float64(ref)/float64(idx))

	one := p.call("front.CheckBatch/1", func() { front.CheckBatch(systems, 1, front.Options{}) })
	two := p.call("front.CheckBatch/2", func() { front.CheckBatch(systems, 2, front.Options{}) })
	p.set("front.batch_scale_2w", float64(one)/float64(two))

	d = 0
	for i, e := range small {
		var err error
		d += p.call("criteria.Classify", func() { _, err = criteria.Classify(e.Sys, e.Seqs) })
		if err != nil {
			return fmt.Errorf("classifying system %d: %w", i, err)
		}
	}
	p.set("criteria.classify_us_per_system", us(d, len(small)))
	return nil
}

// probeOrder measures the order layer on relations built from recorded
// executions: every schedule's weak output order over the system's
// interned node indices, closed in one pass and rebuilt pair by pair.
func probeOrder(p *prober, systems []*model.System) {
	var closure, insert time.Duration
	inserts := 0
	for _, sys := range systems {
		in := sys.Intern()
		rel := order.NewIndexRelation(in.Len())
		var pairs [][2]int
		for _, sc := range sys.Schedules() {
			sc.WeakOut.Each(func(a, b model.NodeID) {
				i, j := int(in.Index(a)), int(in.Index(b))
				rel.Add(i, j)
				pairs = append(pairs, [2]int{i, j})
			})
		}
		closure += p.call("order.IndexRelation.TransitiveClosure", func() { rel.TransitiveClosure() })
		closed := order.NewClosedRelation(in.Len())
		insert += p.call("order.ClosedRelation.Insert", func() {
			for _, pr := range pairs {
				closed.Insert(pr[0], pr[1])
			}
		})
		inserts += len(pairs)
	}
	p.set("order.closure_us", float64(closure.Microseconds())/float64(max(len(systems), 1)))
	p.set("order.insert_ns", float64(insert.Nanoseconds())/float64(max(inserts, 1)))
}
