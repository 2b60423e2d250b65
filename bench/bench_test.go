package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// tiny sizes every workload finishes in about a second with.
var tinySizes = map[string]sizes{
	"check-general":        {setups: 1, warmup: 2, reps: 2, repOps: 6, probeDiv: 64},
	"commit-commute":       {setups: 1, warmup: 64, reps: 2, repOps: 512, probeDiv: 64},
	"commit-mixed-durable": {setups: 1, warmup: 64, reps: 2, repOps: 256, probeDiv: 64},
	"dist-2pc":             {setups: 1, warmup: 8, reps: 2, repOps: 32, probeDiv: 64},
	"recover-replay":       {setups: 1, warmup: 1, reps: 2, repOps: 4, probeDiv: 64},
}

func metricsByName(r *runResult) map[string]metric {
	m := map[string]metric{}
	for _, x := range r.metrics {
		m[x.name] = x
	}
	return m
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			scratch := t.TempDir()
			res, err := runWorkload(def, 7, tinySizes[def.name], scratch)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted != 2*tinySizes[def.name].repOps {
				t.Fatalf("attempted %d failed %d (%v)", res.attempted, res.failed, res.failures)
			}
			got := metricsByName(res)
			for _, d := range endToEndDecl {
				m, ok := got[d.name]
				if !ok || m.unit != d.unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", d.name, m, d.unit)
				}
				if !(m.value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.value)
				}
			}
			var out bytes.Buffer
			res.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the JSON result: %v", err)
			}
			if !last.Correct || last.Attempted != res.attempted || len(last.Metrics) != len(endToEndDecl) {
				t.Errorf("JSON result %+v", last)
			}
			for _, want := range []string{"go=", "commit=", "nproc=", "GOMAXPROCS=", "wal_fs=", "seed=7", "ops_attempted=", "samples"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("report lacks %q:\n%s", want, out.String())
				}
			}

			traceFile := filepath.Join(scratch, "trace.json")
			tres, err := runTraced(def, 7, tinySizes[def.name], scratch, traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if tres.failed != 0 {
				t.Fatalf("traced run failed %d operations: %v", tres.failed, tres.failures)
			}
			layer := metricsByName(tres)
			for _, d := range perLayer {
				if m, ok := layer[d.name]; !ok || m.unit != d.unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", d.name, m, d.unit)
				}
			}
			for _, name := range def.layers {
				if layer[name].note != "" {
					t.Errorf("per-layer metric %s of this workload's row set was not measured", name)
				}
			}
			var doc struct {
				Spans []span `json:"spans"`
			}
			raw, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			names := map[string]int{}
			for i, s := range doc.Spans {
				names[s.Name]++
				if s.Parent >= i || s.EndNS < s.StartNS {
					t.Fatalf("span %d malformed: %+v", i, s)
				}
			}
			if names["run"] != 1 || names["setup"] != 1 || names["rep"] != 3 || names["op"] != tinySizes[def.name].repOps {
				t.Errorf("span counts %v", names)
			}
			if left, _ := os.ReadDir(scratch); len(left) != 1 {
				t.Errorf("run files left behind in scratch: %v", left)
			}
		})
	}
}

func TestCorruptedExpectationFailsOperations(t *testing.T) {
	corrupt := map[string]func(workload){
		"check-general":        func(w workload) { w.(*checkGeneral).corrupt = true },
		"commit-commute":       func(w workload) { w.(*commitWorkload).corruptModel = true },
		"commit-mixed-durable": func(w workload) { w.(*commitWorkload).corruptModel = true },
		"dist-2pc":             func(w workload) { w.(*dist2PC).corruptModel = true },
		"recover-replay":       func(w workload) { w.(*recoverReplay).corruptModel = true },
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			bad := *def
			bad.make = func(seed int64, sz sizes, scratch string) workload {
				w := def.make(seed, sz, scratch)
				corrupt[def.name](w)
				return w
			}
			res, err := runWorkload(&bad, 7, tinySizes[def.name], t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 {
				t.Fatal("a wrong expectation went unnoticed: ops_failed = 0")
			}
			var out bytes.Buffer
			res.print(&out)
			if !strings.Contains(out.String(), `"correct":false`) {
				t.Errorf("result not marked incorrect:\n%s", out.String())
			}
		})
	}
}

func TestCountsRepeatForAFixedSeed(t *testing.T) {
	def := findWorkload("commit-mixed-durable")
	sz := sizes{setups: 1, warmup: 256, reps: 3, repOps: 2048, probeDiv: 64}
	var layer [2]map[string]metric
	var alloc [2]float64
	for i := range layer {
		res, err := runTraced(def, 11, sz, t.TempDir(), filepath.Join(t.TempDir(), "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		layer[i] = metricsByName(res)
		e2e, err := runWorkload(def, 11, sz, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		alloc[i] = metricsByName(e2e)["alloc_kb_per_op"].value
	}
	for _, name := range []string{"wal.records_per_commit", "sched.fastpath_ratio", "sched.checkpoints_per_kop"} {
		if a, b := layer[0][name].value, layer[1][name].value; a != b || a == 0 {
			t.Errorf("%s does not repeat: %v then %v", name, a, b)
		}
	}
	if r := layer[0]["sched.fastpath_ratio"].value; r >= 1 {
		t.Errorf("sched.fastpath_ratio = %v on the conflict workload, want < 1", r)
	}
	if d := math.Abs(alloc[0]-alloc[1]) / alloc[0]; d > 0.02 {
		t.Errorf("alloc_kb_per_op moved %.1f%% between two runs of one seed: %v then %v", 100*d, alloc[0], alloc[1])
	}
}

func TestStatsHelpers(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{0.5: 500, 0.99: 990, 1: 1000, 0.001: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile empty = %d", got)
	}
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := quartileSpread(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	lo, hi := minMax(xs)
	if lo != 1 || hi != 46 {
		t.Errorf("minMax = %v, %v", lo, hi)
	}
}

func TestQuietReps(t *testing.T) {
	for _, tc := range []struct {
		wallMS []int
		want   []int
	}{
		{[]int{50, 40, 90, 41, 70, 42, 60, 80, 43}, []int{1, 3, 5}}, // the fastest third, in run order
		{[]int{50, 40, 30, 20, 10, 5}, []int{4, 5}},
		{[]int{7, 9}, []int{0}}, // never none
	} {
		reps := make([]repResult, len(tc.wallMS))
		for i, ms := range tc.wallMS {
			reps[i].wall = time.Duration(ms) * time.Millisecond
		}
		if got := quietReps(reps); !slices.Equal(got, tc.want) {
			t.Errorf("quietReps(%v) = %v, want %v", tc.wallMS, got, tc.want)
		}
	}
}

// TestEndToEndAtReferencePace: a box twice as slow as the reference reports
// the times of the reference box; counts are reported as measured.
func TestEndToEndAtReferencePace(t *testing.T) {
	rep := func(pace float64) repResult {
		lat := make([]int64, 100)
		for i := range lat {
			lat[i] = int64(float64(i+1) * 1e3 * pace) // 1..100 us at the reference pace
		}
		return repResult{
			ops: 100, wall: time.Duration(float64(time.Second) * pace), cpuUS: 5000 * pace, allocKB: 300,
			lat: lat, pace: pace,
		}
	}
	metrics, stats := endToEnd([]timedSetup{{seconds: 3, pace: 2}}, []repResult{rep(2), rep(1), rep(1.5)}, 7)
	if !stats[1].quiet || stats[0].quiet || stats[2].quiet {
		t.Errorf("quiet reps: %+v", stats)
	}
	want := map[string]float64{
		"setup_s": 1.5, "throughput_ops_s": 100, "latency_p50_us": 50, "latency_p99_us": 99,
		"cpu_us_per_op": 50, "alloc_kb_per_op": 3, "heap_live_mb": 7,
	}
	for _, m := range metrics {
		if math.Abs(m.value-want[m.name]) > 1e-9 {
			t.Errorf("%s = %v, want %v", m.name, m.value, want[m.name])
		}
	}
	// The same rep measured on a box twice as slow reads the same.
	slow, _ := endToEnd([]timedSetup{{seconds: 6, pace: 4}}, []repResult{rep(2)}, 7)
	for i, m := range slow {
		if math.Abs(m.value-metrics[i].value) > 1e-9 {
			t.Errorf("%s at pace 2 = %v, at pace 1 = %v", m.name, m.value, metrics[i].value)
		}
	}
}

func TestSizesFollowSeconds(t *testing.T) {
	for _, def := range workloads {
		a, b := def.sizesFor(10), def.sizesFor(20)
		if a.repOps != def.repOps || b.repOps != def.repOps || a.repOps%def.clients != 0 {
			t.Errorf("%s: a rep is not the declared %d operations: %+v, %+v", def.name, def.repOps, a, b)
		}
		if b.reps != 2*a.reps || a.reps < minReps || a.setups != timedSetups {
			t.Errorf("%s: sizes %+v and %+v", def.name, a, b)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps the file the acceptance driver
// reads in step with the declarations the binary prints from.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type declared struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type benchmarkJSON struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []namedWhy `json:"workloads"`
		EndToEnd   []declared `json:"end_to_end"`
		PerLayer   []declared `json:"per_layer"`
	}
	want := benchmarkJSON{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: declaredSeconds,
	}
	for _, d := range workloads {
		if len(d.why) > 200 {
			t.Errorf("%s: why is %d characters, the acceptance protocol allows 200", d.name, len(d.why))
		}
		want.Workloads = append(want.Workloads, namedWhy{d.name, d.why})
	}
	for _, d := range endToEndDecl {
		bound := d.bound
		want.EndToEnd = append(want.EndToEnd, declared{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, declared{d.name, d.unit, d.better, nil})
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.MarshalIndent(got, "", "  ")
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("BENCHMARK.json differs from the declarations in main.go and metrics.go; it should read:\n%s", wantJSON)
	}
}
