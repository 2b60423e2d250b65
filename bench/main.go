// Command bench is the repository benchmark: five workloads, seven
// end-to-end metrics, a per-layer probe set and a traced run. One process
// measures one workload:
//
//	go run -C bench . --workload commit-commute --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// report for people. See README.md for the run protocol and BENCHMARK.json
// at the repository root for the declared workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

var workloads = []*workloadDef{
	{
		name:    "check-general",
		why:     "Comp-C verdicts on general-configuration executions: model, order and front do all the work and the runtime none, so it is the control for every runtime change",
		clients: 1, warmup: 200, repOps: 240, repSecs: 1.0,
		layers: []string{
			"workload.gen_ms_per_system", "model.decode_us_per_system", "model.validate_us_per_system",
			"order.closure_us", "order.insert_ns",
			"front.check_correct_us", "front.check_incorrect_us", "front.alloc_kb_per_check",
			"front.reference_ratio", "front.batch_scale_2w", "criteria.classify_us_per_system",
		},
		make: newCheckGeneral,
	},
	{
		name:    "commit-commute",
		why:     "12 commuting increments per root on private items, in memory: zero conflicts, so it isolates the per-commit CPU path of sched and data with the certifier on its fast path",
		clients: 1, procs: 1, warmup: 20480, repOps: 9000, repSecs: 0.5,
		layers: []string{
			"data.apply_ns_per_op", "data.compact_us",
			"sched.per_root_us", "sched.per_leg_us", "sched.fit_residual_pct", "sched.certify_overhead_us_per_op",
			"sched.fastpath_ratio", "sched.certify_rejects", "sched.retries_per_commit", "sched.lock_waits_per_commit",
			"sched.checkpoint_stall_us", "sched.checkpoints_per_kop", "sched.nodes_pruned_per_checkpoint", "sched.scale_2c",
		},
		make: newCommitCommute,
	},
	{
		name:    "commit-mixed-durable",
		why:     "transfers, audits and hot-set writes on 4096 skewed accounts, WAL fsynced every 4096 records and at each checkpoint: conflict pairs, the certifier's engine path, log appends, checkpoint cuts",
		clients: 1, procs: 1, warmup: 12288, repOps: 4480, repSecs: 0.5,
		layers: []string{
			"order.closure_us", "order.insert_ns", "front.append_us_per_root",
			"data.apply_ns_per_op", "data.compact_us",
			"sched.fastpath_ratio", "sched.certify_rejects", "sched.retries_per_commit", "sched.lock_waits_per_commit",
			"sched.checkpoint_stall_us", "sched.checkpoints_per_kop", "sched.nodes_pruned_per_checkpoint",
			"wal.append_us_per_record", "wal.fsync_us", "wal.force_us", "wal.records_per_commit", "wal.bytes_per_commit",
		},
		make: newCommitMixed,
	},
	{
		name:    "dist-2pc",
		why:     "distributed transfers through presumed-abort 2PC over tcp with per-node WALs and group commit: the only workload with comm and the three force points on the blocking path",
		clients: distClients, procs: 1, warmup: 512, repOps: 160, repSecs: 0.5,
		layers: []string{
			"sched.dist_recover_ms", "sched.forces_per_commit", "sched.dist_retries_per_commit",
			"wal.append_us_per_record", "wal.fsync_us", "wal.force_us", "wal.windows_per_commit", "wal.max_batch",
			"comm.encode_ns_per_msg", "comm.decode_ns_per_msg", "comm.rtt_us.chan", "comm.rtt_us.tcp",
			"comm.msgs_per_commit", "comm.flushes_per_msg",
		},
		make: newDist2PC,
	},
	{
		name:    "recover-replay",
		why:     "crash recovery of a checkpointed log plus the first durable commit after it: time without service, with wal scan, redo/undo and the post-recovery check on the blocking path",
		clients: 1, warmup: 88, repOps: 32, repSecs: 0.5,
		layers: []string{
			"front.append_us_per_root",
			"sched.recover_records_per_ms", "sched.recover_redone_per_op", "sched.recover_skipped_per_op",
			"wal.records_per_commit", "wal.bytes_per_commit", "wal.scan_ms_per_mb",
		},
		make: newRecoverReplay,
	},
}

// declaredSeconds is BENCHMARK.json's run_seconds: 30 reps of half a second
// (15 of check-general's one-second reps), of which the quiet third is 10 (5).
const declaredSeconds = 15

func findWorkload(name string) *workloadDef {
	for _, d := range workloads {
		if d.name == name {
			return d
		}
	}
	return nil
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Int("seconds", declaredSeconds, "length of the measured window on the reference box; fixes the operation counts")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of the end-to-end metrics")
		traceFile = flag.String("trace-file", "", "span file of a traced run (default .out/trace-<workload>-<seed>.json)")
		scratch   = flag.String("scratch", ".scratch", "directory for WALs and other run files, emptied of this run's files at exit")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of runs per workload and compare them against the declared bounds")
		runs      = flag.Int("runs", 3, "runs per set in -selfcheck (at least 3)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}

	switch {
	case *selfcheck:
		if *runs < 3 {
			fatalf("-runs must be at least 3")
		}
		if !runSelfcheck(os.Stdout, *name, *seed, *seconds, *runs, *scratch) {
			os.Exit(1)
		}
	default:
		def := findWorkload(*name)
		if def == nil {
			fatalf("unknown workload %q; BENCHMARK.json names them", *name)
		}
		if *seconds < 1 || *seconds > 60 {
			fatalf("-seconds must be between 1 and 60")
		}
		if err := os.MkdirAll(*scratch, 0o755); err != nil {
			fatalf("%v", err)
		}
		sz := def.sizesFor(*seconds)
		var res *runResult
		var err error
		if *trace != 0 {
			if *traceFile == "" {
				*traceFile = filepath.Join(".out", fmt.Sprintf("trace-%s-%d.json", def.name, *seed))
			}
			res, err = runTraced(def, *seed, sz, *scratch, *traceFile)
		} else {
			res, err = runWorkload(def, *seed, sz, *scratch)
		}
		if err != nil {
			fatalf("%s: %v", def.name, err)
		}
		res.print(os.Stdout)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// jsonResult is the machine-readable last line of a run.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the report: the environment stamp, every metric by name
// with its unit, the failure count, and the JSON line last.
func (r *runResult) print(w io.Writer) {
	mode := "untraced: end-to-end metrics"
	if r.traced {
		mode = "traced: per-layer metrics (a layer off this workload's path reports 0)"
	}
	fmt.Fprintf(w, "workload=%s seed=%d %s\n", r.def.name, r.seed, mode)
	fmt.Fprintf(w, "env: %s\n", r.env)
	fmt.Fprintf(w, "sizes: clients=%d set-ups=%d warm-up=%d ops, window=%d reps x %d ops\n",
		r.def.clients, r.sz.setups, r.sz.warmup, r.sz.reps, r.sz.repOps)
	for i, s := range r.setups {
		fmt.Fprintf(w, "set-up %d: %.4f s at pace %.3f\n", i, s.seconds, s.pace)
	}
	if len(r.reps) > 0 {
		fmt.Fprintf(w, "reps as measured, and the box's pace over each (the kernel's time / %d us):\n", paceRefUS)
		fmt.Fprintf(w, "%-4s %9s %12s %12s %12s %12s %12s %7s  %s\n", "rep", "wall_s", "ops/s", "p50_us", "p99_us", "cpu_us/op", "alloc_kb/op", "pace", "")
	}
	for i, s := range r.reps {
		mark := ""
		if s.quiet {
			mark = "quiet"
		}
		fmt.Fprintf(w, "%-4d %9.4f %12.2f %12.2f %12.2f %12.2f %12.3f %7.3f  %s\n", i, s.wallS, s.tps, s.p50US, s.p99US, s.cpuUS, s.allocKB, s.pace, mark)
	}
	fmt.Fprintf(w, "%-36s %-7s %14s %14s %14s  %s\n", "metric", "unit", "value", "min", "max", "")
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-36s %-7s %14.4f %14.4f %14.4f  %s\n", m.name, m.unit, m.value, m.min, m.max, m.note)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}
