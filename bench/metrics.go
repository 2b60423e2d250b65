package main

// metricDecl declares one metric as BENCHMARK.json lists it. bound is the
// share of the parent's median an end-to-end metric may worsen by before
// it counts as a regression; per-layer metrics have none.
type metricDecl struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEndDecl are the seven metrics every workload reports. README.md,
// "Bounds and -selfcheck", has the runs the bounds come from: three times
// the widest quartile spread any workload showed over ten runs, and for the
// times the 25 % the acceptance protocol caps a bound at.
var endToEndDecl = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.06},
	{"heap_live_mb", "MiB", "lower", 0.12},
}

// perLayer are the metrics of single layers, measured by the traced run.
// README.md ("Per-layer metrics") says how each is measured and which
// end-to-end metric it should move on which workload.
var perLayer = []metricDecl{
	{name: "workload.gen_ms_per_system", unit: "ms", better: "lower"},
	{name: "model.decode_us_per_system", unit: "us", better: "lower"},
	{name: "model.validate_us_per_system", unit: "us", better: "lower"},
	{name: "order.closure_us", unit: "us", better: "lower"},
	{name: "order.insert_ns", unit: "ns", better: "lower"},
	{name: "front.check_correct_us", unit: "us", better: "lower"},
	{name: "front.check_incorrect_us", unit: "us", better: "lower"},
	{name: "front.alloc_kb_per_check", unit: "KiB", better: "lower"},
	{name: "front.reference_ratio", unit: "ratio", better: "higher"},
	{name: "front.batch_scale_2w", unit: "ratio", better: "higher"},
	{name: "front.append_us_per_root", unit: "us", better: "lower"},
	{name: "criteria.classify_us_per_system", unit: "us", better: "lower"},
	{name: "data.apply_ns_per_op", unit: "ns", better: "lower"},
	{name: "data.compact_us", unit: "us", better: "lower"},
	{name: "sched.per_root_us", unit: "us", better: "lower"},
	{name: "sched.per_leg_us", unit: "us", better: "lower"},
	{name: "sched.fit_residual_pct", unit: "%", better: "lower"},
	{name: "sched.certify_overhead_us_per_op", unit: "us", better: "lower"},
	{name: "sched.fastpath_ratio", unit: "ratio", better: "higher"},
	{name: "sched.certify_rejects", unit: "count", better: "lower"},
	{name: "sched.retries_per_commit", unit: "count", better: "lower"},
	{name: "sched.lock_waits_per_commit", unit: "count", better: "lower"},
	{name: "sched.checkpoint_stall_us", unit: "us", better: "lower"},
	{name: "sched.checkpoints_per_kop", unit: "count", better: "lower"},
	{name: "sched.nodes_pruned_per_checkpoint", unit: "count", better: "higher"},
	{name: "sched.scale_2c", unit: "ratio", better: "higher"},
	{name: "sched.recover_records_per_ms", unit: "1/ms", better: "higher"},
	{name: "sched.recover_redone_per_op", unit: "count", better: "lower"},
	{name: "sched.recover_skipped_per_op", unit: "count", better: "higher"},
	{name: "sched.dist_recover_ms", unit: "ms", better: "lower"},
	{name: "sched.forces_per_commit", unit: "count", better: "lower"},
	{name: "sched.dist_retries_per_commit", unit: "count", better: "lower"},
	{name: "wal.append_us_per_record", unit: "us", better: "lower"},
	{name: "wal.fsync_us", unit: "us", better: "lower"},
	{name: "wal.force_us", unit: "us", better: "lower"},
	{name: "wal.records_per_commit", unit: "count", better: "lower"},
	{name: "wal.bytes_per_commit", unit: "B", better: "lower"},
	{name: "wal.windows_per_commit", unit: "count", better: "lower"},
	{name: "wal.max_batch", unit: "count", better: "higher"},
	{name: "wal.scan_ms_per_mb", unit: "ms/MiB", better: "lower"},
	{name: "comm.encode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "comm.decode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "comm.rtt_us.chan", unit: "us", better: "lower"},
	{name: "comm.rtt_us.tcp", unit: "us", better: "lower"},
	{name: "comm.msgs_per_commit", unit: "count", better: "lower"},
	{name: "comm.flushes_per_msg", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

var endToEndUnit, perLayerUnit = unitsOf(endToEndDecl), unitsOf(perLayer)

func unitsOf(decls []metricDecl) map[string]string {
	m := make(map[string]string, len(decls))
	for _, d := range decls {
		m[d.name] = d.unit
	}
	return m
}
