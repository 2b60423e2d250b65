// Command compsim runs the prototype composite-system runtime on a chosen
// topology and protocol, prints throughput metrics, and checks the
// recorded execution for composite correctness.
//
// Usage:
//
//	compsim -topology bank -protocol hybrid -roots 500 -clients 16
//
// With -wal the runtime journals through a durable write-ahead log; a run
// killed by a crash fault (-crash, or a "crash=p" fault site) exits with
// status 3 and can be recovered — torn tail truncated, in-flight work
// undone, committed work redone and re-verified — with -recover:
//
//	compsim -topology bank -wal /tmp/bank.wal -crash T13:commit
//	compsim -recover /tmp/bank.wal
//
// With -checkpoint-every N the runtime stays bounded over long runs:
// every N commits it folds the execution index and certified history,
// compacts MVCC version chains and truncates the WAL behind the live
// barrier, so recovery replays only the tail since the last marker:
//
//	compsim -topology bank -roots 5000 -certify -wal /tmp/bank.wal -checkpoint-every 50
//
// With -distributed the same workload runs on a root coordinator plus
// one participant scheduler per component, over an in-process channel or
// TCP loopback transport, with presumed-abort 2PC deciding every root.
// -net-faults injects seeded message chaos, -dist-crash kills either
// side at a 2PC crash window (exit status 3), and -recover on the WAL
// root rebuilds the whole cluster, drains the in-doubt set and
// re-verifies the merged history:
//
//	compsim -distributed -topology bank -wal /tmp/bank.d -net-faults drop=0.03,dup=0.08 -dist-crash T5:coord-post-decision
//	compsim -recover /tmp/bank.d
//
// With -group-commit a distributed run coalesces every 2PC force point
// (participant prepares and aborts, coordinator decisions) through the
// WAL flush daemon, so concurrent transactions share one fsync per flush
// window instead of paying one each (compbench -only E16 measures the
// payoff).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	ctx "compositetx"
)

// stopProfiles finishes -cpuprofile/-memprofile collection; a no-op until
// startProfiles installs the real hook. exit routes every post-profiling
// termination through it (os.Exit skips defers).
var stopProfiles = func() {}

func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// startProfiles wires the -cpuprofile/-memprofile flags: CPU profiling
// starts now, the heap profile is captured when stopProfiles runs.
func startProfiles(cpu, mem string) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			os.Exit(2)
		}
		cpuF = f
	}
	stopProfiles = func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			}
			f.Close()
		}
	}
}

// parseFaults turns "apply=0.02,lock-delay=0.05,crash=0.01" into a
// FaultPlan (site names match FaultSite.String; values are per-visit
// probabilities).
func parseFaults(spec string, seed int64) (ctx.FaultPlan, error) {
	plan := ctx.FaultPlan{Seed: seed}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return plan, fmt.Errorf("bad fault spec %q (want site=prob)", kv)
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return plan, fmt.Errorf("bad fault probability %q: %v", v, err)
		}
		switch k {
		case "apply":
			plan.ApplyProb = p
		case "lock-delay":
			plan.LockDelayProb = p
		case "lock-fail":
			plan.LockFailProb = p
		case "compensation":
			plan.CompensationProb = p
		case "down":
			plan.DownProb = p
		case "crash":
			plan.CrashProb = p
		default:
			return plan, fmt.Errorf("unknown fault site %q (apply|lock-delay|lock-fail|compensation|down|crash)", k)
		}
	}
	return plan, nil
}

// parseCrash turns a deterministic crash spec into a trigger: a leaf node
// ID ("T13/2/1", transaction inferred from the prefix), or
// "T13:commit" / "T13:post-commit" for the commit-protocol sites.
func parseCrash(spec string) (ctx.Trigger, error) {
	trig := ctx.Trigger{Site: ctx.FaultCrash}
	if txn, site, ok := strings.Cut(spec, ":"); ok {
		if site != "commit" && site != "post-commit" {
			return trig, fmt.Errorf("bad crash site %q (want commit|post-commit)", site)
		}
		trig.Txn, trig.Step = txn, site
		return trig, nil
	}
	txn, _, ok := strings.Cut(spec, "/")
	if !ok {
		return trig, fmt.Errorf("bad crash spec %q (want a leaf node ID like T13/2/1, or T13:commit)", spec)
	}
	trig.Txn, trig.Step = txn, spec
	return trig, nil
}

// parseNetFaults turns "drop=0.03,dup=0.08,delay=0.1,reorder=0.05,
// partition=0.01" into a NetFaultPlan (probabilities are per-message;
// delay-mean and partition-window tune the fault durations).
func parseNetFaults(spec string, seed int64) (ctx.NetFaultPlan, error) {
	plan := ctx.NetFaultPlan{Seed: seed}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return plan, fmt.Errorf("bad net-fault spec %q (want fault=value)", kv)
		}
		switch k {
		case "delay-mean", "partition-window":
			d, err := time.ParseDuration(v)
			if err != nil {
				return plan, fmt.Errorf("bad duration %q: %v", v, err)
			}
			if k == "delay-mean" {
				plan.Delay = d
			} else {
				plan.PartitionWindow = d
			}
			continue
		case "seed":
			s, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return plan, fmt.Errorf("bad seed %q: %v", v, err)
			}
			plan.Seed = s
			continue
		}
		p, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return plan, fmt.Errorf("bad fault probability %q: %v", v, err)
		}
		switch k {
		case "drop":
			plan.DropProb = p
		case "dup":
			plan.DupProb = p
		case "delay":
			plan.DelayProb = p
		case "reorder":
			plan.ReorderProb = p
		case "partition":
			plan.PartitionProb = p
		default:
			return plan, fmt.Errorf("unknown net fault %q (drop|dup|delay|reorder|partition|delay-mean|partition-window|seed)", k)
		}
	}
	return plan, nil
}

// parseDistCrash turns "T5:coord-pre-decision" or "T5:part-prepare:east"
// into a distributed crash-site injection.
func parseDistCrash(spec string) (ctx.DistCrash, error) {
	fields := strings.Split(spec, ":")
	if len(fields) < 2 || len(fields) > 3 {
		return ctx.DistCrash{}, fmt.Errorf("bad dist-crash spec %q (want txn:site[:participant])", spec)
	}
	d := ctx.DistCrash{Txn: fields[0], Site: fields[1]}
	if len(fields) == 3 {
		d.Part = fields[2]
	}
	switch d.Site {
	case ctx.DistCrashCoordPre, ctx.DistCrashCoordPost:
	case ctx.DistCrashPartPrepare, ctx.DistCrashPartDecide:
	default:
		return ctx.DistCrash{}, fmt.Errorf("unknown dist-crash site %q (%s|%s|%s|%s)", d.Site,
			ctx.DistCrashCoordPre, ctx.DistCrashCoordPost, ctx.DistCrashPartPrepare, ctx.DistCrashPartDecide)
	}
	return d, nil
}

// runRecover is the -recover mode: rebuild a runtime from a WAL
// directory and report what recovery found. A directory with a coord/
// sub-log is a distributed durability root and recovers as a cluster.
func runRecover(dir, transport string, rpcTimeout time.Duration) {
	if st, err := os.Stat(filepath.Join(dir, "coord")); err == nil && st.IsDir() {
		runRecoverDist(dir, transport, rpcTimeout)
		return
	}
	rec, err := ctx.Recover(ctx.WALConfig{Dir: dir})
	if rec == nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(2)
	}
	s := rec.Stats
	fmt.Printf("recovered wal=%s segments=%d records=%d torn-bytes=%d\n", dir, s.Segments, s.Records, s.TornBytes)
	fmt.Printf("txns committed=%d aborted=%d in-flight=%d redone=%d undone=%d quarantined=%d\n",
		s.Committed, s.Aborted, s.InFlight, s.Redone, s.Undone, s.Quarantined)
	for _, q := range rec.Runtime.Quarantined() {
		fmt.Printf("quarantine: component=%s txn=%s op=%s err=%v\n", q.Component, q.Txn, q.Op, q.Err)
	}
	fmt.Printf("recovered execution: %s\n", rec.Verdict)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(1)
	}
}

// runRecoverDist rebuilds a whole distributed cluster from its
// durability root, lets the termination protocol and decision
// re-delivery drain the in-doubt set, and re-verifies the merged
// committed history.
func runRecoverDist(root, transport string, rpcTimeout time.Duration) {
	cl, err := ctx.RecoverCluster(ctx.DistConfig{
		WALRoot: root, Transport: transport, RPCTimeout: rpcTimeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(2)
	}
	defer cl.Close()
	if err := cl.Settle(15 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(1)
	}
	fmt.Printf("recovered cluster root=%s transport=%s\n", root, transport)
	fmt.Println(cl.Metrics().String())
	v, err := cl.Audit()
	if err != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(2)
	}
	fmt.Printf("recovered execution: %s\n", v)
	if !v.Correct {
		exit(1)
	}
}

// runDistributed is the -distributed mode: the same topology, protocol
// and workload flags, but executed by a coordinator + per-component
// participant cluster over a message transport, with presumed-abort 2PC
// deciding every root. Crash faults follow the single-process exit
// convention: status 3, recover with -recover on the WAL root.
func runDistributed(topoName string, topo *ctx.Topology, proto ctx.Protocol, cfg ctx.DistConfig,
	crashSpec string, roots, steps, items, clients int, readRatio, writeRatio float64, seed int64) {
	cl, err := ctx.StartCluster(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(2)
	}
	defer cl.Close()
	if crashSpec != "" {
		d, err := parseDistCrash(crashSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			exit(2)
		}
		cl.SetCrash(d)
	}

	programs := ctx.GenPrograms(topo, ctx.WorkloadParams{
		Roots: roots, StepsPerTx: steps, Items: items,
		ReadRatio: readRatio, WriteRatio: writeRatio, Seed: seed,
	})
	outcomes, elapsed := ctx.Drive(haltOnCrash{cl}, programs, clients)

	fmt.Printf("topology=%s protocol=%s roots=%d clients=%d transport=%s distributed=true\n",
		topoName, proto, roots, clients, cfg.Transport)
	if clusterCrashed(cl) {
		node := "coordinator"
		if ps := cl.CrashedParticipants(); len(ps) > 0 {
			node = "participant " + strings.Join(ps, ",")
		}
		fmt.Println(cl.Metrics().String())
		fmt.Printf("crashed: %s killed by a crash fault; the logs under %s survived\n", node, cfg.WALRoot)
		fmt.Printf("recover with: compsim -recover %s\n", cfg.WALRoot)
		exit(3)
	}
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", o.Err)
			exit(1)
		}
	}
	if err := cl.Settle(15 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(1)
	}
	m := cl.Metrics()
	fmt.Printf("wall=%s throughput=%.0f tx/s\n", elapsed.Round(time.Millisecond), float64(m.Commits)/elapsed.Seconds())
	fmt.Println(m.String())
	v, err := cl.Audit()
	if err != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(2)
	}
	printVerdict(v, len(cl.RecordedSystem().Roots()), m.Commits)
	if !v.Correct {
		exit(1)
	}
}

func clusterCrashed(cl *ctx.Cluster) bool {
	return cl.CoordinatorCrashed() || len(cl.CrashedParticipants()) > 0
}

// haltOnCrash stops a drive at a crash fault: once either side is down,
// the programs not yet started fail at once instead of timing out
// against a dead node.
type haltOnCrash struct{ cl *ctx.Cluster }

func (h haltOnCrash) Submit(name string, root ctx.Invocation) (*ctx.TxResult, error) {
	if clusterCrashed(h.cl) {
		return nil, ctx.ErrCrashed
	}
	return h.cl.Submit(name, root)
}

func main() {
	topoName := flag.String("topology", "bank", "stack2|stack3|stack4|bank|diamond")
	topoFile := flag.String("topo-file", "", "load a custom topology from a JSON file (overrides -topology)")
	protoName := flag.String("protocol", "hybrid", "open-nested|closed-nested|global-2pl|hybrid|nocc")
	roots := flag.Int("roots", 500, "number of root transactions")
	steps := flag.Int("steps", 4, "steps per transaction")
	items := flag.Int("items", 6, "hot-item universe size")
	clients := flag.Int("clients", 16, "concurrent client goroutines")
	readRatio := flag.Float64("reads", 0.3, "read service ratio")
	writeRatio := flag.Float64("writes", 0.2, "write service ratio (rest: increments)")
	seed := flag.Int64("seed", 1, "workload seed")
	deadlock := flag.String("deadlock", "wait-die", "deadlock policy: wait-die|detect-wfg")
	faults := flag.String("faults", "", "fault injection, e.g. apply=0.02,lock-delay=0.05,down=0.01")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed")
	opTimeout := flag.Duration("op-timeout", 0, "per-attempt deadline (0 = none), e.g. 25ms")
	walDir := flag.String("wal", "", "journal through a durable write-ahead log in this directory")
	walSync := flag.Int("wal-sync", 1, "fsync every N WAL records (<=1: every record, <0: never)")
	crash := flag.String("crash", "", `deterministic crash trigger: a leaf node ID ("T13/2/1") or "T13:commit"/"T13:post-commit" (requires -wal)`)
	crashTear := flag.Bool("crash-tear", false, "tear the WAL record mid-append when the crash fires")
	recoverDir := flag.String("recover", "", "recover from a WAL directory (single-process or a distributed root), report, and exit")
	distributed := flag.Bool("distributed", false, "run a coordinator + per-component participant cluster (presumed-abort 2PC) instead of the single-process runtime")
	transport := flag.String("transport", "chan", "distributed message transport: chan|tcp")
	netFaults := flag.String("net-faults", "", "seeded network fault injection, e.g. drop=0.03,dup=0.08,delay=0.1,reorder=0.05,partition=0.01 (requires -distributed)")
	rpcTimeout := flag.Duration("rpc-timeout", 0, "distributed per-attempt RPC deadline (0 = default 25ms)")
	distCrash := flag.String("dist-crash", "", `distributed crash trigger "txn:site[:participant]", e.g. T5:coord-post-decision or T5:part-prepare:east (requires -distributed and -wal)`)
	groupCommit := flag.Bool("group-commit", false, "coalesce 2PC force points through the WAL flush daemon: one shared fsync per flush window instead of one per force (requires -distributed)")
	certify := flag.Bool("certify", false, "certify every commit online against Comp-C and reject violating ones")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint every N commits: fold the execution index and certified history, compact MVCC chains, truncate the WAL (0 = never)")
	optimistic := flag.Bool("optimistic", false, "serve leaf reads from MVCC snapshots and validate them at commit instead of taking semantic read locks")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	if *recoverDir != "" {
		runRecover(*recoverDir, *transport, *rpcTimeout)
		stopProfiles()
		return
	}

	topos := map[string]*ctx.Topology{
		"stack2":  ctx.StackTopology(2),
		"stack3":  ctx.StackTopology(3),
		"stack4":  ctx.StackTopology(4),
		"bank":    ctx.BankTopology(),
		"diamond": ctx.DiamondTopology(),
	}
	topo, ok := topos[*topoName]
	if *topoFile != "" {
		f, err := os.Open(*topoFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			exit(2)
		}
		topo, err = ctx.DecodeTopology(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			exit(2)
		}
		*topoName = *topoFile
	} else if !ok {
		fmt.Fprintf(os.Stderr, "compsim: unknown topology %q\n", *topoName)
		exit(2)
	}
	proto, err := ctx.ParseProtocol(*protoName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compsim: unknown protocol %q\n", *protoName)
		exit(2)
	}

	if *distributed {
		netPlan, err := parseNetFaults(*netFaults, *faultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			exit(2)
		}
		if *distCrash != "" && *walDir == "" {
			fmt.Fprintln(os.Stderr, "compsim: -dist-crash needs -wal (nothing would survive to recover)")
			exit(2)
		}
		runDistributed(*topoName, topo, proto, ctx.DistConfig{
			Protocol: proto, Topo: topo, Transport: *transport,
			NetFaults: netPlan, WALRoot: *walDir, SyncEvery: *walSync,
			RPCTimeout: *rpcTimeout, GroupCommit: *groupCommit,
		}, *distCrash, *roots, *steps, *items, *clients, *readRatio, *writeRatio, *seed)
		stopProfiles()
		return
	}
	if *netFaults != "" || *distCrash != "" || *groupCommit {
		fmt.Fprintln(os.Stderr, "compsim: -net-faults, -dist-crash and -group-commit need -distributed")
		exit(2)
	}

	rt := topo.NewRuntime(proto)
	switch *deadlock {
	case "wait-die":
		rt.Deadlock = ctx.WaitDie
	case "detect-wfg":
		rt.Deadlock = ctx.DetectWFG
	default:
		fmt.Fprintf(os.Stderr, "compsim: unknown deadlock policy %q\n", *deadlock)
		exit(2)
	}
	rt.OpTimeout = *opTimeout
	if *optimistic {
		rt.Exec = ctx.ExecOptimistic
	}
	if *certify {
		if err := rt.EnableCertify(); err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			exit(2)
		}
	}
	if *walDir != "" {
		if err := rt.EnableWAL(ctx.WALConfig{Dir: *walDir, SyncEvery: *walSync}); err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			exit(2)
		}
	}
	if *checkpointEvery > 0 {
		rt.EnableCheckpoints(ctx.CheckpointConfig{Every: *checkpointEvery})
	}
	plan, err := parseFaults(*faults, *faultSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(2)
	}
	if *crash != "" {
		trig, err := parseCrash(*crash)
		if err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			exit(2)
		}
		plan.Triggers = append(plan.Triggers, trig)
	}
	plan.CrashTear = *crashTear
	if (*crash != "" || plan.CrashProb > 0) && *walDir == "" {
		fmt.Fprintln(os.Stderr, "compsim: crash faults need -wal (nothing would survive to recover)")
		exit(2)
	}
	if *faults != "" || *crash != "" {
		rt.SetFaults(plan)
	}
	programs := ctx.GenPrograms(topo, ctx.WorkloadParams{
		Roots: *roots, StepsPerTx: *steps, Items: *items,
		ReadRatio: *readRatio, WriteRatio: *writeRatio, Seed: *seed,
	})
	start := time.Now()
	runErr := ctx.Run(rt, programs, *clients)
	elapsed := time.Since(start)
	m := rt.Metrics()
	fmt.Printf("topology=%s protocol=%s roots=%d clients=%d\n", *topoName, proto, *roots, *clients)
	if errors.Is(runErr, ctx.ErrCrashed) {
		fmt.Println(m.String())
		fmt.Printf("crashed: runtime killed by a crash fault; the WAL at %s survived\n", *walDir)
		fmt.Printf("recover with: compsim -recover %s\n", *walDir)
		exit(3)
	}
	if errors.Is(runErr, ctx.ErrCertifyViolation) {
		// The certifier did its job: the violating commit was rejected and
		// rolled back, and the committed history below stays Comp-C.
		var cerr *ctx.CertifyError
		if errors.As(runErr, &cerr) {
			fmt.Printf("certify: rejected %s at commit time: %s\n", cerr.Root, cerr.Verdict.Reason)
		} else {
			fmt.Printf("certify: rejected a commit: %v\n", runErr)
		}
		runErr = nil
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", runErr)
		exit(1)
	}
	if *walDir != "" {
		if err := rt.CloseWAL(); err != nil {
			fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
			exit(1)
		}
	}
	fmt.Printf("wall=%s throughput=%.0f tx/s\n", elapsed.Round(time.Millisecond), float64(m.Commits)/elapsed.Seconds())
	fmt.Println(m.String())
	if *faults != "" || *opTimeout > 0 {
		for _, q := range rt.Quarantined() {
			fmt.Printf("quarantine: component=%s txn=%s op=%s err=%v\n", q.Component, q.Txn, q.Op, q.Err)
		}
	}

	sys := rt.RecordedSystem()
	if err := sys.Validate(); err != nil {
		fmt.Printf("recorded execution: MODEL VIOLATION (%v)\n", err)
		exit(1)
	}
	v, err := ctx.Check(sys, ctx.CheckOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "compsim: %v\n", err)
		exit(2)
	}
	printVerdict(v, len(sys.Roots()), m.Commits)
	if !v.Correct {
		exit(1)
	}
}

// printVerdict prints a verdict with its scope: the committed roots it
// covers, and those a checkpoint cut dropped before it (commits minus
// covered roots), so a verdict over an empty suffix is not read as
// evidence about the run.
func printVerdict(v *ctx.Verdict, roots int, commits int64) {
	fmt.Printf("recorded execution (%d roots, %d cut before it): %s\n", roots, commits-int64(roots), v)
}
