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
//
// Exit status: 0 correct, 1 violation or run error, 2 usage, 3 crashed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	ctx "compositetx"
	"compositetx/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run: every flag binds into it. The workload shape is the
// experiments' RunConfig (its StepDelay stays zero here).
type config struct {
	sim.RunConfig

	topology, topoFile, protocol string
	deadlock                     string
	faults, crash                string
	faultSeed                    int64
	crashTear                    bool
	opTimeout                    time.Duration
	wal                          string
	walSync                      int
	recoverDir                   string
	distributed                  bool
	transport                    string
	netFaults, distCrash         string
	rpcTimeout                   time.Duration
	groupCommit                  bool
	certify, optimistic          bool
	checkpointEvery              int
	cpuProfile, memProfile       string

	stdout, stderr io.Writer
}

// Flags that only one kind of run reads; setting one for the other kind
// is a usage error rather than a silent no-op.
var (
	distOnly   = []string{"transport", "rpc-timeout", "net-faults", "dist-crash", "group-commit"}
	singleOnly = []string{"deadlock", "faults", "op-timeout", "crash", "crash-tear", "certify", "checkpoint-every", "optimistic"}
)

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	c := &config{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("compsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.topology, "topology", "bank", "stack2|stack3|stack4|bank|diamond")
	fs.StringVar(&c.topoFile, "topo-file", "", "load a custom topology from a JSON file (overrides -topology)")
	fs.StringVar(&c.protocol, "protocol", "hybrid", "open-nested|closed-nested|global-2pl|hybrid|nocc")
	fs.IntVar(&c.Roots, "roots", 500, "number of root transactions")
	fs.IntVar(&c.StepsPerTx, "steps", 4, "steps per transaction")
	fs.IntVar(&c.Items, "items", 6, "hot-item universe size")
	fs.IntVar(&c.Clients, "clients", 16, "concurrent client goroutines")
	fs.Float64Var(&c.ReadRatio, "reads", 0.3, "read service ratio")
	fs.Float64Var(&c.WriteRatio, "writes", 0.2, "write service ratio (rest: increments)")
	fs.Int64Var(&c.Seed, "seed", 1, "workload seed")
	fs.StringVar(&c.deadlock, "deadlock", "wait-die", "deadlock policy: wait-die|detect-wfg")
	fs.StringVar(&c.faults, "faults", "", "fault injection, e.g. apply=0.02,lock-delay=0.05,down=0.01")
	fs.Int64Var(&c.faultSeed, "fault-seed", 1, "fault injector seed")
	fs.DurationVar(&c.opTimeout, "op-timeout", 0, "per-attempt deadline (0 = none), e.g. 25ms")
	fs.StringVar(&c.wal, "wal", "", "journal through a durable write-ahead log in this directory")
	fs.IntVar(&c.walSync, "wal-sync", 1, "fsync every N WAL records (<=1: every record, <0: never)")
	fs.StringVar(&c.crash, "crash", "", `deterministic crash trigger: a leaf node ID ("T13/2/1") or "T13:commit"/"T13:post-commit" (requires -wal)`)
	fs.BoolVar(&c.crashTear, "crash-tear", false, "tear the WAL record mid-append when the crash fires")
	fs.StringVar(&c.recoverDir, "recover", "", "recover from a WAL directory (single-process or a distributed root), report, and exit")
	fs.BoolVar(&c.distributed, "distributed", false, "run a coordinator + per-component participant cluster (presumed-abort 2PC) instead of the single-process runtime")
	fs.StringVar(&c.transport, "transport", "chan", "distributed message transport: chan|tcp")
	fs.StringVar(&c.netFaults, "net-faults", "", "seeded network fault injection, e.g. drop=0.03,dup=0.08,delay=0.1,reorder=0.05,partition=0.01 (requires -distributed)")
	fs.DurationVar(&c.rpcTimeout, "rpc-timeout", 0, "distributed per-attempt RPC deadline (0 = default 25ms)")
	fs.StringVar(&c.distCrash, "dist-crash", "", `distributed crash trigger "txn:site[:participant]", e.g. T5:coord-post-decision or T5:part-prepare:east (requires -distributed and -wal)`)
	fs.BoolVar(&c.groupCommit, "group-commit", false, "coalesce 2PC force points through the WAL flush daemon: one shared fsync per flush window instead of one per force (requires -distributed)")
	fs.BoolVar(&c.certify, "certify", false, "certify every commit online against Comp-C and reject violating ones")
	fs.IntVar(&c.checkpointEvery, "checkpoint-every", 0, "checkpoint every N commits: fold the execution index and certified history, compact MVCC chains, truncate the WAL (0 = never)")
	fs.BoolVar(&c.optimistic, "optimistic", false, "serve leaf reads from MVCC snapshots and validate them at commit instead of taking semantic read locks")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	stop, err := c.startProfiles()
	if err != nil {
		return c.fail(2, err)
	}
	defer stop()

	if c.recoverDir != "" {
		return c.runRecover()
	}
	topo, err := c.loadTopology()
	if err != nil {
		return c.fail(2, err)
	}
	proto, err := ctx.ParseProtocol(c.protocol)
	if err != nil {
		return c.fail(2, fmt.Errorf("unknown protocol %q", c.protocol))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	ignored, mode := singleOnly, "does not apply to -distributed"
	if !c.distributed {
		ignored, mode = distOnly, "needs -distributed"
	}
	for _, name := range ignored {
		if set[name] {
			return c.fail(2, fmt.Errorf("-%s %s", name, mode))
		}
	}
	if c.distributed {
		return c.runDistributed(topo, proto)
	}
	return c.runSingle(topo, proto)
}

// fail reports err on stderr and returns the exit status code.
func (c *config) fail(code int, err error) int {
	fmt.Fprintf(c.stderr, "compsim: %v\n", err)
	return code
}

// startProfiles starts -cpuprofile collection now; the returned stop
// finishes it and writes the -memprofile heap profile.
func (c *config) startProfiles() (stop func(), err error) {
	var cpuF *os.File
	if c.cpuProfile != "" {
		if cpuF, err = os.Create(c.cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if c.memProfile == "" {
			return
		}
		f, err := os.Create(c.memProfile)
		if err == nil {
			runtime.GC()
			err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
		}
		if err != nil {
			fmt.Fprintf(c.stderr, "compsim: %v\n", err)
		}
	}, nil
}

// loadTopology resolves -topology, or -topo-file, which then also names
// the topology in the report.
func (c *config) loadTopology() (*ctx.Topology, error) {
	if c.topoFile == "" {
		topo, ok := map[string]*ctx.Topology{
			"stack2":  ctx.StackTopology(2),
			"stack3":  ctx.StackTopology(3),
			"stack4":  ctx.StackTopology(4),
			"bank":    ctx.BankTopology(),
			"diamond": ctx.DiamondTopology(),
		}[c.topology]
		if !ok {
			return nil, fmt.Errorf("unknown topology %q", c.topology)
		}
		return topo, nil
	}
	f, err := os.Open(c.topoFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c.topology = c.topoFile
	return ctx.DecodeTopology(f)
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
func (c *config) runRecover() int {
	dir := c.recoverDir
	if st, err := os.Stat(filepath.Join(dir, "coord")); err == nil && st.IsDir() {
		return c.runRecoverDist()
	}
	rec, err := ctx.Recover(ctx.WALConfig{Dir: dir})
	if rec == nil {
		return c.fail(2, err)
	}
	s := rec.Stats
	fmt.Fprintf(c.stdout, "recovered wal=%s segments=%d records=%d torn-bytes=%d\n", dir, s.Segments, s.Records, s.TornBytes)
	fmt.Fprintf(c.stdout, "txns committed=%d aborted=%d in-flight=%d redone=%d undone=%d quarantined=%d\n",
		s.Committed, s.Aborted, s.InFlight, s.Redone, s.Undone, s.Quarantined)
	c.printQuarantine(rec.Runtime)
	fmt.Fprintf(c.stdout, "recovered execution: %s\n", rec.Verdict)
	if err != nil {
		return c.fail(1, err)
	}
	return 0
}

// runRecoverDist rebuilds a whole distributed cluster from its
// durability root, lets the termination protocol and decision
// re-delivery drain the in-doubt set, and re-verifies the merged
// committed history.
func (c *config) runRecoverDist() int {
	cl, err := ctx.RecoverCluster(ctx.DistConfig{
		WALRoot: c.recoverDir, Transport: c.transport, RPCTimeout: c.rpcTimeout,
	})
	if err != nil {
		return c.fail(2, err)
	}
	defer cl.Close()
	if err := cl.Settle(15 * time.Second); err != nil {
		return c.fail(1, err)
	}
	fmt.Fprintf(c.stdout, "recovered cluster root=%s transport=%s\n", c.recoverDir, c.transport)
	fmt.Fprintln(c.stdout, cl.Metrics().String())
	v, err := cl.Audit()
	if err != nil {
		return c.fail(2, err)
	}
	fmt.Fprintf(c.stdout, "recovered execution: %s\n", v)
	return verdictStatus(v)
}

// runDistributed is the -distributed mode: the same topology, protocol
// and workload flags, but executed by a coordinator + per-component
// participant cluster over a message transport, with presumed-abort 2PC
// deciding every root. Crash faults follow the single-process exit
// convention: status 3, recover with -recover on the WAL root.
func (c *config) runDistributed(topo *ctx.Topology, proto ctx.Protocol) int {
	netPlan, err := parseNetFaults(c.netFaults, c.faultSeed)
	if err != nil {
		return c.fail(2, err)
	}
	var crash ctx.DistCrash
	if c.distCrash != "" {
		if c.wal == "" {
			return c.fail(2, errors.New("-dist-crash needs -wal (nothing would survive to recover)"))
		}
		if crash, err = parseDistCrash(c.distCrash); err != nil {
			return c.fail(2, err)
		}
	}
	cl, err := ctx.StartCluster(ctx.DistConfig{
		Protocol: proto, Topo: topo, Transport: c.transport,
		NetFaults: netPlan, WALRoot: c.wal, SyncEvery: c.walSync,
		RPCTimeout: c.rpcTimeout, GroupCommit: c.groupCommit,
	})
	if err != nil {
		return c.fail(2, err)
	}
	defer cl.Close()
	if c.distCrash != "" {
		cl.SetCrash(crash)
	}

	outcomes, elapsed := ctx.Drive(haltOnCrash{cl}, ctx.GenPrograms(topo, c.Workload()), c.Clients)

	fmt.Fprintf(c.stdout, "topology=%s protocol=%s roots=%d clients=%d transport=%s distributed=true\n",
		c.topology, proto, c.Roots, c.Clients, c.transport)
	if clusterCrashed(cl) {
		node := "coordinator"
		if ps := cl.CrashedParticipants(); len(ps) > 0 {
			node = "participant " + strings.Join(ps, ",")
		}
		fmt.Fprintln(c.stdout, cl.Metrics().String())
		fmt.Fprintf(c.stdout, "crashed: %s killed by a crash fault; the logs under %s survived\n", node, c.wal)
		fmt.Fprintf(c.stdout, "recover with: compsim -recover %s\n", c.wal)
		return 3
	}
	for _, o := range outcomes {
		if o.Err != nil {
			return c.fail(1, o.Err)
		}
	}
	if err := cl.Settle(15 * time.Second); err != nil {
		return c.fail(1, err)
	}
	m := cl.Metrics()
	c.printThroughput(elapsed, m.Commits)
	fmt.Fprintln(c.stdout, m.String())
	v, err := cl.Audit()
	if err != nil {
		return c.fail(2, err)
	}
	c.printVerdict(v, len(cl.RecordedSystem().Roots()), m.Commits)
	return verdictStatus(v)
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

// runSingle runs the workload on the single-process runtime and checks
// the recorded execution afterwards.
func (c *config) runSingle(topo *ctx.Topology, proto ctx.Protocol) int {
	rt := topo.NewRuntime(proto)
	switch c.deadlock {
	case "wait-die":
		rt.Deadlock = ctx.WaitDie
	case "detect-wfg":
		rt.Deadlock = ctx.DetectWFG
	default:
		return c.fail(2, fmt.Errorf("unknown deadlock policy %q", c.deadlock))
	}
	rt.OpTimeout = c.opTimeout
	if c.optimistic {
		rt.Exec = ctx.ExecOptimistic
	}
	if c.certify {
		if err := rt.EnableCertify(); err != nil {
			return c.fail(2, err)
		}
	}
	if c.wal != "" {
		if err := rt.EnableWAL(ctx.WALConfig{Dir: c.wal, SyncEvery: c.walSync}); err != nil {
			return c.fail(2, err)
		}
	}
	if c.checkpointEvery > 0 {
		rt.EnableCheckpoints(ctx.CheckpointConfig{Every: c.checkpointEvery})
	}
	plan, err := parseFaults(c.faults, c.faultSeed)
	if err != nil {
		return c.fail(2, err)
	}
	if c.crash != "" {
		trig, err := parseCrash(c.crash)
		if err != nil {
			return c.fail(2, err)
		}
		plan.Triggers = append(plan.Triggers, trig)
	}
	plan.CrashTear = c.crashTear
	if (c.crash != "" || plan.CrashProb > 0) && c.wal == "" {
		return c.fail(2, errors.New("crash faults need -wal (nothing would survive to recover)"))
	}
	if c.faults != "" || c.crash != "" {
		rt.SetFaults(plan)
	}
	start := time.Now()
	runErr := ctx.Run(rt, ctx.GenPrograms(topo, c.Workload()), c.Clients)
	elapsed := time.Since(start)
	m := rt.Metrics()
	fmt.Fprintf(c.stdout, "topology=%s protocol=%s roots=%d clients=%d\n", c.topology, proto, c.Roots, c.Clients)
	if errors.Is(runErr, ctx.ErrCrashed) {
		fmt.Fprintln(c.stdout, m.String())
		fmt.Fprintf(c.stdout, "crashed: runtime killed by a crash fault; the WAL at %s survived\n", c.wal)
		fmt.Fprintf(c.stdout, "recover with: compsim -recover %s\n", c.wal)
		return 3
	}
	if errors.Is(runErr, ctx.ErrCertifyViolation) {
		// The certifier did its job: the violating commit was rejected and
		// rolled back, and the committed history below stays Comp-C.
		var cerr *ctx.CertifyError
		if errors.As(runErr, &cerr) {
			fmt.Fprintf(c.stdout, "certify: rejected %s at commit time: %s\n", cerr.Root, cerr.Verdict.Reason)
		} else {
			fmt.Fprintf(c.stdout, "certify: rejected a commit: %v\n", runErr)
		}
		runErr = nil
	}
	if runErr != nil {
		return c.fail(1, runErr)
	}
	if c.wal != "" {
		if err := rt.CloseWAL(); err != nil {
			return c.fail(1, err)
		}
	}
	c.printThroughput(elapsed, m.Commits)
	fmt.Fprintln(c.stdout, m.String())
	if c.faults != "" || c.opTimeout > 0 {
		c.printQuarantine(rt)
	}

	sys := rt.RecordedSystem()
	if err := sys.Validate(); err != nil {
		fmt.Fprintf(c.stdout, "recorded execution: MODEL VIOLATION (%v)\n", err)
		return 1
	}
	v, err := ctx.Check(sys, ctx.CheckOptions{})
	if err != nil {
		return c.fail(2, err)
	}
	c.printVerdict(v, len(sys.Roots()), m.Commits)
	return verdictStatus(v)
}

func (c *config) printThroughput(elapsed time.Duration, commits int64) {
	fmt.Fprintf(c.stdout, "wall=%s throughput=%.0f tx/s\n", elapsed.Round(time.Millisecond), float64(commits)/elapsed.Seconds())
}

func (c *config) printQuarantine(rt *ctx.Runtime) {
	for _, q := range rt.Quarantined() {
		fmt.Fprintf(c.stdout, "quarantine: component=%s txn=%s op=%s err=%v\n", q.Component, q.Txn, q.Op, q.Err)
	}
}

// printVerdict prints a verdict with its scope: the committed roots it
// covers, and those a checkpoint cut dropped before it (commits minus
// covered roots), so a verdict over an empty suffix is not read as
// evidence about the run.
func (c *config) printVerdict(v *ctx.Verdict, roots int, commits int64) {
	fmt.Fprintf(c.stdout, "recorded execution (%d roots, %d cut before it): %s\n", roots, commits-int64(roots), v)
}

// verdictStatus is the exit status a verdict earns: 0 correct, 1 not.
func verdictStatus(v *ctx.Verdict) int {
	if !v.Correct {
		return 1
	}
	return 0
}
