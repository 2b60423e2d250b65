package compositetx

import (
	"io"
	"time"

	"compositetx/internal/comm"
	"compositetx/internal/data"
	"compositetx/internal/sched"
	"compositetx/internal/workload"
)

// Runtime façade: the prototype composite system (internal/sched).
type (
	// Runtime is a running composite system: components with semantic
	// lock managers connected per a topology, exercised by concurrent
	// Submit calls, recording its execution for the checker.
	Runtime = sched.Runtime
	// Topology declares components, invocation edges and entry points.
	Topology = sched.Topology
	// ComponentSpec declares one component.
	ComponentSpec = sched.ComponentSpec
	// Protocol selects the concurrency-control discipline.
	Protocol = sched.Protocol
	// Invocation is a tree-shaped transaction program.
	Invocation = sched.Invocation
	// Step is one program step: leaf operation or child invocation.
	Step = sched.Step
	// TxResult reports a committed transaction.
	TxResult = sched.TxResult
	// Submitter is what Drive feeds; Outcome is one program's result.
	Submitter = sched.Submitter
	Outcome   = sched.Outcome
	// Metrics aggregates runtime counters.
	Metrics = sched.Metrics
	// WorkloadParams configures GenPrograms.
	WorkloadParams = sched.WorkloadParams
	// ExecMode selects leaf-read execution (Runtime.Exec): semantic
	// locking (ExecPessimistic) or MVCC snapshot reads validated at
	// commit (ExecOptimistic).
	ExecMode = sched.ExecMode
	// DeadlockPolicy selects deadlock handling (WaitDie or DetectWFG);
	// set Runtime.Deadlock before submitting transactions.
	DeadlockPolicy = sched.DeadlockPolicy

	// FaultPlan configures deterministic, seeded fault injection on a
	// runtime (Runtime.SetFaults): per-site probabilities and exact
	// (txn, step) triggers. See FaultApply..FaultDown for the sites.
	FaultPlan = sched.FaultPlan
	// Trigger fires a fault deterministically at an exact (txn, step).
	Trigger = sched.Trigger
	// FaultSite names one of the five injection points.
	FaultSite = sched.FaultSite
	// Quarantine reports an operation whose compensation failed
	// permanently (Runtime.Quarantined).
	Quarantine = sched.Quarantine

	// WALConfig configures the durable write-ahead log
	// (Runtime.EnableWAL and Recover): directory, group-commit
	// interval, segment size.
	WALConfig = sched.WALConfig
	// Recovered is the result of a crash recovery: rebuilt runtime,
	// recovered committed execution, its Comp-C verdict, and stats.
	Recovered = sched.Recovered
	// RecoveryStats summarizes one recovery pass.
	RecoveryStats = sched.RecoveryStats

	// CertifyError is the commit-time rejection of live certification
	// (Runtime.EnableCertify): it names the rejected root and carries the
	// Comp-C violation witness. Matches ErrCertifyViolation with
	// errors.Is.
	CertifyError = sched.CertifyError

	// CheckpointConfig installs the bounded-memory checkpoint cadence and
	// overload watermarks (Runtime.EnableCheckpoints): every N commits the
	// runtime folds its execution index and certified history, compacts
	// MVCC chains and truncates the WAL behind the snapshot barrier.
	CheckpointConfig = sched.CheckpointConfig
	// CheckpointStats reports one checkpoint: marker LSN, folded roots and
	// nodes, WAL segments deleted, MVCC versions dropped.
	CheckpointStats = sched.CheckpointStats

	// DistConfig configures a distributed cluster (StartCluster): one
	// root coordinator plus one participant scheduler per component,
	// wired over a pluggable message transport ("chan" in-process or
	// "tcp" loopback), optionally perturbed by NetFaults and made
	// durable under WALRoot.
	DistConfig = sched.DistConfig
	// Cluster is a running distributed composite driving presumed-abort
	// 2PC for every root transaction; crash and recover either side
	// through its methods, Settle to drain the in-doubt set, Audit to
	// re-verify the committed history against Comp-C.
	Cluster = sched.Cluster
	// DistCrash arms one distributed crash-site injection
	// (Cluster.SetCrash); see DistCrashCoordPre..DistCrashPartDecide.
	DistCrash = sched.DistCrash
	// DistMetrics is a cluster-wide counter snapshot.
	DistMetrics = sched.DistMetrics
	// NetFaultPlan configures the seeded network fault injector: drop,
	// duplicate, delay, reorder and one-way partitions per message.
	NetFaultPlan = comm.NetFaultPlan
	// NetStats counts fault-injector decisions.
	NetStats = comm.NetStats

	// Op is a data-store operation; Mode its semantic class.
	Op = data.Op
	// Mode names the semantic class of an operation.
	Mode = data.Mode
	// ModeTable is a commutativity (conflict) specification over modes.
	ModeTable = data.ModeTable
	// Store is the in-memory integer store leaf components own.
	Store = data.Store
)

// Concurrency-control protocols (see the sched package documentation for
// the soundness discussion: OpenNested is unsound on join/diamond
// configurations — the paper's Figure 3 phenomenon — which Hybrid fixes).
const (
	OpenNested   = sched.OpenNested
	ClosedNested = sched.ClosedNested
	Global2PL    = sched.Global2PL
	Hybrid       = sched.Hybrid
	NoCC         = sched.NoCC
)

// ParseProtocol inverts Protocol.String: "open-nested", "closed-nested",
// "global-2pl", "hybrid" or "nocc", the names compsim flags and WAL
// metadata use.
func ParseProtocol(s string) (Protocol, error) { return sched.ParseProtocol(s) }

// Fault-injection sites (FaultPlan probabilities and Trigger.Site).
const (
	FaultApply        = sched.FaultApply
	FaultLockDelay    = sched.FaultLockDelay
	FaultLockFail     = sched.FaultLockFail
	FaultCompensation = sched.FaultCompensation
	FaultDown         = sched.FaultDown
	FaultCrash        = sched.FaultCrash
)

// Typed runtime errors: recoverable injected faults, component outages,
// deadline expiries (Invocation.Deadline / Runtime.OpTimeout), retry
// budget exhaustion, and application-initiated aborts.
var (
	ErrInjected       = sched.ErrInjected
	ErrComponentDown  = sched.ErrComponentDown
	ErrTimeout        = sched.ErrTimeout
	ErrTooManyRetries = sched.ErrTooManyRetries
	ErrClientAbort    = sched.ErrClientAbort

	// ErrCrashed is returned by Submit after a crash fault fired: the
	// runtime is dead and the WAL is the only survivor (see Recover).
	ErrCrashed = sched.ErrCrashed
	// ErrWALExists rejects EnableWAL over a non-empty log directory.
	ErrWALExists = sched.ErrWALExists
	// ErrRecoveredViolation flags a recovered execution that fails the
	// Comp-C check (the Recovered value is still returned).
	ErrRecoveredViolation = sched.ErrRecoveredViolation
	// ErrCertifyViolation is returned by Submit when live certification
	// (EnableCertify) rejects the commit: admitting it would make the
	// committed execution violate Comp-C. The transaction is rolled back.
	ErrCertifyViolation = sched.ErrCertifyViolation
	// ErrCertifyAfterWAL rejects EnableCertify on a runtime whose WAL is
	// already attached (the journaled metadata would not record certify
	// mode, so recovery would silently drop certification).
	ErrCertifyAfterWAL = sched.ErrCertifyAfterWAL
	// ErrValidation aborts an optimistic attempt (ExecOptimistic) whose
	// snapshot reads a conflicting commit invalidated; the runtime rolls
	// the attempt back and retries it with a fresh snapshot, so Submit
	// surfaces it only wrapped in ErrTooManyRetries.
	ErrValidation = sched.ErrValidation
	// ErrOverload is returned by Submit while the live-state high
	// watermark (CheckpointConfig) is tripped: the caller should back off
	// and retry once a checkpoint has drained the backlog.
	ErrOverload = sched.ErrOverload
	// ErrInsufficient rejects an escrow reserve that would take a
	// bounded counter below its floor (see EscrowCounterTable).
	ErrInsufficient = data.ErrInsufficient
)

// Recover rebuilds a runtime — stores and recorded execution — from a
// write-ahead log directory: torn tail truncated, committed transactions
// redone, in-flight ones undone (journaled write-ahead, so recovery is
// idempotent), and the result re-verified against Comp-C.
func Recover(cfg WALConfig) (*Recovered, error) { return sched.Recover(cfg) }

// Distributed crash sites (DistCrash.Site): each fires after the
// corresponding WAL force, before the message that would reveal it —
// the exact windows presumed-abort 2PC must survive.
const (
	DistCrashCoordPre    = sched.DistCrashCoordPre
	DistCrashCoordPost   = sched.DistCrashCoordPost
	DistCrashPartPrepare = sched.DistCrashPartPrepare
	DistCrashPartDecide  = sched.DistCrashPartDecide
)

// StartCluster builds and starts a fresh distributed cluster: the
// coordinator, one participant per component of cfg.Topo, and the
// shared transport. Every Submit runs the presumed-abort two-phase
// commit; participants force Prepare records before voting yes and
// Decision records before acking.
func StartCluster(cfg DistConfig) (*Cluster, error) { return sched.StartCluster(cfg) }

// RecoverCluster rebuilds a whole distributed cluster from its
// durability root (DistConfig.WALRoot) in a fresh process: topology and
// protocol come from the coordinator log, participants are rebuilt from
// their own logs with in-doubt transactions re-registered, and the
// termination protocol plus decision re-delivery drain the in-doubt set
// (wait with Cluster.Settle, re-verify with Cluster.Audit).
func RecoverCluster(cfg DistConfig) (*Cluster, error) { return sched.RecoverCluster(cfg) }

// Deadlock-handling policies.
const (
	// WaitDie prevents deadlocks by sacrificing younger requesters.
	WaitDie = sched.WaitDie
	// DetectWFG detects waiting cycles on a global waits-for graph and
	// sacrifices the request that closes one.
	DetectWFG = sched.DetectWFG
)

// Built-in operation modes, plus the escrow-style banking modes (semantic
// classes implemented as increments/reads via Op.Impl).
const (
	ModeRead  = data.ModeRead
	ModeWrite = data.ModeWrite
	ModeIncr  = data.ModeIncr

	ModeDeposit  = data.ModeDeposit
	ModeWithdraw = data.ModeWithdraw
	ModeAudit    = data.ModeAudit

	// Bounded escrow-counter modes: a reserve takes from a counter only
	// if it stays above the bound (ErrInsufficient otherwise), a release
	// gives back. Pair with EscrowCounterTable.
	ModeReserve = data.ModeReserve
	ModeRelease = data.ModeRelease
)

// Execution modes (Runtime.Exec): pessimistic semantic locking (default)
// or MVCC snapshot reads with optimistic validate-at-commit.
const (
	ExecPessimistic = sched.ExecPessimistic
	ExecOptimistic  = sched.ExecOptimistic
)

// SemanticTable is the full-knowledge commutativity specification
// (increments commute); RWTable the classical read/write one.
func SemanticTable() *ModeTable { return data.SemanticTable() }

// RWTable is the no-knowledge conflict table (increments are
// read-modify-writes).
func RWTable() *ModeTable { return data.RWTable() }

// EscrowTable is the escrow banking specification: deposits commute,
// withdrawals conflict with each other, audits conflict with both.
func EscrowTable() *ModeTable { return data.EscrowTable() }

// EscrowCounterTable is the bounded escrow counter specification:
// reserves commute with each other (the store enforces the bound
// atomically at apply time), releases commute with everything but reads.
func EscrowCounterTable() *ModeTable { return data.EscrowCounterTable() }

// NewModeTable returns an empty commutativity specification; declare
// conflicting mode pairs with Declare.
func NewModeTable() *ModeTable { return data.NewModeTable() }

// Reference topologies.

// StackTopology is a linear chain of components (multilevel shape).
func StackTopology(depth int) *Topology { return sched.StackTopology(depth) }

// BankTopology is a bank delegating to two branch components.
func BankTopology() *Topology { return sched.BankTopology() }

// DiamondTopology is a general configuration where two independent entry
// components interfere only through a shared bottom component.
func DiamondTopology() *Topology { return sched.DiamondTopology() }

// GenPrograms generates typed random transaction programs over a topology.
func GenPrograms(t *Topology, p WorkloadParams) []Invocation {
	return sched.GenPrograms(t, p)
}

// Run submits every program on a pool of client goroutines.
func Run(rt *Runtime, programs []Invocation, clients int) error {
	return sched.Run(rt, programs, clients)
}

// Drive is the client pool under Run for anything with a Submit method
// (a *Runtime, a *Cluster): every program submitted once as T<index+1>,
// its latency and error returned by index, plus the wall time.
func Drive(s Submitter, programs []Invocation, clients int) ([]Outcome, time.Duration) {
	return sched.Drive(s, programs, clients)
}

// DecodeTopology reads a topology from its JSON representation (see
// cmd/compsim -topo-file and testdata/topology_shop.json).
func DecodeTopology(r io.Reader) (*Topology, error) {
	return sched.DecodeTopology(r)
}

// EncodeTopology writes a topology in the format DecodeTopology reads
// (the same representation the WAL persists for recovery).
func EncodeTopology(w io.Writer, t *Topology) error {
	return sched.EncodeTopology(w, t)
}

// Random-execution generators (for checker-side experiments).
type (
	// StackParams configures GenerateStack.
	StackParams = workload.StackParams
	// ForkParams configures GenerateFork.
	ForkParams = workload.ForkParams
	// JoinParams configures GenerateJoin.
	JoinParams = workload.JoinParams
	// GeneralParams configures GenerateGeneral.
	GeneralParams = workload.GeneralParams
	// Execution bundles a generated system with temporal sequences.
	Execution = workload.Execution
)

// GenerateStack generates a random stack execution.
func GenerateStack(p StackParams) *Execution { return workload.Stack(p) }

// GenerateFork generates a random fork execution.
func GenerateFork(p ForkParams) *Execution { return workload.Fork(p) }

// GenerateJoin generates a random join execution.
func GenerateJoin(p JoinParams) *Execution { return workload.Join(p) }

// GenerateGeneral generates a random general-configuration execution.
func GenerateGeneral(p GeneralParams) *Execution { return workload.General(p) }
