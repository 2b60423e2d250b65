// Package compositetx is a library for reasoning about — and running —
// composite transactional systems, reproducing "Correctness in General
// Configurations of Transactional Components" (Alonso, Feßler, Pardon,
// Schek; PODS 1999).
//
// A composite system is a set of independent transactional schedulers
// (components) that invoke each other's services in an arbitrary acyclic
// configuration: each component has its own transactions, its own conflict
// declarations, and its own scheduling decisions, and an operation of one
// component may itself be a transaction of another. The package provides:
//
//   - the execution model (Definitions 1–9): systems, schedules, weak and
//     strong orders, invocation graphs — build with NewSystem, validate
//     with (*System).Validate;
//   - the correctness criterion Comp-C (Definitions 10–20, Theorem 1):
//     Check runs the level-by-level reduction over computational fronts
//     and returns a verdict with a human-readable trace;
//   - the special-case criteria the paper relates Comp-C to: conflict
//     consistency per schedule, SCC for stacks, FCC for forks, JCC for
//     joins (with the ghost graph), and the classical baselines LLSR and
//     OPSR;
//   - a runnable prototype composite system (the paper's announced
//     implementation): goroutine components with semantic lock managers,
//     four concurrency-control protocols, execution recording, and a
//     bridge back into the checker;
//   - workload generators for random stack/fork/join/general executions
//     and flat read/write histories.
//
// The worked examples of the paper are available as Figure1System through
// Figure4System. See DESIGN.md for the reproduction inventory and
// EXPERIMENTS.md for the regenerated results.
package compositetx

import (
	"io"

	"compositetx/internal/criteria"
	"compositetx/internal/front"
	"compositetx/internal/model"
	"compositetx/internal/order"
)

// Core model types (Definitions 1–9).
type (
	// System is a composite system: schedules plus the computational
	// forest of a recorded execution.
	System = model.System
	// Schedule is one scheduler component's recorded behaviour.
	Schedule = model.Schedule
	// Node is a forest node: root transaction, subtransaction, or leaf.
	Node = model.Node
	// NodeID identifies a forest node.
	NodeID = model.NodeID
	// ScheduleID identifies a schedule.
	ScheduleID = model.ScheduleID
	// Relation is a binary order relation over node IDs.
	Relation = order.Relation[model.NodeID]
	// PairSet is a symmetric conflict predicate.
	PairSet = model.PairSet
)

// Checker types (Definitions 10–20).
type (
	// Verdict is the result of a Comp-C check, including the reduction
	// trace and, for correct executions, a serial witness over the roots.
	Verdict = front.Verdict
	// CheckOptions configures Check.
	CheckOptions = front.Options
	// Front is a computational front (Definition 12): Verdict.Fronts holds
	// one per level under CheckOptions.KeepFronts, which Verdict.Trace prints.
	Front = front.Front
	// Sequences records temporal operation sequences per schedule, the
	// extra information the OPSR baseline needs.
	Sequences = criteria.Sequences

	// Incremental is the online Comp-C engine: feed it execution deltas
	// with Append and it re-decides correctness touching only the
	// affected reduction state (the runtime's live certification is built
	// on it).
	Incremental = front.Incremental
	// IncrementalOptions configures NewIncremental.
	IncrementalOptions = front.IncrementalOptions
	// Delta is an execution increment: new schedules, nodes, conflict
	// pairs and order edges to append to a system under check.
	Delta = front.Delta
	// DeltaNode declares one forest node inside a Delta.
	DeltaNode = front.DeltaNode
	// DeltaPair declares one node pair (conflict or order edge) inside a
	// Delta.
	DeltaPair = front.DeltaPair
)

// NewSystem returns an empty composite system. Add schedules with
// AddSchedule, transactions with AddRoot/AddTx, leaf operations with
// AddLeaf, then record conflicts and orders on the schedules.
func NewSystem() *System { return model.NewSystem() }

// NewRelation returns an empty order relation (for intra-transaction
// orders).
func NewRelation() *Relation { return order.New[model.NodeID]() }

// DecodeSystem reads a system from its JSON representation.
func DecodeSystem(r io.Reader) (*System, error) { return model.Decode(r) }

// Check decides composite correctness (Comp-C, Theorem 1) of a recorded
// execution by level-by-level reduction. It returns an error only for
// malformed systems (broken forest structure or a recursive
// configuration); a well-formed but incorrect execution yields a verdict
// with Correct == false and a diagnosis.
func Check(sys *System, opts CheckOptions) (*Verdict, error) {
	return front.Check(sys, opts)
}

// IsCompC is Check reduced to its boolean verdict.
func IsCompC(sys *System) (bool, error) { return front.IsCompC(sys) }

// BatchResult pairs one system's Comp-C verdict with its per-system error;
// CheckBatch returns one per input, in input order.
type BatchResult = front.BatchResult

// CheckBatch checks many recorded executions concurrently on a worker pool
// of the given size (parallelism < 1 means one worker per CPU). Input
// systems may alias each other: Check only reads its system. A nil system
// yields an error result in its slot without affecting the others.
func CheckBatch(systems []*System, parallelism int, opts CheckOptions) []BatchResult {
	return front.CheckBatch(systems, parallelism, opts)
}

// NewIncremental returns an empty online Comp-C engine. Feed it Deltas
// with Append; every call returns the verdict for the execution
// accumulated so far, recomputing only the reduction state the delta
// touches.
func NewIncremental(opts IncrementalOptions) *Incremental { return front.NewIncremental(opts) }

// SystemDelta converts a whole system into one Delta (appendable onto an
// empty engine).
func SystemDelta(sys *System) *Delta { return front.SystemDelta(sys) }

// DecomposeByRoot splits a system into one Delta per root transaction —
// the commit-sized increments the runtime's certifier feeds the engine.
func DecomposeByRoot(sys *System) []*Delta { return front.DecomposeByRoot(sys) }

// DecomposeSteps splits a system into fine-grained Deltas (one node
// each, parents first), the op-by-op stream used by the prefix-exactness
// property tests.
func DecomposeSteps(sys *System) []*Delta { return front.DecomposeSteps(sys) }

// IsCC reports conflict consistency of a single schedule: it serialized
// its transactions compatibly with its weak input orders.
func IsCC(sys *System, sched ScheduleID) bool {
	sc := sys.Schedule(sched)
	if sc == nil {
		return false
	}
	return criteria.IsCC(sys, sc)
}

// IsSCC reports stack conflict consistency (Definition 22); by Theorem 2
// it coincides with Comp-C on stack configurations.
func IsSCC(sys *System) (bool, error) { return criteria.IsSCC(sys) }

// IsFCC reports fork conflict consistency (Definition 24); by Theorem 3 it
// coincides with Comp-C on fork configurations.
func IsFCC(sys *System) (bool, error) { return criteria.IsFCC(sys) }

// IsJCC reports join conflict consistency (Definition 27, via the ghost
// graph); by Theorem 4 it coincides with Comp-C on join configurations.
func IsJCC(sys *System) (bool, error) { return criteria.IsJCC(sys) }

// IsLLSR reports level-by-level serializability of a stack execution — the
// pessimistic multilevel baseline the paper's introduction criticizes;
// strictly contained in SCC.
func IsLLSR(sys *System) (bool, error) { return criteria.IsLLSR(sys) }

// IsOPSR reports order-preserving serializability of a stack execution
// given the temporal operation sequences; strictly contained in SCC.
func IsOPSR(sys *System, seqs Sequences) (bool, error) { return criteria.IsOPSR(sys, seqs) }

// Report is the one-stop analysis produced by Classify.
type Report = criteria.Report

// Classify runs every applicable correctness criterion on the execution
// and reports the configuration shape, per-schedule conflict consistency,
// and each criterion's verdict. seqs may be nil (OPSR is then omitted).
func Classify(sys *System, seqs Sequences) (*Report, error) {
	return criteria.Classify(sys, seqs)
}

// Paper examples.

// Figure1System is a general configuration in the spirit of the paper's
// Figure 1 (correct).
func Figure1System() *System { return front.Figure1System() }

// Figure2System illustrates conflicts and observed order (paper Figure 2).
func Figure2System() *System { return front.Figure2System() }

// Figure3System is the paper's incorrect execution (§3.6): reduction fails
// to isolate T1.
func Figure3System() *System { return front.Figure3System() }

// Figure4System is the paper's correct execution (§3.7): orders forgotten
// at the common schedule.
func Figure4System() *System { return front.Figure4System() }
