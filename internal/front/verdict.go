package front

import (
	"encoding/json"
	"fmt"
	"strings"

	"compositetx/internal/model"
)

// FailureKind classifies why a reduction step could not be completed.
type FailureKind int

const (
	// FailNone means the step succeeded.
	FailNone FailureKind = iota
	// FailCalculation means some transaction has contradictory internal
	// constraints: no isolated execution sequence involving all of its
	// operations exists (Definition 14).
	FailCalculation
	// FailIsolation means the transactions being reduced cannot all be
	// made contiguous: the quotient constraint graph is cyclic, i.e. the
	// rearranged front F** of Definition 16 step 1 does not exist.
	FailIsolation
	// FailCC means the new front violates conflict consistency
	// (Definition 13, checked by Definition 16 step 6).
	FailCC
)

func (k FailureKind) String() string {
	switch k {
	case FailNone:
		return "ok"
	case FailCalculation:
		return "no calculation (cyclic constraints inside a transaction)"
	case FailIsolation:
		return "no isolated rearrangement (cycle between transactions)"
	case FailCC:
		return "front not conflict consistent"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(k))
	}
}

// StepReport describes one reduction step for tracing and diagnostics.
type StepReport struct {
	Level          int
	Reduced        []model.NodeID // transactions that entered the front
	Failure        FailureKind
	BadTransaction model.NodeID   // set for FailCalculation
	Cycle          []model.NodeID // witness cycle for any failure
}

func (r *StepReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "step to level %d: reduce %v", r.Level, r.Reduced)
	if r.Failure != FailNone {
		fmt.Fprintf(&b, " — FAILED: %s", r.Failure)
		if r.BadTransaction != "" {
			fmt.Fprintf(&b, " for %s", r.BadTransaction)
		}
		if len(r.Cycle) > 0 {
			fmt.Fprintf(&b, ", cycle %v", r.Cycle)
		}
	}
	return b.String()
}

// Verdict is the result of checking a composite execution for composite
// correctness (Comp-C, Definition 20 / Theorem 1).
type Verdict struct {
	// Correct reports whether the execution is Comp-C: the reduction
	// reached a level-N front containing exactly the root transactions.
	Correct bool

	// Order is N, the highest schedule level (Definition 9).
	Order int

	// FailedLevel is the front level whose construction failed, or -1.
	FailedLevel int

	// Reason is a one-line human-readable explanation for incorrectness.
	Reason string

	// Steps holds one report per attempted reduction step (including the
	// failed one). Step 0 is synthesized for the level 0 front.
	Steps []*StepReport

	// Fronts holds every successfully constructed front, index = level,
	// when tracing was requested (Options.KeepFronts); otherwise nil.
	Fronts []*Front

	// SerialOrder is a total order over the root transactions witnessing
	// equivalence to a serial front (Theorem 1 proof), set when Correct.
	SerialOrder []model.NodeID
}

func (v *Verdict) String() string {
	if v.Correct {
		w := v.SerialOrder
		if len(w) > 12 {
			head := make([]string, 0, 13)
			for _, n := range w[:12] {
				head = append(head, string(n))
			}
			return fmt.Sprintf("Comp-C: correct (order %d, serial witness [%s ...] over %d roots)",
				v.Order, strings.Join(head, " "), len(w))
		}
		return fmt.Sprintf("Comp-C: correct (order %d, serial witness %v)", v.Order, w)
	}
	return fmt.Sprintf("Comp-C: INCORRECT at level %d: %s", v.FailedLevel, v.Reason)
}

// Trace renders a multi-line reduction trace.
func (v *Verdict) Trace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "composite system of order %d\n", v.Order)
	for i, st := range v.Steps {
		if i == 0 {
			if len(v.Fronts) > 0 && v.Fronts[0] != nil {
				fmt.Fprintf(&b, "%s\n", v.Fronts[0])
			}
			continue
		}
		fmt.Fprintf(&b, "%s\n", st)
		if st.Failure == FailNone && st.Level < len(v.Fronts) && v.Fronts[st.Level] != nil {
			fmt.Fprintf(&b, "%s\n", v.Fronts[st.Level])
		}
	}
	fmt.Fprintf(&b, "%s\n", v)
	return b.String()
}

// MarshalJSON encodes the verdict for tooling (cmd/compcheck -json).
func (v *Verdict) MarshalJSON() ([]byte, error) {
	type stepJSON struct {
		Level          int            `json:"level"`
		Reduced        []model.NodeID `json:"reduced,omitempty"`
		Failure        string         `json:"failure,omitempty"`
		BadTransaction model.NodeID   `json:"badTransaction,omitempty"`
		Cycle          []model.NodeID `json:"cycle,omitempty"`
	}
	doc := struct {
		Correct     bool           `json:"correct"`
		Order       int            `json:"order"`
		FailedLevel int            `json:"failedLevel"`
		Reason      string         `json:"reason,omitempty"`
		SerialOrder []model.NodeID `json:"serialOrder,omitempty"`
		Steps       []stepJSON     `json:"steps"`
	}{
		Correct:     v.Correct,
		Order:       v.Order,
		FailedLevel: v.FailedLevel,
		Reason:      v.Reason,
		SerialOrder: v.SerialOrder,
	}
	for _, st := range v.Steps {
		sj := stepJSON{Level: st.Level, Reduced: st.Reduced, BadTransaction: st.BadTransaction, Cycle: st.Cycle}
		if st.Failure != FailNone {
			sj.Failure = st.Failure.String()
		}
		doc.Steps = append(doc.Steps, sj)
	}
	return json.Marshal(doc)
}

// Options configures Check.
type Options struct {
	// KeepFronts retains every constructed front in the verdict for
	// tracing; otherwise the verdict holds none.
	KeepFronts bool
}

// Check decides composite correctness of a recorded execution by running
// the level-by-level reduction (Theorem 1). It returns an error only when
// the system itself is malformed (recursive configuration); a well-formed
// but incorrect execution yields Correct == false.
//
// Check is a single-delta run of the package's one reduction engine
// (incremental.go): after the one structural pass (model.System.Structure:
// validation, levels, the forest's preorder) the engine indexes sys in place —
// it neither clones, normalizes nor writes to it, so any number of
// goroutines may check one System at once — and drains every level.
// Verdicts, failure diagnostics included, are identical to those of the
// string-keyed oracle CheckReference, which the property tests compare
// against byte for byte.
func Check(sys *model.System, opts Options) (*Verdict, error) {
	pre, levels, err := sys.Structure()
	if err != nil {
		return nil, err
	}
	eng := newIncEngine(levels, false, len(pre))
	eng.load(sys, pre)
	return eng.verdict(opts.KeepFronts)
}

// failReason is the Verdict.Reason line of a failed step report (a level 0
// report describes the level 0 front, which only the CC check can fail).
func failReason(rep *StepReport) string {
	switch rep.Failure {
	case FailCalculation:
		return fmt.Sprintf("no calculation for transaction %s: cycle %v", rep.BadTransaction, rep.Cycle)
	case FailIsolation:
		return fmt.Sprintf("transactions cannot be isolated: cycle %v", rep.Cycle)
	default:
		return fmt.Sprintf("level %d front not conflict consistent: cycle %v", rep.Level, rep.Cycle)
	}
}

// IsCompC is a convenience wrapper returning just the boolean verdict.
func IsCompC(sys *model.System) (bool, error) {
	v, err := Check(sys, Options{})
	if err != nil {
		return false, err
	}
	return v.Correct, nil
}
