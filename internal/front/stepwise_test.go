package front

import (
	"encoding/json"
	"strings"
	"testing"

	"compositetx/internal/model"
)

// TestStepwiseReduction drives the oracle's reduction by hand, level0 then
// step per level, inspecting each front.
func TestStepwiseReduction(t *testing.T) {
	sys := Figure4System()
	sys.Normalize()
	levels, err := sys.Levels()
	if err != nil {
		t.Fatal(err)
	}
	f := level0(sys)
	if f.Level != 0 || f.Len() != 4 {
		t.Fatalf("level 0 front: %s", f)
	}
	for f.Level < 3 {
		nf, rep := step(sys, f, levels)
		if nf == nil {
			t.Fatalf("unexpected failure: %s", rep)
		}
		if rep.Level != f.Level+1 {
			t.Fatalf("report level %d after front level %d", rep.Level, f.Level)
		}
		if rep.Failure != FailNone {
			t.Fatalf("report carries failure on success: %s", rep)
		}
		f = nf
	}
	if f.ccCycle() != nil {
		t.Fatal("final front must be CC")
	}
	w, ok := f.serialWitness()
	if !ok || len(w) != 2 {
		t.Fatalf("witness = %v, %v", w, ok)
	}
	// A front over two unordered roots is not serial (no strong total
	// order), but it is equivalent to a serial one via the witness.
	if f.IsSerial() {
		t.Fatal("unordered roots do not form a serial front (Def 17)")
	}
}

func TestFrontIsSerial(t *testing.T) {
	sys := model.NewSystem()
	sc := sys.AddSchedule("S")
	sys.AddRoot("T1", "S")
	sys.AddRoot("T2", "S")
	sys.AddLeaf("a", "T1")
	sys.AddLeaf("b", "T2")
	sc.StrongIn.Add("T1", "T2")
	sc.WeakIn.Add("T1", "T2")
	sc.StrongOut.Add("a", "b")
	sc.WeakOut.Add("a", "b")
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	v, err := Check(sys, Options{KeepFronts: true})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Correct {
		t.Fatalf("sequential execution must be correct: %s", v)
	}
	final := v.Fronts[len(v.Fronts)-1]
	if !final.IsSerial() {
		t.Fatal("strongly totally ordered roots form a serial front (Def 17)")
	}
}

func TestVerdictJSON(t *testing.T) {
	v, err := Check(Figure3System(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"correct":false`, `"failedLevel":3`, `"no isolated rearrangement`, `"T1"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("verdict JSON missing %q:\n%s", want, s)
		}
	}
	ok, err := Check(Figure4System(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"correct":true`) {
		t.Fatalf("verdict JSON: %s", data)
	}
}

func TestFailureKindStrings(t *testing.T) {
	for k, want := range map[FailureKind]string{
		FailNone:        "ok",
		FailCalculation: "no calculation",
		FailIsolation:   "no isolated rearrangement",
		FailCC:          "not conflict consistent",
		FailureKind(99): "FailureKind(99)",
	} {
		if got := k.String(); !strings.Contains(got, want) {
			t.Errorf("FailureKind(%d) = %q, want substring %q", int(k), got, want)
		}
	}
}
