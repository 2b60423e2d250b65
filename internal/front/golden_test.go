package front_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compositetx/internal/front"
	"compositetx/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/check-general.golden from this build's verdicts")

// goldenSystems are the systems whose verdicts check-general.golden
// freezes: 64 executions of the check-general shape (two corpus seeds)
// and the paper's four figures.
func goldenSystems() (names []string, systems []*model.System) {
	for _, seed := range []int64{1, 2} {
		for i, ex := range generalCorpus(seed, 32) {
			names = append(names, fmt.Sprintf("general seed=%d #%02d", seed, i))
			systems = append(systems, ex.Sys)
		}
	}
	figures := []func() *model.System{front.Figure1System, front.Figure2System, front.Figure3System, front.Figure4System}
	for i, fig := range figures {
		names = append(names, fmt.Sprintf("figure%d", i+1))
		systems = append(systems, fig())
	}
	return names, systems
}

// goldenRecord renders what the golden file holds of one system: the
// verdict's outcome, reason, serial witness and per-step Reduced lists,
// and the SHA-256 of the system's Encode bytes.
func goldenRecord(t *testing.T, name string, sys *model.System) string {
	var enc bytes.Buffer
	if err := sys.Encode(&enc); err != nil {
		t.Fatalf("%s: Encode: %v", name, err)
	}
	v, err := front.Check(sys, front.Options{})
	if err != nil {
		t.Fatalf("%s: Check: %v", name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	fmt.Fprintf(&b, "encode sha256 %x\n", sha256.Sum256(enc.Bytes()))
	fmt.Fprintf(&b, "correct=%v order=%d failedLevel=%d\n", v.Correct, v.Order, v.FailedLevel)
	fmt.Fprintf(&b, "reason %q\n", v.Reason)
	fmt.Fprintf(&b, "serial %v\n", v.SerialOrder)
	for _, st := range v.Steps {
		fmt.Fprintf(&b, "step %d reduced %v\n", st.Level, st.Reduced)
	}
	return b.String()
}

// TestCheckGolden holds Check's verdicts and Encode's bytes to the ones
// frozen in testdata/check-general.golden. Rewrite the file with
// `go test ./internal/front -run TestCheckGolden -update` only when a
// change of verdict or encoding is intended.
func TestCheckGolden(t *testing.T) {
	names, systems := goldenSystems()
	var b strings.Builder
	for i, sys := range systems {
		b.WriteString(goldenRecord(t, names[i], sys))
	}
	got := b.String()
	path := filepath.Join("testdata", "check-general.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d: got\n  %s\nwant\n  %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, golden has %d", len(gl), len(wl))
}
