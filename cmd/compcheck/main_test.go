package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	ctx "compositetx"
	"compositetx/internal/front"
)

// compcheck runs the command in-process and returns its exit status and
// both output streams.
func compcheck(t *testing.T, stdin string, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	status = run(args, strings.NewReader(stdin), &out, &errs)
	return status, out.String(), errs.String()
}

// writeSystem encodes sys into a fresh JSON file and returns its path.
func writeSystem(t *testing.T, name string, sys *ctx.System) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestExitStatusFollowsVerdict(t *testing.T) {
	if status, out, _ := compcheck(t, "", "-example", "figure3"); status != 1 || !strings.Contains(out, "INCORRECT") {
		t.Fatalf("figure3: status %d, output %q; want 1 and an INCORRECT verdict", status, out)
	}
	if status, out, _ := compcheck(t, "", "-example", "figure4"); status != 0 || !strings.Contains(out, "correct") {
		t.Fatalf("figure4: status %d, output %q; want 0 and a correct verdict", status, out)
	}
}

// TestTraceMatchesReference: the trace the command prints comes from the
// engine; it must be the oracle's, byte for byte, failed step included.
func TestTraceMatchesReference(t *testing.T) {
	want, err := front.CheckReference(front.Figure3System(), front.Options{KeepFronts: true})
	if err != nil {
		t.Fatal(err)
	}
	status, out, _ := compcheck(t, "", "-example", "figure3", "-trace")
	if status != 1 || out != want.Trace() {
		t.Fatalf("status %d, trace:\n%s\nwant status 1 and the reference trace:\n%s", status, out, want.Trace())
	}
}

// TestRejectedFlagCombinations: an option that would be silently ignored
// is a usage error — status 2, one line on stderr, nothing on stdout.
func TestRejectedFlagCombinations(t *testing.T) {
	f3 := writeSystem(t, "f3.json", ctx.Figure3System())
	f4 := writeSystem(t, "f4.json", ctx.Figure4System())
	for name, args := range map[string][]string{
		"example with file": {"-example", "figure4", f3},
		"dot in batch":      {"-dot", f3, f4},
		"analyze in batch":  {"-analyze", "-parallel", "2", f3},
	} {
		status, out, errs := compcheck(t, "", args...)
		if status != 2 || out != "" || strings.Count(errs, "\n") != 1 || !strings.HasPrefix(errs, "compcheck: ") {
			t.Errorf("%s: status %d, stdout %q, stderr %q; want 2, nothing, one compcheck: line", name, status, out, errs)
		}
	}
}

// TestBatchAndStdin covers the two input paths the rejections sit between:
// a batch reports one line per file and the worst status, and a lone
// system arrives on stdin.
func TestBatchAndStdin(t *testing.T) {
	f3 := writeSystem(t, "f3.json", ctx.Figure3System())
	f4 := writeSystem(t, "f4.json", ctx.Figure4System())
	status, out, errs := compcheck(t, "", "-parallel", "2", f4, f3)
	if status != 1 || strings.Count(out, "\n") != 2 || errs != "" {
		t.Fatalf("batch: status %d, stdout %q, stderr %q; want 1 and two verdict lines", status, out, errs)
	}
	doc, err := os.ReadFile(f4)
	if err != nil {
		t.Fatal(err)
	}
	if status, out, _ := compcheck(t, string(doc)); status != 0 || !strings.Contains(out, "correct") {
		t.Fatalf("stdin: status %d, output %q; want 0 and a correct verdict", status, out)
	}
}
