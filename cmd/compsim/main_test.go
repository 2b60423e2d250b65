package main

import (
	"bytes"
	"strings"
	"testing"
)

// compsim runs the command in-process and returns its exit status and
// both output streams.
func compsim(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	var out, errs bytes.Buffer
	status = run(args, &out, &errs)
	return status, out.String(), errs.String()
}

// TestRejectedFlagCombinations: a flag the chosen kind of run never reads
// is a usage error that names it, not a silent no-op.
func TestRejectedFlagCombinations(t *testing.T) {
	cases := [][]string{
		{"-distributed", "-certify"},
		{"-distributed", "-checkpoint-every", "5"},
		{"-distributed", "-optimistic"},
		{"-distributed", "-faults", "apply=0.01"},
		{"-distributed", "-wal", t.TempDir(), "-crash", "T1:commit"},
		{"-distributed", "-crash-tear"},
		{"-distributed", "-deadlock", "detect-wfg"},
		{"-distributed", "-op-timeout", "5ms"},
		{"-transport", "tcp"},
		{"-rpc-timeout", "1s"},
		{"-net-faults", "drop=0.1"},
		{"-wal", t.TempDir(), "-dist-crash", "T1:coord-pre-decision"},
		{"-group-commit"},
	}
	for _, args := range cases {
		status, out, errs := compsim(t, append([]string{"-roots", "4"}, args...)...)
		flagName := args[len(args)-1]
		if !strings.HasPrefix(flagName, "-") {
			flagName = args[len(args)-2]
		}
		if status != 2 || out != "" || !strings.Contains(errs, flagName) {
			t.Errorf("%v: status %d, stdout %q, stderr %q; want 2, nothing, and a line naming %s",
				args, status, out, errs, flagName)
		}
	}
}

func TestCertifiedRunIsCorrect(t *testing.T) {
	status, out, errs := compsim(t, "-topology", "diamond", "-protocol", "open-nested", "-certify", "-roots", "60")
	if status != 0 || !strings.Contains(out, "Comp-C: correct") {
		t.Fatalf("status %d, stdout:\n%s\nstderr:\n%s\nwant 0 and a correct verdict", status, out, errs)
	}
}

// TestCrashThenRecover: a crash trigger exits 3 with the log intact, and
// -recover on that log re-verifies the committed prefix.
func TestCrashThenRecover(t *testing.T) {
	dir := t.TempDir()
	status, out, errs := compsim(t, "-roots", "40", "-clients", "4", "-wal", dir, "-crash", "T13:commit")
	if status != 3 || !strings.Contains(out, "recover with: compsim -recover "+dir) {
		t.Fatalf("crash run: status %d, stdout:\n%s\nstderr:\n%s\nwant 3 and a recover hint", status, out, errs)
	}
	status, out, errs = compsim(t, "-recover", dir)
	if status != 0 || !strings.Contains(out, "recovered execution: Comp-C: correct") {
		t.Fatalf("recover: status %d, stdout:\n%s\nstderr:\n%s\nwant 0 and a correct verdict", status, out, errs)
	}
}
