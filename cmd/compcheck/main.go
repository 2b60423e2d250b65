// Command compcheck decides composite correctness (Comp-C) of a recorded
// composite execution.
//
// Usage:
//
//	compcheck [-trace | -json] [-dot | -analyze] [-example name | file.json]
//	compcheck [-trace | -json] [-parallel n] file.json ...
//
// The input is a JSON system (see model's codec; produce one with
// (*System).Encode or by hand). With no file, stdin is read. The built-in
// paper examples are available via -example figure1|figure2|figure3|figure4.
// -json prints the verdict as JSON, -trace the full reduction trace; -dot
// prints the system as Graphviz DOT instead of checking it, and -analyze
// runs every applicable criterion, not just Comp-C.
//
// With several files (or -parallel other than 1), the systems are checked
// as one CheckBatch on a worker pool of the given size (-parallel 0 = one
// worker per CPU) and one verdict line is printed per file; -dot, -analyze
// and -example work on one system and are rejected there.
//
// Exit status: 0 correct, 1 incorrect, 2 invalid input or usage. With
// several files, the worst status across all inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	ctx "compositetx"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, reads stdin when no input is
// named, writes verdicts to stdout and diagnostics to stderr, and returns
// the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trace := fs.Bool("trace", false, "print the full reduction trace")
	jsonOut := fs.Bool("json", false, "print the verdict as JSON")
	dot := fs.Bool("dot", false, "print the system as Graphviz DOT instead of checking")
	analyze := fs.Bool("analyze", false, "run every applicable criterion, not just Comp-C")
	example := fs.String("example", "", "check a built-in paper example (figure1..figure4)")
	parallel := fs.Int("parallel", 1, "batch worker-pool size for multiple files (0 = one per CPU)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "compcheck: "+format+"\n", a...)
		return 2
	}

	files := fs.Args()
	if *example != "" && len(files) > 0 {
		return fail("-example %s takes no input file (got %s)", *example, files[0])
	}
	if len(files) > 1 || (*parallel != 1 && len(files) > 0) {
		switch {
		case *dot:
			return fail("-dot works on one system, not on a batch (several files or -parallel)")
		case *analyze:
			return fail("-analyze works on one system, not on a batch (several files or -parallel)")
		}
		return runBatch(files, *parallel, *trace, *jsonOut, stdout, stderr)
	}

	sys, err := load(*example, fs.Arg(0), stdin)
	if err != nil {
		return fail("%v", err)
	}
	if *dot {
		if err := sys.DOT(stdout); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	if err := sys.Validate(); err != nil {
		return fail("invalid composite system:\n%v", err)
	}
	if *analyze {
		rep, err := ctx.Classify(sys, nil)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprint(stdout, rep)
		if !rep.CompC {
			return 1
		}
		return 0
	}
	v, err := ctx.Check(sys, ctx.CheckOptions{KeepFronts: *trace})
	if err != nil {
		return fail("%v", err)
	}
	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			return fail("%v", err)
		}
	case *trace:
		fmt.Fprint(stdout, v.Trace())
	default:
		fmt.Fprintln(stdout, v)
	}
	if !v.Correct {
		return 1
	}
	return 0
}

// runBatch checks every file as one CheckBatch and prints a verdict line
// per input; it returns the worst exit status seen.
func runBatch(paths []string, parallelism int, trace, jsonOut bool, stdout, stderr io.Writer) int {
	systems := make([]*ctx.System, len(paths))
	status := 0
	for i, path := range paths {
		sys, err := loadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "compcheck: %s: %v\n", path, err)
			status = 2
			continue // leaves a nil slot: CheckBatch reports it, we skip it
		}
		if err := sys.Validate(); err != nil {
			fmt.Fprintf(stderr, "compcheck: %s: invalid composite system:\n%v\n", path, err)
			status = 2
			continue
		}
		systems[i] = sys
	}
	results := ctx.CheckBatch(systems, parallelism, ctx.CheckOptions{KeepFronts: trace})
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	for i, r := range results {
		if systems[i] == nil {
			continue // load error already reported
		}
		switch {
		case r.Err != nil:
			fmt.Fprintf(stderr, "compcheck: %s: %v\n", paths[i], r.Err)
			status = 2
			continue
		case jsonOut:
			fmt.Fprintf(stdout, "%s:\n", paths[i])
			if err := enc.Encode(r.Verdict); err != nil {
				fmt.Fprintf(stderr, "compcheck: %v\n", err)
				return 2
			}
		case trace:
			fmt.Fprintf(stdout, "%s:\n%s", paths[i], r.Verdict.Trace())
		default:
			fmt.Fprintf(stdout, "%s: %v\n", paths[i], r.Verdict)
		}
		if !r.Verdict.Correct && status == 0 {
			status = 1
		}
	}
	return status
}

func load(example, path string, stdin io.Reader) (*ctx.System, error) {
	switch example {
	case "figure1":
		return ctx.Figure1System(), nil
	case "figure2":
		return ctx.Figure2System(), nil
	case "figure3":
		return ctx.Figure3System(), nil
	case "figure4":
		return ctx.Figure4System(), nil
	case "":
	default:
		return nil, fmt.Errorf("unknown example %q", example)
	}
	if path != "" {
		return loadFile(path)
	}
	return ctx.DecodeSystem(stdin)
}

func loadFile(path string) (*ctx.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ctx.DecodeSystem(f)
}
