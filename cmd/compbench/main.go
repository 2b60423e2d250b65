// Command compbench regenerates every experiment artifact of the
// reproduction (E1–E17 in DESIGN.md §7 / EXPERIMENTS.md) as text tables.
//
// Usage:
//
//	compbench [-only E4] [-samples n]
//
// -only accepts a comma-separated list (e.g. -only E1,E2,E7). The tables
// reproduce verdicts and counts; the timing columns are one run on this
// machine — the repo's measurements are bench/ (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"compositetx/internal/sim"
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
			fmt.Fprintf(os.Stderr, "compbench: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "compbench: %v\n", err)
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
				fmt.Fprintf(os.Stderr, "compbench: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "compbench: %v\n", err)
			}
			f.Close()
		}
	}
}

func main() {
	only := flag.String("only", "", "run a subset of experiments, comma-separated (E1..E17)")
	samples := flag.Int("samples", 0, "override sample count for statistical experiments")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	run := sim.Experiments
	if *only != "" {
		run = nil
		for _, id := range strings.Split(*only, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if id == "" {
				continue
			}
			i := slices.IndexFunc(sim.Experiments, func(e sim.Experiment) bool { return e.ID == id })
			if i < 0 {
				fmt.Fprintf(os.Stderr, "compbench: unknown experiment %q\n", id)
				exit(2)
			}
			run = append(run, sim.Experiments[i])
		}
	}
	for _, e := range run {
		e.Run(*samples).Render(os.Stdout)
	}
}
