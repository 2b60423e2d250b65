package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runOnce runs one workload in a child process of this same binary and
// returns the metrics of its JSON line.
func runOnce(workload string, seed int64, seconds int, scratch string) (*jsonResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0", "--scratch", scratch)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not the result: %w", workload, seed, err)
	}
	return &res, nil
}

// runSelfcheck runs two interleaved sets of k runs per workload (run i of
// both sets uses seed+i) and prints, for every workload x end-to-end
// metric, both set medians, how much worse the second is than the first,
// the spread of the single runs and the declared bound. It gates on what
// the acceptance protocol gates on: every difference within its bound,
// every quartile spread but setup_s's within its bound, no failed
// operation. (max-min)/median is printed beside the quartile spread for
// information: the reference box moves a pure spin loop by more than the
// 10 % ISSUE 12 wanted it held to (README.md, "Bounds and -selfcheck").
func runSelfcheck(w io.Writer, only string, seed int64, seconds, k int, scratch string) bool {
	fmt.Fprintf(w, "selfcheck: 2 interleaved sets of %d runs, seeds %d..%d, --seconds %d\n", k, seed, seed+int64(k)-1, seconds)
	fmt.Fprintf(w, "env: %s\n", stampEnv("."))
	fmt.Fprintf(w, "%-22s %-18s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B worse", "spread", "IQR/med", "bound", "")
	ok := true
	for _, def := range workloads {
		if only != "" && def.name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		failed := 0
		for i := 0; i < k; i++ {
			for s := range sets {
				res, err := runOnce(def.name, seed+int64(i), seconds, scratch)
				if err != nil {
					fmt.Fprintf(w, "%-22s run failed: %v\n", def.name, err)
					return false
				}
				failed += res.Failed
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range endToEndDecl {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			all := append(append([]float64(nil), a...), b...)
			lo, hi := minMax(all)
			spread, iqr := (hi-lo)/median(all), quartileSpread(all)
			verdict := ""
			if worse > d.bound {
				verdict = "DIFFERENCE EXCEEDS BOUND"
				ok = false
			}
			// A set-up is a second long; the acceptance protocol exempts its
			// spread. Its medians still have to agree.
			if iqr > d.bound && d.name != "setup_s" {
				verdict += " SPREAD EXCEEDS BOUND"
				ok = false
			}
			fmt.Fprintf(w, "%-22s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				def.name, d.name, ma, mb, 100*worse, 100*spread, 100*iqr, 100*d.bound, verdict)
		}
		if failed > 0 {
			fmt.Fprintf(w, "%-22s %d operations failed\n", def.name, failed)
			ok = false
		}
	}
	if ok {
		fmt.Fprintln(w, "selfcheck: PASS")
	} else {
		fmt.Fprintln(w, "selfcheck: FAIL")
	}
	return ok
}
