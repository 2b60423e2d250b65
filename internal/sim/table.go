// Package sim is the experiment harness: it regenerates every artifact in
// the reproduction's experiment index (DESIGN.md §7, EXPERIMENTS.md) as a
// formatted table (E1–E17, listed by Experiments). cmd/compbench prints
// them; timings as measurements live in bench/ (bench/README.md).
package sim

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is one experiment artifact: a titled grid of rows.
type Table struct {
	ID     string // experiment id, e.g. "E4"
	Title  string
	Note   string // one-paragraph interpretation of the result
	Header []string
	Rows   [][]string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if w := utf8.RuneCountInString(c); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Note)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Experiment is one entry of the experiment index: its id and the
// constructor that runs it at compbench's sizing. A positive samples
// overrides the sample count of the statistical experiments (E3–E5, E8);
// the others ignore it.
type Experiment struct {
	ID  string
	Run func(samples int) *Table
}

// Experiments is the index in id order — what cmd/compbench iterates.
var Experiments = []Experiment{
	{"E1", func(int) *Table { return E1Figure3() }},
	{"E2", func(int) *Table { return E2Figure4() }},
	{"E3", func(n int) *Table { return E3Theorems(pick(n, 150)) }},
	{"E4", func(n int) *Table { return E4Containment(pick(n, 400)) }},
	{"E5", func(n int) *Table { return E5Commutativity(pick(n, 300)) }},
	{"E6", func(int) *Table { return E6Protocols(DefaultRunConfig()) }},
	{"E7", func(int) *Table { return E7CheckerScaling() }},
	{"E8", func(n int) *Table { return E8Coverage(pick(n, 12)) }},
	{"E9", func(int) *Table { return E9Deadlock(DefaultRunConfig()) }},
	{"E10", func(int) *Table { return E10Chaos(DefaultChaosConfig()) }},
	{"E11", func(int) *Table { return E11CrashMatrix(DefaultCrashConfig()) }},
	{"E12", func(int) *Table { return E12Incremental(DefaultRunConfig()) }},
	{"E13", func(int) *Table { return E13MVCC(DefaultMVCCConfig()) }},
	{"E14", func(int) *Table { return E14Checkpoint(DefaultCheckpointConfig()) }},
	{"E15", func(int) *Table { return E15NetChaos(DefaultNetChaosConfig()) }},
	{"E16", func(int) *Table { return E16DistThroughput(DefaultDistPerfConfig()) }},
	{"E17", func(int) *Table { return E17CertThroughput(DefaultCertPerfConfig()) }},
}

func pick(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}
