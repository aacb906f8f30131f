// Package experiments reproduces every table and figure of the paper's
// evaluation (§5 Performance Analysis, §6 Practical Considerations):
//
//	Table 1  — disk model parameters           (table1)
//	Fig. 5   — priority inversion vs window    (fig5)
//	Fig. 6   — scalability vs dimensionality   (fig6)
//	Fig. 7   — fairness across dimensions      (fig7)
//	Fig. 8   — deadline/priority balance (f)   (fig8)
//	Fig. 9   — selectivity of deadline misses  (fig9)
//	Fig. 10  — seek optimization (R)           (fig10)
//	Fig. 11  — §6 aggregate weighted losses    (fig11)
//
// Each experiment returns Results holding labeled series that
// cmd/schedbench renders as text tables or CSV. Absolute values differ from
// the paper (different hardware era, simulated substrate); the claims under
// test are the *shapes*: who wins, by what rough factor, and where the
// crossovers sit. EXPERIMENTS.md records paper-vs-measured for each.
//
// The package has one grid and one table. A figure is an x-axis × series
// grid of independent simulation runs: its function prepares what the
// cells share read-only (traces, baselines, the disk model) and hands the
// grid to sweep (sweep.go), the only place cells are fanned out over the
// worker pool and transposed into series — so Workers means the same thing
// in every experiment and never changes a byte of output. Registry
// (registry.go) is the only list of experiments; schedbench's -exp help,
// -exp all and the golden test range over it.
//
// Every row has one size, its default, and that output is the evaluation:
// testdata/<id>.csv holds it, EXPERIMENTS.md quotes it, and the shape tests
// check the paper's claims against it. Adding an experiment is one function
// and one Registry row; `make goldens` then records testdata/<id>.csv and
// rewrites the EXPERIMENTS.md tables.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Series is one labeled line of an experiment plot.
type Series struct {
	Name string
	Y    []float64
}

// Result is a rendered experiment: a shared X axis and one or more series.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
	// Notes documents parameter substitutions and measurement caveats.
	Notes []string
}

// AddSeries appends a series, enforcing length consistency with X.
func (r *Result) AddSeries(name string, y []float64) error {
	if len(y) != len(r.X) {
		return fmt.Errorf("experiments: series %q has %d points, x-axis has %d", name, len(y), len(r.X))
	}
	r.Series = append(r.Series, Series{Name: name, Y: y})
	return nil
}

// RenderCSV writes the result as a CSV table: a comment header line with
// the experiment id and title, then the x column followed by one column
// per series.
func (r *Result) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", r.ID, r.Title)
	header := []string{r.XLabel}
	for _, s := range r.Series {
		header = append(header, s.Name)
	}
	fmt.Fprintln(w, strings.Join(header, ","))
	for i := range r.X {
		row := []string{formatNum(r.X[i])}
		for _, s := range r.Series {
			row = append(row, formatNum(s.Y[i]))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	fmt.Fprintln(w)
}

// Render writes the result as an aligned text table.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if r.YLabel != "" {
		fmt.Fprintf(w, "   y: %s\n", r.YLabel)
	}
	header := make([]string, 0, len(r.Series)+1)
	header = append(header, r.XLabel)
	for _, s := range r.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for i := range r.X {
		row := []string{formatNum(r.X[i])}
		for _, s := range r.Series {
			row = append(row, formatNum(s.Y[i]))
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// formatNum renders a float compactly.
func formatNum(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e9 && v > -1e9:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// writeAligned prints rows as space-padded columns.
func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		b.WriteString("   ")
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			b.WriteString(cell)
		}
		fmt.Fprintln(w, b.String())
	}
}

// percent returns 100*num/den, or 0 when den is zero.
func percent(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// ratio returns num/den, or 0 when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
