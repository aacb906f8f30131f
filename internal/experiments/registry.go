package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Params are the command-line overrides an experiment accepts. The zero
// value of every field but Seed means "the experiment's default".
type Params struct {
	Seed uint64
	// Requests is the request count per sweep point.
	Requests int
	// Workers bounds the parallel sweep cells (0 = GOMAXPROCS). The
	// results are identical for every worker count; see internal/runner.
	Workers int
	// Users overrides the fig11/fig11raid stream counts.
	Users []int
	// Dilations overrides the calibrate sweep.
	Dilations []float64
}

// sized returns p with Requests set to n, the experiment's default,
// unless p overrides it.
func (p Params) sized(n int) Params {
	if p.Requests <= 0 {
		p.Requests = n
	}
	return p
}

// Experiment is one row of the Registry. Run executes it at its defaults
// overridden by p; a figure returns its results for Run (the function) to
// render, a text table prints itself to w and returns none.
type Experiment struct {
	ID  string
	Run func(w io.Writer, p Params) ([]*Result, error)
}

// Registry lists every experiment in paper order, then the sweeps later
// PRs added: fig11raid is §6 on the full RAID-5 array at the paper's
// unscaled bit rate, faultsweep the robustness sweep over transient fault
// rates on the degraded array, divergence the counterfactual
// shadow-scheduler sweep, calibrate the sim-vs-live serving-path scoring
// (wall-clock measurement — the one non-deterministic row), ablations the
// design-choice tables of DESIGN.md §6. Adding an experiment is one
// function and one row here.
var Registry = []Experiment{
	{"table1", table1},
	{"fig5", fig5},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig9", fig9},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig11raid", fig11RAID},
	{"faultsweep", faultSweep},
	{"divergence", divergence},
	{"cluster", clusterSweep},
	{"replaydiff", replayDiff},
	{"calibrate", calibrate},
	{"ablations", ablations},
}

// All lists the Registry's experiment IDs in order.
func All() []string {
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	return ids
}

// Run executes experiment id with p and renders its results to w, as CSV
// or as aligned text tables.
func Run(w io.Writer, id string, p Params, asCSV bool) error {
	for _, e := range Registry {
		if e.ID != id {
			continue
		}
		results, err := e.Run(w, p)
		if err != nil {
			return err
		}
		render(w, results, asCSV)
		return nil
	}
	return fmt.Errorf("unknown experiment (known: %s)", strings.Join(All(), ", "))
}

// render writes results to w as CSV or as aligned text tables.
func render(w io.Writer, results []*Result, asCSV bool) {
	for _, r := range results {
		if asCSV {
			r.RenderCSV(w)
		} else {
			r.Render(w)
		}
	}
}
