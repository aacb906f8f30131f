package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Params are the command-line overrides an experiment accepts. The zero
// value of every field but Seed means "the experiment's default".
type Params struct {
	Seed     uint64
	Requests int
	Workers  int
	// Users overrides the fig11/fig11raid stream counts.
	Users []int
	// Dilations overrides the calibrate sweep.
	Dilations []float64
}

// common holds the knobs every request-count sweep shares. The configs
// embed it, so they read cfg.Seed, cfg.Requests and cfg.Workers.
type common struct {
	Seed uint64
	// Requests is the request count per sweep point.
	Requests int
	// Workers bounds the parallel sweep cells (0 = GOMAXPROCS). The
	// results are identical for every worker count; see internal/runner.
	Workers int
}

// set applies the overrides of p.
func (c *common) set(p Params) {
	c.Seed, c.Workers = p.Seed, p.Workers
	if p.Requests > 0 {
		c.Requests = p.Requests
	}
}

// Experiment is one row of the Registry. Run executes it at the defaults
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
	{"table1", func(w io.Writer, _ Params) ([]*Result, error) { return nil, Table1(w) }},
	{"fig5", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultSFC1Config()
		cfg.set(p)
		return one(Fig5(cfg, nil))
	}},
	{"fig6", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultSFC1Config()
		cfg.set(p)
		return one(Fig6(cfg, nil, 0.05))
	}},
	{"fig7", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultSFC1Config()
		cfg.set(p)
		return two(Fig7(cfg, nil))
	}},
	{"fig8", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultSFC2Config()
		cfg.set(p)
		return two(Fig8(cfg, nil))
	}},
	{"fig9", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultSFC2Config()
		cfg.set(p)
		cfg.Service = 26_000 // overload so every scheduler must sacrifice
		return Fig9(cfg, 1)
	}},
	{"fig10", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultSFC3Config()
		cfg.set(p)
		return three(Fig10(cfg, nil))
	}},
	{"fig11", func(_ io.Writer, p Params) ([]*Result, error) { return one(Fig11(fig11Config(p))) }},
	{"fig11raid", func(_ io.Writer, p Params) ([]*Result, error) { return one(Fig11RAID(fig11Config(p))) }},
	{"faultsweep", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultFaultSweepConfig()
		cfg.set(p)
		return two(FaultSweep(cfg))
	}},
	{"divergence", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultDivergenceConfig()
		cfg.set(p)
		return two(Divergence(cfg))
	}},
	{"cluster", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultClusterConfig()
		cfg.set(p)
		return three(Cluster(cfg))
	}},
	{"replaydiff", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultReplayDiffConfig()
		cfg.set(p)
		return two(ReplayDiff(cfg))
	}},
	{"calibrate", func(_ io.Writer, p Params) ([]*Result, error) {
		cfg := DefaultCalibrateConfig()
		cfg.Seed = p.Seed
		if p.Requests > 0 {
			cfg.Requests = p.Requests
		}
		if len(p.Dilations) > 0 {
			cfg.Dilations = p.Dilations
		}
		return one(Calibrate(cfg))
	}},
	{"ablations", func(w io.Writer, p Params) ([]*Result, error) { return nil, Ablations(w, p.Seed, p.Workers) }},
}

func fig11Config(p Params) Fig11Config {
	cfg := DefaultFig11Config()
	cfg.Seed, cfg.Workers = p.Seed, p.Workers
	if len(p.Users) > 0 {
		cfg.Users = p.Users
	}
	return cfg
}

func one(r *Result, err error) ([]*Result, error)         { return []*Result{r}, err }
func two(a, b *Result, err error) ([]*Result, error)      { return []*Result{a, b}, err }
func three(a, b, c *Result, err error) ([]*Result, error) { return []*Result{a, b, c}, err }

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
		for _, r := range results {
			if asCSV {
				r.RenderCSV(w)
			} else {
				r.Render(w)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown experiment (known: %s)", strings.Join(All(), ", "))
}
