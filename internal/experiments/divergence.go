package experiments

import (
	"fmt"

	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// DivergenceConfig drives the counterfactual-divergence experiment: the
// cascaded SFC scheduler serves a single disk while shadow schedulers ride
// the same arrival stream, and the offered load sweeps. The shadows answer
// the operational question behind the observability layer — how different
// would the dispatch sequence be under another policy, and how much head
// travel would it cost — without running separate simulations per policy.
type DivergenceConfig struct {
	common
	// Interarrivals lists the mean arrival gaps to sweep, µs (the x-axis
	// renders as offered load in req/s).
	Interarrivals []int64
	// Levels is the number of priority levels.
	Levels int
	// DeadlineMin/Max bound the relative deadlines, µs.
	DeadlineMin int64
	DeadlineMax int64
}

// DefaultDivergenceConfig sweeps from a lightly loaded disk (queues mostly
// empty, policies agree trivially) into saturation (deep queues, policy
// choices diverge hard).
func DefaultDivergenceConfig() DivergenceConfig {
	return DivergenceConfig{
		common:        common{Seed: 1, Requests: 3000},
		Interarrivals: []int64{24_000, 16_000, 12_000, 9_000, 7_000},
		Levels:        8,
		DeadlineMin:   300_000,
		DeadlineMax:   700_000,
	}
}

// divergenceShadows lists the counterfactual policies ridden against the
// cascaded primary: the paper's strongest baseline, the naive baseline,
// and the cascaded scheduler itself with a 4x wider blocking window (the
// knob §5.1 sweeps).
func divergenceShadows(levels int, horizon int64) []policy {
	return []policy{
		scanEDFPolicy,
		fcfsPolicy,
		{"cascaded-w20", func() (sched.Scheduler, error) { return planeCascade(levels, horizon, 0.20) }},
	}
}

// Divergence sweeps offered load and reports, per shadow policy, the
// choice-disagreement rate against the cascaded primary and the
// counterfactual head-travel delta. Deterministic: the same config renders
// the same CSV for any worker count.
func Divergence(cfg DivergenceConfig) (*Result, *Result, error) {
	if len(cfg.Interarrivals) == 0 {
		cfg.Interarrivals = DefaultDivergenceConfig().Interarrivals
	}
	model, err := xp32150()
	if err != nil {
		return nil, nil, err
	}
	shadows := divergenceShadows(cfg.Levels, cfg.DeadlineMax)
	x := loadAxis(cfg.Interarrivals)
	notes := []string{
		fmt.Sprintf("primary: cascaded hilbert (deadline, priority), window 5%%; %d requests per point, deadlines [%d,%d]ms",
			cfg.Requests, cfg.DeadlineMin/1000, cfg.DeadlineMax/1000),
		"shadows ride the primary's arrival stream and answer per-decision; they never perturb the run",
		"travel delta = 100*(shadow head travel - primary)/primary; negative means the shadow would seek less",
	}
	disagree := &Result{
		ID:     "divergence",
		Title:  "Shadow-scheduler choice disagreement vs offered load",
		XLabel: "load (req/s)",
		YLabel: "decisions disagreeing with the cascaded primary (%)",
		X:      x,
		Notes:  notes,
	}
	travel := &Result{
		ID:     "divergence",
		Title:  "Counterfactual head-travel delta vs offered load",
		XLabel: "load (req/s)",
		YLabel: "shadow head travel vs primary (%)",
		X:      x,
	}

	// One run per load point answers every shadow at once, so the runs fan
	// out here, x by x, and sweep only unpacks them into series.
	runs, err := runner.Map(cfg.Workers, len(x), func(i int) ([][]float64, error) {
		trace, err := workload.Open{
			Seed:             cfg.Seed,
			Count:            cfg.Requests,
			MeanInterarrival: cfg.Interarrivals[i],
			Dims:             1,
			Levels:           cfg.Levels,
			DeadlineMin:      cfg.DeadlineMin,
			DeadlineMax:      cfg.DeadlineMax,
			Cylinders:        model.Cylinders,
			SizeMin:          4 << 10,
			SizeMax:          128 << 10,
		}.Generate()
		if err != nil {
			return nil, err
		}
		primary, err := planeCascade(cfg.Levels, cfg.DeadlineMax, 0.05)
		if err != nil {
			return nil, err
		}
		shs := make([]*sim.Shadow, len(shadows))
		for j, p := range shadows {
			s, err := p.build()
			if err != nil {
				return nil, err
			}
			shs[j] = sim.NewShadow(p.name, s)
		}
		out := make([][]float64, len(shadows))
		err = runReused(sim.Config{
			Disk: model, Scheduler: primary,
			Options: sim.Options{
				DropLate: true, Dims: 1, Levels: cfg.Levels,
				Seed: cfg.Seed, Shadows: shs,
			},
		}, trace, func(res *sim.Result) error {
			for j, rep := range res.Shadows {
				out[j] = []float64{
					100 * rep.DisagreementRate(),
					percent(float64(rep.HeadTravel-res.HeadTravel), float64(res.HeadTravel)),
				}
			}
			return nil
		})
		return out, err
	})
	if err != nil {
		return nil, nil, err
	}
	return disagree, travel, sweep(1, policyNames(shadows), func(x, s int) ([]float64, error) {
		return runs[x][s], nil
	}, disagree, travel)
}
