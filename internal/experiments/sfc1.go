package experiments

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/stats"
	"sfcsched/internal/workload"
)

// SFC1Config drives the stage-1 experiments (Figs. 5-7): relaxed deadlines
// and transfer-dominated service, so SFC2 and SFC3 are skipped and the
// priority curve is evaluated in isolation (paper §5.1).
type SFC1Config struct {
	common
	Dims   int
	Levels int
	// MeanInterarrival is the Poisson mean, µs (paper: 25 ms).
	MeanInterarrival int64
	// Service is the constant transfer-dominated service time, µs. The
	// paper holds it implicit; near the interarrival mean keeps a live
	// queue without unbounded growth.
	Service int64
}

// DefaultSFC1Config returns the §5.1 parameters.
func DefaultSFC1Config() SFC1Config {
	return SFC1Config{
		common:           common{Seed: 1, Requests: 4000},
		Dims:             4,
		Levels:           16,
		MeanInterarrival: 25_000,
		Service:          24_000,
	}
}

// trace generates the experiment's workload.
func (c SFC1Config) trace() ([]*core.Request, error) {
	return workload.Open{
		Seed:             c.Seed,
		Count:            c.Requests,
		MeanInterarrival: c.MeanInterarrival,
		Dims:             c.Dims,
		Levels:           c.Levels,
	}.Generate()
}

// simConfig is the stage-1 simulation configuration for scheduler s.
func (c SFC1Config) simConfig(s sched.Scheduler) sim.Config {
	return sim.Config{
		Scheduler:    s,
		FixedService: c.Service,
		Options:      sim.Options{Dims: c.Dims, Levels: c.Levels, Seed: c.Seed},
	}
}

// fifo runs the FIFO baseline every stage-1 figure normalizes by. The
// result is freshly allocated and stays valid while the cells read it
// (unlike runReused's).
func (c SFC1Config) fifo(trace []*core.Request) (*sim.Result, error) {
	return sim.Run(c.simConfig(sched.NewFCFS()), trace)
}

// scheduler builds the Cascaded-SFC scheduler reduced to SFC1 only.
func (c SFC1Config) scheduler(curve string, windowFrac float64) (*core.Scheduler, error) {
	cv, err := sfc.New(curve, c.Dims, uint32(c.Levels))
	if err != nil {
		return nil, err
	}
	return core.NewScheduler(
		fmt.Sprintf("%s-w%.0f%%", curve, windowFrac*100),
		core.EncapsulatorConfig{Curve1: cv, Levels: c.Levels},
		core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true},
		windowFrac,
	)
}

// cell runs one (curve, window) grid cell over trace, with its own
// scheduler and pooled per-run state, and returns what extract reads.
func (c SFC1Config) cell(curve string, windowFrac float64, trace []*core.Request, extract func(*sim.Result) []float64) ([]float64, error) {
	s, err := c.scheduler(curve, windowFrac)
	if err != nil {
		return nil, err
	}
	return runCell(c.simConfig(s), trace, extract)
}

// inversionsPct extracts total priority inversions as a percentage of base.
func inversionsPct(base float64) func(*sim.Result) []float64 {
	return func(r *sim.Result) []float64 { return []float64{percent(float64(r.TotalInversions()), base)} }
}

var defaultWindowsPct = []float64{0, 1, 2, 5, 10, 20, 40, 60, 80, 100}

// Fig5 measures total priority inversion (as % of FIFO) against the
// blocking-window size for each of the paper's seven curves.
func Fig5(cfg SFC1Config, windowsPct []float64) (*Result, error) {
	if len(windowsPct) == 0 {
		windowsPct = defaultWindowsPct
	}
	trace, err := cfg.trace()
	if err != nil {
		return nil, err
	}
	fifo, err := cfg.fifo(trace)
	if err != nil {
		return nil, err
	}
	base := float64(fifo.TotalInversions())
	res := &Result{
		ID:     "fig5",
		Title:  "Priority inversion vs window size (percent of FIFO)",
		XLabel: "window%",
		YLabel: "total priority inversions, % of FIFO",
		X:      windowsPct,
		Notes: []string{
			fmt.Sprintf("dims=%d levels=%d interarrival=%dus service=%dus requests=%d",
				cfg.Dims, cfg.Levels, cfg.MeanInterarrival, cfg.Service, cfg.Requests),
			fmt.Sprintf("FIFO baseline inversions: %.0f", base),
		},
	}
	curves := sfc.PaperNames()
	return res, sweep(cfg.Workers, curves, func(x, s int) ([]float64, error) {
		return cfg.cell(curves[s], windowsPct[x]/100, trace, inversionsPct(base))
	}, res)
}

// Fig6 measures total priority inversion (% of FIFO) as the number of QoS
// dimensions grows — the scalability claim.
func Fig6(cfg SFC1Config, dims []float64, windowFrac float64) (*Result, error) {
	if len(dims) == 0 {
		dims = []float64{1, 2, 3, 4, 6, 8, 10, 12}
	}
	if windowFrac == 0 {
		windowFrac = 0.05
	}
	res := &Result{
		ID:     "fig6",
		Title:  "Scalability: priority inversion vs number of dimensions",
		XLabel: "dims",
		YLabel: "total priority inversions, % of FIFO",
		X:      dims,
		Notes: []string{
			fmt.Sprintf("levels=%d window=%.0f%% interarrival=%dus service=%dus requests=%d",
				cfg.Levels, windowFrac*100, cfg.MeanInterarrival, cfg.Service, cfg.Requests),
		},
	}
	// Each dimension count has its own workload and FIFO baseline,
	// prepared up front and then shared read-only by the cells of that
	// point.
	cfgs := make([]SFC1Config, len(dims))
	traces := make([][]*core.Request, len(dims))
	bases := make([]float64, len(dims))
	for i, d := range dims {
		cfgs[i] = cfg
		cfgs[i].Dims = int(d)
		var err error
		if traces[i], err = cfgs[i].trace(); err != nil {
			return nil, err
		}
		fifo, err := cfgs[i].fifo(traces[i])
		if err != nil {
			return nil, err
		}
		bases[i] = float64(fifo.TotalInversions())
	}
	curves := sfc.PaperNames()
	return res, sweep(cfg.Workers, curves, func(x, s int) ([]float64, error) {
		return cfgs[x].cell(curves[s], windowFrac, traces[x], inversionsPct(bases[x]))
	}, res)
}

// Fig7 measures fairness: (a) the standard deviation of the per-dimension
// inversion percentages and (b) the most favored dimension's inversion
// percentage, both against window size. The two sub-figures are returned
// separately.
func Fig7(cfg SFC1Config, windowsPct []float64) (a, b *Result, err error) {
	if len(windowsPct) == 0 {
		windowsPct = defaultWindowsPct
	}
	trace, err := cfg.trace()
	if err != nil {
		return nil, nil, err
	}
	fifo, err := cfg.fifo(trace)
	if err != nil {
		return nil, nil, err
	}
	note := fmt.Sprintf("dims=%d levels=%d interarrival=%dus service=%dus requests=%d",
		cfg.Dims, cfg.Levels, cfg.MeanInterarrival, cfg.Service, cfg.Requests)
	a = &Result{
		ID: "fig7a", Title: "Fairness: stddev of per-dimension inversion (% of FIFO)",
		XLabel: "window%", YLabel: "stddev of per-dimension inversion percentages",
		X: windowsPct, Notes: []string{note},
	}
	b = &Result{
		ID: "fig7b", Title: "Favored dimension: lowest per-dimension inversion (% of FIFO)",
		XLabel: "window%", YLabel: "favored dimension inversion percentage",
		X: windowsPct, Notes: []string{note},
	}
	curves := sfc.PaperNames()
	return a, b, sweep(cfg.Workers, curves, func(x, s int) ([]float64, error) {
		return cfg.cell(curves[s], windowsPct[x]/100, trace, func(r *sim.Result) []float64 {
			pcts := make([]float64, cfg.Dims)
			fav := -1.0
			for k := range pcts {
				pcts[k] = percent(float64(r.InversionsPerDim[k]), float64(fifo.InversionsPerDim[k]))
				if fav < 0 || pcts[k] < fav {
					fav = pcts[k]
				}
			}
			return []float64{stddev(pcts), fav}
		})
	}, a, b)
}

func stddev(vs []float64) float64 {
	_, sd := stats.MeanStdDev(vs)
	return sd
}
