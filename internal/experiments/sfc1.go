package experiments

import (
	"fmt"
	"io"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/stats"
	"sfcsched/internal/workload"
)

// The stage-1 parameters of Figs. 5-7 (paper §5.1): relaxed deadlines and
// transfer-dominated service, so SFC2 and SFC3 are skipped and the
// priority curve is evaluated in isolation.
const (
	stage1Levels = 16
	// stage1Interarrival is the Poisson mean, µs (paper: 25 ms).
	stage1Interarrival = 25_000
	// stage1Service is the constant transfer-dominated service time, µs.
	// The paper holds it implicit; near the interarrival mean keeps a live
	// queue without unbounded growth.
	stage1Service = 24_000
)

// stage1 is one stage-1 workload: Figs. 5 and 7 run at four dimensions,
// Fig. 6 sweeps them.
type stage1 struct {
	Params
	dims int
}

func newStage1(p Params, dims int) stage1 { return stage1{p.sized(4000), dims} }

// trace generates the experiment's workload.
func (c stage1) trace() ([]*core.Request, error) {
	return workload.Open{
		Seed:             c.Seed,
		Count:            c.Requests,
		MeanInterarrival: stage1Interarrival,
		Dims:             c.dims,
		Levels:           stage1Levels,
	}.Generate()
}

// simConfig is the stage-1 simulation configuration for scheduler s.
func (c stage1) simConfig(s sched.Scheduler) sim.Config {
	return sim.Config{
		Scheduler:    s,
		FixedService: stage1Service,
		Options:      sim.Options{Dims: c.dims, Levels: stage1Levels},
	}
}

// fifo runs the FIFO baseline every stage-1 figure normalizes by. The
// result is freshly allocated and stays valid while the cells read it
// (unlike runReused's).
func (c stage1) fifo(trace []*core.Request) (*sim.Result, error) {
	return sim.Run(c.simConfig(sched.NewFCFS()), trace)
}

// scheduler builds the Cascaded-SFC scheduler reduced to SFC1 only.
func (c stage1) scheduler(curve string, windowFrac float64) (*core.Scheduler, error) {
	cv, err := sfc.New(curve, c.dims, stage1Levels)
	if err != nil {
		return nil, err
	}
	return core.NewScheduler(
		fmt.Sprintf("%s-w%.0f%%", curve, windowFrac*100),
		core.EncapsulatorConfig{Curve1: cv, Levels: stage1Levels},
		core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true},
		windowFrac,
	)
}

// cell runs one (curve, window) grid cell over trace, with its own
// scheduler and pooled per-run state, and returns what extract reads.
func (c stage1) cell(curve string, windowFrac float64, trace []*core.Request, extract func(*sim.Result) []float64) ([]float64, error) {
	s, err := c.scheduler(curve, windowFrac)
	if err != nil {
		return nil, err
	}
	return runCell(c.simConfig(s), trace, extract)
}

// note records the workload in the figures' notes.
func (c stage1) note() string {
	return fmt.Sprintf("dims=%d levels=%d interarrival=%dus service=%dus requests=%d",
		c.dims, stage1Levels, stage1Interarrival, stage1Service, c.Requests)
}

// inversionsPct extracts total priority inversions as a percentage of base.
func inversionsPct(base float64) func(*sim.Result) []float64 {
	return func(r *sim.Result) []float64 { return []float64{percent(float64(r.TotalInversions()), base)} }
}

// windowsPct is the x-axis of Figs. 5 and 7: blocking-window sizes, % of
// the value space.
var windowsPct = []float64{0, 1, 2, 5, 10, 20, 40, 60, 80, 100}

// fig5 measures total priority inversion (as % of FIFO) against the
// blocking-window size for each of the paper's seven curves.
func fig5(_ io.Writer, p Params) ([]*Result, error) {
	c := newStage1(p, 4)
	trace, err := c.trace()
	if err != nil {
		return nil, err
	}
	fifo, err := c.fifo(trace)
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
		Notes:  []string{c.note(), fmt.Sprintf("FIFO baseline inversions: %.0f", base)},
	}
	curves := sfc.PaperNames()
	return []*Result{res}, sweep(c.Workers, curves, func(x, s int) ([]float64, error) {
		return c.cell(curves[s], windowsPct[x]/100, trace, inversionsPct(base))
	}, res)
}

// fig6 measures total priority inversion (% of FIFO) as the number of QoS
// dimensions grows, at a 5% window — the scalability claim.
func fig6(_ io.Writer, p Params) ([]*Result, error) {
	const window = 0.05
	dims := []float64{1, 2, 3, 4, 6, 8, 10, 12}
	p = p.sized(4000)
	res := &Result{
		ID:     "fig6",
		Title:  "Scalability: priority inversion vs number of dimensions",
		XLabel: "dims",
		YLabel: "total priority inversions, % of FIFO",
		X:      dims,
		Notes: []string{
			fmt.Sprintf("levels=%d window=%.0f%% interarrival=%dus service=%dus requests=%d",
				stage1Levels, window*100, stage1Interarrival, stage1Service, p.Requests),
		},
	}
	// Each dimension count has its own workload and FIFO baseline,
	// prepared up front and then shared read-only by the cells of that
	// point.
	cs := make([]stage1, len(dims))
	traces := make([][]*core.Request, len(dims))
	bases := make([]float64, len(dims))
	for i, d := range dims {
		cs[i] = newStage1(p, int(d))
		var err error
		if traces[i], err = cs[i].trace(); err != nil {
			return nil, err
		}
		fifo, err := cs[i].fifo(traces[i])
		if err != nil {
			return nil, err
		}
		bases[i] = float64(fifo.TotalInversions())
	}
	curves := sfc.PaperNames()
	return []*Result{res}, sweep(p.Workers, curves, func(x, s int) ([]float64, error) {
		return cs[x].cell(curves[s], window, traces[x], inversionsPct(bases[x]))
	}, res)
}

// fig7 measures fairness: (a) the standard deviation of the per-dimension
// inversion percentages and (b) the most favored dimension's inversion
// percentage, both against window size.
func fig7(_ io.Writer, p Params) ([]*Result, error) {
	c := newStage1(p, 4)
	trace, err := c.trace()
	if err != nil {
		return nil, err
	}
	fifo, err := c.fifo(trace)
	if err != nil {
		return nil, err
	}
	a := &Result{
		ID: "fig7a", Title: "Fairness: stddev of per-dimension inversion (% of FIFO)",
		XLabel: "window%", YLabel: "stddev of per-dimension inversion percentages",
		X: windowsPct, Notes: []string{c.note()},
	}
	b := &Result{
		ID: "fig7b", Title: "Favored dimension: lowest per-dimension inversion (% of FIFO)",
		XLabel: "window%", YLabel: "favored dimension inversion percentage",
		X: windowsPct, Notes: []string{c.note()},
	}
	curves := sfc.PaperNames()
	return []*Result{a, b}, sweep(c.Workers, curves, func(x, s int) ([]float64, error) {
		return c.cell(curves[s], windowsPct[x]/100, trace, func(r *sim.Result) []float64 {
			pcts := make([]float64, c.dims)
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
