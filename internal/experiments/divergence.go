package experiments

import (
	"fmt"
	"io"

	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// The counterfactual-divergence parameters: the cascaded SFC scheduler
// serves a single disk while shadow schedulers ride the same arrival
// stream, and the offered load sweeps. The shadows answer the operational
// question behind the observability layer — how different would the
// dispatch sequence be under another policy, and how much head travel
// would it cost — without running separate simulations per policy.
const (
	divergenceLevels      = 8
	divergenceDeadlineMin = 300_000
	divergenceDeadlineMax = 700_000
)

// divergenceInterarrivals are the mean arrival gaps swept, µs (the x-axis
// renders as offered load in req/s): from a lightly loaded disk (queues
// mostly empty, policies agree trivially) into saturation (deep queues,
// policy choices diverge hard).
var divergenceInterarrivals = []int64{24_000, 16_000, 12_000, 9_000, 7_000}

// divergenceShadows lists the counterfactual policies ridden against the
// cascaded primary: the paper's strongest baseline, the naive baseline,
// and the cascaded scheduler itself with a 4x wider blocking window (the
// knob §5.1 sweeps).
var divergenceShadows = []policy{
	baseline("scan-edf"),
	baseline("fcfs"),
	{"cascaded-w20", func() (sched.Scheduler, error) {
		return planeCascade(divergenceLevels, divergenceDeadlineMax, 0.20)
	}},
}

// divergencePrimary builds the cascaded primary, at a 5% window.
func divergencePrimary() (sched.Scheduler, error) {
	return planeCascade(divergenceLevels, divergenceDeadlineMax, 0.05)
}

// divergence sweeps offered load and reports, per shadow policy, the
// choice-disagreement rate against the cascaded primary and the
// counterfactual head-travel delta. Deterministic: the same seed renders
// the same CSV for any worker count.
func divergence(_ io.Writer, p Params) ([]*Result, error) {
	p = p.sized(3000)
	model, err := xp32150()
	if err != nil {
		return nil, err
	}
	x := loadAxis(divergenceInterarrivals)
	notes := []string{
		fmt.Sprintf("primary: cascaded hilbert (deadline, priority), window 5%%; %d requests per point, deadlines [%d,%d]ms",
			p.Requests, divergenceDeadlineMin/1000, divergenceDeadlineMax/1000),
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
	runs, err := runner.Map(p.Workers, len(x), func(i int) ([][]float64, error) {
		trace, err := workload.Open{
			Seed:             p.Seed,
			Count:            p.Requests,
			MeanInterarrival: divergenceInterarrivals[i],
			Dims:             1,
			Levels:           divergenceLevels,
			DeadlineMin:      divergenceDeadlineMin,
			DeadlineMax:      divergenceDeadlineMax,
			Cylinders:        model.Cylinders,
			SizeMin:          4 << 10,
			SizeMax:          128 << 10,
		}.Generate()
		if err != nil {
			return nil, err
		}
		primary, err := divergencePrimary()
		if err != nil {
			return nil, err
		}
		shs := make([]*sim.Shadow, len(divergenceShadows))
		for j, sp := range divergenceShadows {
			s, err := sp.build()
			if err != nil {
				return nil, err
			}
			shs[j] = sim.NewShadow(sp.name, s)
		}
		out := make([][]float64, len(divergenceShadows))
		err = runReused(sim.Config{
			Disk: model, Scheduler: primary,
			Options: sim.Options{
				DropLate: true, Dims: 1, Levels: divergenceLevels,
				Shadows: shs,
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
		return nil, err
	}
	return []*Result{disagree, travel}, sweep(1, policyNames(divergenceShadows), func(x, s int) ([]float64, error) {
		return runs[x][s], nil
	}, disagree, travel)
}
