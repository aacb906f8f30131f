package serve

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/stats"
)

// CalibrationConfig describes one observe-predict-calibrate run: the same
// scheduling policy and service model instantiated twice — once under the
// simulator's virtual clock, once under the live dispatcher on the dilated
// wall clock — and fed the identical trace.
type CalibrationConfig struct {
	// NewScheduler builds the policy both sides schedule with; it is called
	// twice and must return a fresh, identically configured scheduler each
	// time. Required.
	NewScheduler func() (sched.Scheduler, error)
	// Service is the service-time model both sides charge. It is
	// deterministic (rotation is the average latency), so every divergence
	// is attributable to the serving path.
	Service disk.ServiceModel
	// Dilation is the live clock's model-seconds-per-wall-second factor.
	Dilation float64
	// DropLate applies the §6 drop semantics on both sides.
	DropLate bool
	// Metrics is the live dispatcher's sink; nil counts nothing.
	Metrics *Metrics
}

// Calibration is the scored outcome of one run: how well the simulator
// predicted what the live serving path measured.
type Calibration struct {
	// SimServed/SimDropped and LiveServed/LiveDropped/LiveAbandoned count
	// per-request outcomes on each side.
	SimServed, SimDropped   int
	LiveServed, LiveDropped int
	LiveAbandoned           int
	// Aligned counts requests served on both sides — the population the
	// scores below are computed over.
	Aligned int
	// LatencyMAPE is the mean absolute percentage error of the simulator's
	// per-request response times against the live ones, percent. NaN when
	// undefined (no aligned requests).
	LatencyMAPE float64
	// OrderPearson is the Pearson correlation between each aligned
	// request's dispatch rank on the two sides (a Spearman rank
	// correlation of the dispatch orders). NaN when undefined.
	OrderPearson float64
	// OrderExact reports that both sides served exactly the same requests
	// in exactly the same order.
	OrderExact bool
	// SimHeadTravel/LiveHeadTravel are total emulated head movement,
	// cylinders.
	SimHeadTravel, LiveHeadTravel int64
	// SimMakespan/LiveMakespan are the completion times of the two runs,
	// model microseconds.
	SimMakespan, LiveMakespan int64
	// Wall is the live run's wall-clock duration.
	Wall time.Duration
}

// HeadTravelDelta returns (live-sim)/sim as a signed fraction, or NaN when
// the simulated run moved the head nowhere.
func (c *Calibration) HeadTravelDelta() float64 {
	if c.SimHeadTravel == 0 {
		return math.NaN()
	}
	return float64(c.LiveHeadTravel-c.SimHeadTravel) / float64(c.SimHeadTravel)
}

// simRec is the simulator's per-request prediction.
type simRec struct {
	done int64
	rank int
}

// Calibrate runs trace (sorted by arrival) through the simulator and
// through a live dispatcher, each with a scheduler from cfg.NewScheduler and
// the same service-time configuration, aligns the per-request records by
// ID, and scores the simulator's predictive accuracy. The scores land in the
// returned Calibration.
func Calibrate(ctx context.Context, cfg CalibrationConfig, trace []*core.Request) (*Calibration, error) {
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("serve: calibration requires a scheduler factory")
	}

	// Predict: the simulator's run, with per-request completion times and
	// dispatch ranks captured off the trace hook.
	simSched, err := cfg.NewScheduler()
	if err != nil {
		return nil, err
	}
	cal := &Calibration{}
	simRecs := make(map[uint64]simRec, len(trace))
	simRank := 0
	res, err := sim.Run(sim.Config{
		Disk:         cfg.Service.Disk,
		FixedService: cfg.Service.FixedService,
		Scheduler:    simSched,
		Options: sim.Options{
			DropLate: cfg.DropLate,
			Trace: func(ev sim.TraceEvent) {
				if ev.Dropped {
					cal.SimDropped++
					return
				}
				simRecs[ev.Request.ID] = simRec{done: ev.Now + ev.Service, rank: simRank}
				simRank++
			},
		},
	}, trace)
	if err != nil {
		return nil, err
	}
	cal.SimServed = simRank
	cal.SimHeadTravel = res.HeadTravel
	cal.SimMakespan = res.Makespan

	// Observe: the identical configuration served live on the dilated
	// clock.
	clock, err := NewClock(cfg.Dilation)
	if err != nil {
		return nil, err
	}
	backend, err := NewEmulatedDisk(cfg.Service, clock)
	if err != nil {
		return nil, err
	}
	liveSched, err := cfg.NewScheduler()
	if err != nil {
		return nil, err
	}
	d, err := New(Config{
		Sched: liveSched, Backend: backend, Clock: clock,
		DropLate: cfg.DropLate, Metrics: cfg.Metrics, KeepRecords: true,
	})
	if err != nil {
		return nil, err
	}
	// The engine's feed rule: every arrival at time t is delivered before
	// the dispatch at t. The arrivals at time zero are therefore all queued
	// before the first decision, and the rest are replayed on the clock.
	wallStart := time.Now()
	atZero := sort.Search(len(trace), func(i int) bool { return trace[i].Arrival > 0 })
	if err := Preload(ctx, d, trace[:atZero]); err != nil {
		return nil, err
	}
	d.Start(ctx)
	if err := Replay(ctx, d, trace[atZero:]); err != nil {
		d.Stop()
		return nil, err
	}
	if err := d.Drain(ctx); err != nil {
		return nil, err
	}
	cal.Wall = time.Since(wallStart)
	cal.LiveHeadTravel = d.HeadTravel()

	// Calibrate: align by request ID and score.
	live := d.Records()
	var pred, actual []float64
	var simRanks, liveRanks []float64
	exact := true
	liveRank := 0
	for _, rec := range live {
		switch {
		case rec.Dropped:
			cal.LiveDropped++
			continue
		case rec.Abandoned:
			cal.LiveAbandoned++
			continue
		}
		rank := liveRank
		liveRank++
		if rec.Done > cal.LiveMakespan {
			cal.LiveMakespan = rec.Done
		}
		sr, ok := simRecs[rec.ID]
		if !ok {
			exact = false
			continue
		}
		cal.Aligned++
		pred = append(pred, float64(sr.done-rec.Arrival))
		actual = append(actual, float64(rec.Done-rec.Arrival))
		simRanks = append(simRanks, float64(sr.rank))
		liveRanks = append(liveRanks, float64(rank))
		if sr.rank != rank {
			exact = false
		}
	}
	cal.LiveServed = liveRank
	cal.LatencyMAPE = stats.MAPE(pred, actual)
	cal.OrderPearson = stats.Pearson(simRanks, liveRanks)
	cal.OrderExact = exact && cal.SimServed == cal.LiveServed && cal.Aligned == cal.SimServed && cal.Aligned > 0
	return cal, nil
}
