package sim_test

import (
	"strings"
	"testing"

	"sfcsched/internal/cluster"
	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// oracleSched wraps one station's scheduler for the queue-view oracle: it
// keeps the value the scheduler reported for every request it queued,
// remembers the request Next last handed out, and counts the Each walks
// the engine makes through it. The oracle's own walks go to the inner
// scheduler and are not counted.
type oracleSched struct {
	sched.Scheduler
	values map[*core.Request]uint64 // nil when the scheduler reports none
	last   *core.Request
	eaches int
}

func (o *oracleSched) Next(now int64, head int) *core.Request {
	o.last = o.Scheduler.Next(now, head)
	return o.last
}

func (o *oracleSched) Each(visit func(*core.Request)) {
	o.eaches++
	o.Scheduler.Each(visit)
}

// value returns the value r was queued at, NoValue when the scheduler
// reports none.
func (o *oracleSched) value(r *core.Request) uint64 {
	if o.values == nil {
		return sim.NoValue
	}
	return o.values[r]
}

type valueAdder interface {
	AddValue(r *core.Request, now int64, head int) uint64
}

// valueOracle is an oracleSched over a scheduler that reports the value
// it queues each request at; it passes AddValue and Window through.
type valueOracle struct{ *oracleSched }

func (o valueOracle) AddValue(r *core.Request, now int64, head int) uint64 {
	v := o.Scheduler.(valueAdder).AddValue(r, now, head)
	o.values[r] = v
	return v
}

func (o valueOracle) Window() uint64 { return o.Scheduler.(sim.WindowStater).Window() }

// viewOracle checks every decision record and telemetry row of a run
// against a fresh walk of the station's queue: the record's summary must
// equal SortSummary over the walked candidates plus the chosen request,
// and a row's columns the same summary over the walk alone. It also
// counts the run's served dispatches, so the walks the engine makes can
// be compared with them.
type viewOracle struct {
	t       *testing.T
	scheds  []*oracleSched // by station ID
	records int
	rows    int
	served  int // dispatch trace events that started a service
	bad     int
}

// wrap puts the next station's scheduler under the oracle.
func (h *viewOracle) wrap(s sched.Scheduler) sched.Scheduler {
	o := &oracleSched{Scheduler: s}
	h.scheds = append(h.scheds, o)
	if _, ok := s.(valueAdder); ok {
		o.values = map[*core.Request]uint64{}
		return valueOracle{o}
	}
	return o
}

// walk returns o's queued requests as candidates at time now.
func (h *viewOracle) walk(o *oracleSched, now int64) []sim.DecisionCandidate {
	var cands []sim.DecisionCandidate
	o.Scheduler.Each(func(r *core.Request) { cands = append(cands, h.candidate(o, r, now)) })
	return cands
}

func (h *viewOracle) candidate(o *oracleSched, r *core.Request, now int64) sim.DecisionCandidate {
	return sim.DecisionCandidate{ID: r.ID, Cylinder: r.Cylinder, Slack: r.Slack(now), V: o.value(r)}
}

func (h *viewOracle) fail(format string, args ...any) {
	h.t.Helper()
	if h.bad++; h.bad <= 5 {
		h.t.Errorf(format, args...)
	}
}

// options attaches a decision trace (unless rowsOnly), telemetry and a
// dispatch trace, each checked by the oracle.
func (h *viewOracle) options(opts sim.Options, rowsOnly bool) sim.Options {
	opts.Trace = func(ev sim.TraceEvent) {
		if !ev.Dropped && !ev.Faulted {
			h.served++
		}
	}
	if !rowsOnly {
		opts.Decisions = sim.NewDecisionTrace(0)
		opts.Decisions.OnRecord = h.record
	}
	opts.Telemetry = sim.NewTelemetry(20_000)
	opts.Telemetry.OnRow = h.row
	return opts
}

func (h *viewOracle) record(rec *sim.DecisionRecord) {
	h.records++
	o := h.scheds[rec.DiskID]
	if o.last == nil || o.last.ID != rec.Chosen.ID {
		h.fail("record %d chose request %d, the scheduler handed out %v", rec.Seq, rec.Chosen.ID, o.last)
		return
	}
	cands := append(h.walk(o, rec.Now), h.candidate(o, o.last, rec.Now))
	if rec.Depth != len(cands) || o.Len()+1 != len(cands) {
		h.fail("record %d: depth %d, the queue holds %d besides the chosen request", rec.Seq, rec.Depth, o.Len())
	}
	if want := o.value(o.last); rec.Chosen.V != want {
		h.fail("record %d: chosen V %d, queued at %d", rec.Seq, rec.Chosen.V, want)
	}
	want := sim.SortSummary(cands, o.values != nil)
	if diff := sim.SameSummary(rec, &want); diff != "" {
		h.fail("record %d (disk %d, now %d):\n%s", rec.Seq, rec.DiskID, rec.Now, diff)
	}
}

func (h *viewOracle) row(row *sim.TelemetryRow) {
	h.rows++
	o := h.scheds[row.Disk]
	cands := h.walk(o, row.Time)
	want := sim.SortSummary(cands, o.values != nil)
	var lo, hi uint64
	if o.values != nil && len(cands) > 0 {
		lo, hi = sim.NoValue, 0
		for _, c := range cands {
			lo, hi = min(lo, c.V), max(hi, c.V)
		}
	}
	got := [...]int64{int64(row.Depth), int64(row.Deadlined), row.SlackMin, row.SlackP50, row.SlackMax, int64(row.VMin), int64(row.VMax)}
	exp := [...]int64{int64(o.Len()), int64(want.Deadlined), want.SlackMin, want.SlackP50, want.SlackMax, int64(lo), int64(hi)}
	if len(cands) != o.Len() || got != exp {
		h.fail("row at %d (disk %d): depth, deadlined, slack min/p50/max, v min/max = %v, want %v", row.Time, row.Disk, got, exp)
	}
}

// done checks the run's totals: the oracle saw records or rows, and the
// engine walked each queue exactly once per served dispatch (the
// collector's inversion walk) and never for a drop or a telemetry row.
func (h *viewOracle) done(rowsOnly bool) {
	h.t.Helper()
	if h.rows == 0 || !rowsOnly && h.records == 0 || h.served == 0 {
		h.t.Fatalf("oracle idle: %d records, %d rows, %d served dispatches", h.records, h.rows, h.served)
	}
	walks := 0
	for _, o := range h.scheds {
		walks += o.eaches
	}
	if walks != h.served {
		h.t.Errorf("%d queue walks for %d served dispatches, want one each", walks, h.served)
	}
}

// oracleTrace is an open workload whose deadlines are varied for the
// view's edge cases: none (0), negative, exactly 2^62 past the arrival
// (whose slack at an arrival-time decision reads as no deadline), 2^62
// before it, and ordinary ones that DropLate drops when they expire.
func oracleTrace(cylinders, count int, interarrival int64) []*core.Request {
	trace := workload.Open{
		Seed: 11, Count: count, MeanInterarrival: interarrival,
		Dims: 2, Levels: 8, DeadlineMin: 60_000, DeadlineMax: 400_000,
		Cylinders: cylinders, SizeMin: 4 << 10, SizeMax: 128 << 10, WriteFrac: 0.3,
	}.MustGenerate()
	for i, r := range trace {
		switch i % 8 {
		case 0:
			r.Deadline = 0
		case 1:
			r.Deadline = -int64(i)
		case 2:
			r.Deadline = r.Arrival + sim.NoDeadlineSlack
		case 3:
			r.Deadline = r.Arrival - sim.NoDeadlineSlack
		}
	}
	return trace
}

// oraclePolicies is every sched.Policies row and the cascade in each
// preemption mode.
func oraclePolicies(t *testing.T, m *disk.Model) []sched.Policy {
	t.Helper()
	var ps []sched.Policy
	for _, mode := range []core.PreemptMode{core.ConditionallyPreemptive, core.FullyPreemptive, core.NonPreemptive} {
		ps = append(ps, sched.Policy{Name: "cascaded/" + mode.String(), New: func(sched.Estimator, int) sched.Scheduler {
			cv, err := sfc.New("hilbert", 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.NewScheduler("cascaded", core.EncapsulatorConfig{
				Curve1: cv, Levels: 8, UseDeadline: true, F: 1,
				DeadlineHorizon: 400_000, DeadlineSpan: 400_000, DeadlineSlack: true,
				UseCylinder: true, R: 3, Cylinders: m.Cylinders,
			}, core.DispatcherConfig{Mode: mode, SP: true, ER: true}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}})
	}
	return append(ps, sched.Policies...)
}

// The queue view matches a fresh walk of the queue at every decision and
// every telemetry row: under every policy and the cascade in all three
// preemption modes, on a single disk with fault retries, on a RAID-5 array
// that loses a disk and rebuilds it, and on a 3×2 cluster; and the engine
// walks each queue once per served dispatch, for the collector, and no
// more.
func TestQueueViewMatchesWalk(t *testing.T) {
	m := disk.MustModel(disk.QuantumXP32150Params())
	array, err := disk.NewRAID5(5, 64<<10, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range oraclePolicies(t, m) {
		newSched := func() sched.Scheduler { return p.New(m.ServiceTime, 8) }
		t.Run(p.Name+"/single", func(t *testing.T) {
			h := &viewOracle{t: t}
			opts := h.options(sim.Options{DropLate: true,
				Fault: &fault.Plan{Seed: 3, TransientRate: 0.05, MaxRetries: 2}}, false)
			if _, err := sim.Run(sim.Config{Disk: m, Scheduler: h.wrap(newSched()), Options: opts},
				oracleTrace(m.Cylinders, 600, 9_000)); err != nil {
				t.Fatal(err)
			}
			h.done(false)
		})
		t.Run(p.Name+"/raid5", func(t *testing.T) {
			h := &viewOracle{t: t}
			opts := h.options(sim.Options{DropLate: true, Fault: &fault.Plan{
				Seed: 3, TransientRate: 0.02, MaxRetries: 1,
				FailDisk: 1, FailAt: 1_500_000, Rebuild: true, RebuildBlocks: 12,
			}}, false)
			res, err := sim.RunArray(sim.ArrayConfig{Array: array, Options: opts,
				NewScheduler: func(int) (sched.Scheduler, error) { return h.wrap(newSched()), nil }},
				oracleTrace(int(array.MaxBlocks()), 500, 7_000))
			if err != nil {
				t.Fatal(err)
			}
			if res.Reconstructions == 0 || res.RebuildReads == 0 {
				t.Errorf("no degraded reads (%d) or rebuild reads (%d)", res.Reconstructions, res.RebuildReads)
			}
			h.done(false)
		})
		t.Run(p.Name+"/cluster", func(t *testing.T) {
			h := &viewOracle{t: t}
			opts := h.options(sim.Options{}, true)
			cfg := cluster.Config{Nodes: 3, DisksPerNode: 2, Disk: m, DropLate: true,
				Router: cluster.LeastLoaded{}, Trace: opts.Trace, Telemetry: opts.Telemetry,
				NewScheduler: func(int, int) (sched.Scheduler, error) { return h.wrap(newSched()), nil }}
			if _, err := cluster.Run(cfg, oracleTrace(cfg.MaxBlocks(), 1200, 2_000)); err != nil {
				t.Fatal(err)
			}
			h.done(true)
		})
	}
}

// A scheduler that already holds requests cannot be observed: the view
// starts empty, so Setup refuses the run rather than report a queue it
// does not hold.
func TestObservedRunNeedsAnEmptyQueue(t *testing.T) {
	s := sched.NewFCFS()
	s.Add(&core.Request{ID: 1}, 0, 0)
	_, err := sim.Run(sim.Config{FixedService: 10, Scheduler: s,
		Options: sim.Options{Telemetry: sim.NewTelemetry(100)}}, nil)
	if want := "station 0's scheduler holds 1 requests before the run"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one saying %q", err, want)
	}
}
