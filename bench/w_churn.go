package main

import (
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/metrics"
	"sfcsched/internal/workload"
)

// sched-churn drives the scheduler as a library, closed loop, on one
// goroutine: a standing queue of churnDepth requests, one Add and one Next
// per cycle, the head following the popped cylinder. Only sfc and core do
// work; it is the one place a curve-index, cascade or heap change is large
// enough to see, and the bypass for every engine-side change.
//
// The model behind its simulated figures is the simplest that makes them
// meaningful: each cycle stands for a fixed churnStepUS of service, so the
// clock, the deadlines (template relative deadline from the cycle's now)
// and therefore late dispatches are all deterministic in the seed.
const (
	churnDepth     = 4096
	churnCycles    = 200_000 // per arm per repetition
	churnTemplates = 1 << 14 // request templates cycled through
	churnStepUS    = 150     // model µs per cycle: depth × step ≈ one deadline
	// churnInvEvery samples the §5.1 inversion walk every that many
	// dispatches of the model pass; walking 4096 queued requests on every
	// dispatch would take longer than the timed repetitions it describes.
	churnInvEvery = 64
	// churnBatch is how many cycles one round-trip sample times together, so
	// a ~200 ns cycle is not measured with a ~25 ns clock.
	churnBatch = 16
	// churnLatencyCycles is how many cycles the round trips time in all:
	// enough that each fifth of them spans >100 ms, longer than the box's
	// short noise bursts.
	churnLatencyCycles = 3_200_000
	// churnModelArm is the arm whose model pass yields the workload's
	// simulated figures. The fully preemptive arm's order is a pure function
	// of the value cascade; the conditional arm's Expand-and-Reset window
	// makes its seek pattern swing ±8 % with the seed, which would say
	// nothing about a commit.
	churnModelArm = 0 // index into churnArms: full-d3
)

type churnTemplate struct {
	prio     []int
	cylinder int
	size     int64
	rel      int64 // relative deadline, µs
}

type churn struct {
	p    params
	disk *disk.Model
	// tmpl[0] serves the three 3-dimensional arms, tmpl[1] the 12-dimensional.
	tmpl   [2][]churnTemplate
	arenas [2]workload.Arena
	// pool holds churnDepth+1 request objects: churnDepth queued and one
	// free. Each cycle fills the free one, adds it, and the popped request
	// becomes the next free one, so no object is ever queued twice.
	pool []core.Request

	warm []digest // the warm-up repetition's digests, one per arm
	mod  model
}

// fillFrom makes r the id-th request of the run: template t arriving now.
func fillFrom(r *core.Request, t *churnTemplate, id uint64, now int64) {
	r.ID = id
	r.Priorities, r.Cylinder, r.Size = t.prio, t.cylinder, t.size
	r.Arrival, r.Deadline = now, now+t.rel
}

// prefill loads the standing queue through the undecorated scheduler (the
// standing queue is state, not work under test) and returns the one free
// request object.
func (w *churn) prefill(cs *core.Scheduler, tmpl []churnTemplate) *core.Request {
	mask := len(tmpl) - 1
	for i := 0; i < churnDepth; i++ {
		fillFrom(&w.pool[i], &tmpl[i&mask], uint64(i+1), 0)
		cs.Add(&w.pool[i], 0, 0)
	}
	return &w.pool[churnDepth]
}

func (w *churn) cycles() int { return w.p.scaled(churnCycles) }

func (w *churn) setup(tr *tracer) error {
	w.disk = tableOneDisk()
	for i, dims := range []int{prioDims, 12} {
		gen := tr.begin("workload.open.arena")
		trace, err := workload.Open{
			Seed: w.p.seed + uint64(i)*0x9E37, Count: churnTemplates, MeanInterarrival: 20_000,
			Dims: dims, Levels: prioLevels,
			DeadlineMin: deadlineMin, DeadlineMax: deadlineMax,
			Cylinders: w.disk.Cylinders, SizeMin: 4 << 10, SizeMax: 128 << 10,
		}.GenerateArena(&w.arenas[i])
		tr.end(gen)
		if err != nil {
			return err
		}
		w.tmpl[i] = w.tmpl[i][:0]
		for _, r := range trace {
			w.tmpl[i] = append(w.tmpl[i], churnTemplate{
				prio: r.Priorities, cylinder: r.Cylinder, size: r.Size, rel: r.Deadline - r.Arrival,
			})
		}
	}
	if w.pool == nil {
		w.pool = make([]core.Request, churnDepth+1)
	}
	// Warm-up repetition of every arm; the churnModelArm's doubles as the
	// model pass, which walks the queue for inversions and charges seeks.
	w.warm = w.warm[:0]
	for i, arm := range churnArms {
		var col *metrics.Collector
		if i == churnModelArm {
			col = metrics.NewCollector(arm.dims, prioLevels)
		}
		d, _, err := w.runArm(arm, nil, col)
		if err != nil {
			return err
		}
		if col != nil {
			w.mod = model{
				lossPct:               100 * float64(d.Late) / float64(d.Served),
				seekMsPerServed:       float64(col.SeekTime) / 1e3 / float64(col.Served),
				inversionsPerDispatch: float64(col.TotalInversions()) / float64((d.Served+churnInvEvery-1)/churnInvEvery),
			}
		}
		w.warm = append(w.warm, d)
	}
	return nil
}

// runArm builds a fresh scheduler for arm, prefills the standing queue and
// runs the closed loop. It returns the arm's digest and the host time of
// the loop alone. With col non-nil it is the model pass: every dispatch is
// charged its Table 1 seek and every churnInvEvery-th one walks the queue.
func (w *churn) runArm(arm churnArm, tr *tracer, col *metrics.Collector) (digest, time.Duration, error) {
	cs, err := newCascade(arm.name, arm.mode, arm.dims, w.disk.Cylinders)
	if err != nil {
		return digest{}, 0, err
	}
	s := tr.sched(cs, "core.sched", "metrics.each")
	tmpl := w.tmpl[0]
	if arm.dims != prioDims {
		tmpl = w.tmpl[1]
	}
	mask := len(tmpl) - 1
	free := w.prefill(cs, tmpl)

	n := w.cycles()
	var d digest
	head, now := 0, int64(0)
	loop := tr.begin("churn.loop")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fillFrom(free, &tmpl[(churnDepth+i)&mask], uint64(churnDepth+i+1), now)
		s.Add(free, now, head)
		r := s.Next(now, head)
		if col != nil {
			if i%churnInvEvery == 0 {
				col.OnDispatch(r, s.Each)
			}
			col.OnServed(r, w.disk.SeekTime(head, r.Cylinder), churnStepUS, now)
		}
		if r.Cylinder > head {
			d.HeadTravel += int64(r.Cylinder - head)
		} else {
			d.HeadTravel += int64(head - r.Cylinder)
		}
		head = r.Cylinder
		if now > r.Deadline {
			d.Late++
		}
		d.Order = mixOrder(d.Order, r.ID)
		free = r
		now += churnStepUS
	}
	host := time.Since(t0)
	tr.end(loop)
	d.Served = uint64(n)
	d.Makespan = now
	// Drain so the pool's objects are free for the next arm.
	for cs.Next(now, head) != nil {
	}
	return d, host, nil
}

func (w *churn) repeat(tr *tracer) (repetition, error) {
	rep := repetition{}
	for _, arm := range churnArms {
		d, host, err := w.runArm(arm, tr, nil)
		if err != nil {
			return rep, err
		}
		rep.ops += int64(d.Served)
		rep.host += host
		rep.digests = append(rep.digests, d)
	}
	return rep, nil
}

// roundTrips times batches of churnBatch cycles on the model arm and
// reports the per-cycle time of each batch: what one request costs a
// caller that adds it and takes the next.
func (w *churn) roundTrips(tr *tracer, parts int) ([]float64, error) {
	arm := churnArms[churnModelArm]
	cs, err := newCascade(arm.name, arm.mode, arm.dims, w.disk.Cylinders)
	if err != nil {
		return nil, err
	}
	tmpl := w.tmpl[0]
	mask := len(tmpl) - 1
	free := w.prefill(cs, tmpl)
	batches := max(w.p.scaled(churnLatencyCycles)/churnBatch/parts, 1)
	out := make([]float64, 0, batches)
	head, now, i := 0, int64(0), churnDepth
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for k := 0; k < churnBatch; k++ {
			fillFrom(free, &tmpl[i&mask], uint64(i+1), now)
			cs.Add(free, now, head)
			free = cs.Next(now, head)
			head = free.Cylinder
			now += churnStepUS
			i++
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/churnBatch/1e3)
	}
	for cs.Next(now, head) != nil {
	}
	return out, nil
}

func (w *churn) model() model { return w.mod }

// reference: the model arm's digest comes from the model pass, so a timed
// repetition that matches it proves the collector's queue walks changed
// nothing the scheduler saw.
func (w *churn) reference() []digest { return w.warm }

func (w *churn) verify(c *checks) {
	for i, d := range w.warm {
		if d.Served != uint64(w.cycles()) {
			c.fail("sched-churn: arm %s served %d, want %d", churnArms[i].name, d.Served, w.cycles())
		}
	}
}

func (w *churn) traced(tr *tracer, stats map[string]spanStat, cost spanCost, out metricSet) {}

func (w *churn) close() {}
