package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
)

// Errors returned by the submission path.
var (
	// ErrClosed reports a submission refused because the scheduler ingress
	// was closed (Drain or Stop has begun).
	ErrClosed = errors.New("serve: scheduler ingress closed")
	// ErrNotStarted reports a submission before Start.
	ErrNotStarted = errors.New("serve: dispatcher not started")
	// ErrStopped reports a submission interrupted by Stop.
	ErrStopped = errors.New("serve: dispatcher stopped")
)

// Config configures a Dispatcher.
type Config struct {
	// Sched is the scheduling policy the dispatcher serves with — any
	// sched.Scheduler, the contract the simulator consumes. Required. New
	// puts it behind core.Lock (a *core.Locked is taken as is), and from
	// then on the dispatcher owns it: its worker consumes it one dispatch
	// at a time, any number of goroutines feed it through Submit, and the
	// caller must not touch it again.
	Sched sched.Scheduler
	// Backend executes dispatched requests. Required.
	Backend Backend
	// Clock is the dilated model clock submissions and dispatches are
	// timestamped with. Required.
	Clock *Clock
	// InFlight is bench-pinned (bench/w_servelive.go sets it): the
	// dispatcher serves one request at a time, the paper's one arm, and New
	// accepts only 0 or 1 here.
	InFlight int
	// MaxQueue bounds the number of submitted-but-incomplete requests;
	// Submit blocks (backpressure) once the bound is reached. 0 means
	// unbounded.
	MaxQueue int
	// DropLate discards requests whose deadline has passed at dispatch
	// time, mirroring the simulator's §6 semantics.
	DropLate bool
	// Metrics is the sink the dispatcher counts into; nil counts nothing.
	Metrics *Metrics
	// KeepRecords accumulates a Record per dispatch decision for later
	// retrieval via Records — calibration runs need them; long-running
	// servers should leave this off (the slice grows without bound) and
	// use the metrics instead.
	KeepRecords bool
}

// Record is the per-request outcome of one dispatch decision, the serving
// counterpart of the simulator's TraceEvent. Times are model microseconds.
type Record struct {
	// ID is the request's ID.
	ID uint64
	// Arrival is the request's nominal arrival time.
	Arrival int64
	// Dispatch is the model time the dispatch decision was made.
	Dispatch int64
	// Done is the model time the service completed (0 for drops).
	Done int64
	// Head is the head cylinder the service departed from; Target the
	// (clamped) cylinder it seeked to.
	Head, Target int
	// Seek and Service are the backend-reported costs.
	Seek, Service int64
	// Dropped marks a request discarded past its deadline (DropLate).
	Dropped bool
	// Abandoned marks a service cut short by Stop or cancellation.
	Abandoned bool
}

// Dispatcher is the real-clock serving layer: it pops requests from a
// locked scheduler in that scheduler's dispatch order and executes them
// against a Backend, one service at a time. The zero value is not usable;
// construct with New, then Start, Submit from any number of goroutines, and
// shut down with Drain (graceful) or Stop (immediate).
type Dispatcher struct {
	cfg Config
	q   *core.Locked // cfg.Sched behind the one ingress lock
	m   *Metrics

	ctx     context.Context
	cancel  context.CancelFunc
	started atomic.Bool
	startMu sync.Mutex
	stopped chan struct{} // closed when the worker exits
	stop    sync.Once

	// quota is the MaxQueue backpressure semaphore (nil when unbounded):
	// Submit takes, completion/drop/rejection returns.
	quota chan struct{}
	// kick wakes the worker when new work arrives or a drain begins;
	// capacity 1, senders never block.
	kick chan struct{}

	// outstanding counts submitted-but-not-yet-finished requests (queued +
	// in flight). The drain handshake keys off it reaching zero. Producers
	// increment it before kicking, so a consumed kick always observes an
	// up-to-date count.
	outstanding atomic.Int64
	draining    atomic.Bool

	head   atomic.Int64
	travel atomic.Int64

	recMu sync.Mutex
	recs  []Record
}

// New validates cfg and builds a dispatcher.
func New(cfg Config) (*Dispatcher, error) {
	if cfg.Sched == nil {
		return nil, fmt.Errorf("serve: dispatcher requires a scheduler")
	}
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: dispatcher requires a backend")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("serve: dispatcher requires a clock")
	}
	if cfg.InFlight != 0 && cfg.InFlight != 1 {
		return nil, fmt.Errorf("serve: the dispatcher serves one request at a time; InFlight must be 0 or 1, got %d", cfg.InFlight)
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("serve: queue bound must be >= 0, got %d", cfg.MaxQueue)
	}
	d := &Dispatcher{
		cfg:     cfg,
		q:       core.Lock(cfg.Sched),
		m:       cfg.Metrics,
		stopped: make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
	if cfg.MaxQueue > 0 {
		d.quota = make(chan struct{}, cfg.MaxQueue)
	}
	return d, nil
}

// Start launches the worker. It runs until Drain completes, Stop is called,
// or ctx is canceled. Start is idempotent; it must precede the
// first Submit.
func (d *Dispatcher) Start(ctx context.Context) {
	d.startMu.Lock()
	defer d.startMu.Unlock()
	if d.started.Load() {
		return
	}
	d.ctx, d.cancel = context.WithCancel(ctx)
	d.started.Store(true)
	go d.work()
}

// Head returns the current emulated head cylinder.
func (d *Dispatcher) Head() int { return int(d.head.Load()) }

// HeadTravel returns the cumulative emulated head movement, cylinders.
func (d *Dispatcher) HeadTravel() int64 { return d.travel.Load() }

// Submit enqueues r at the current model time. It blocks while the
// MaxQueue backpressure bound is reached and returns ErrClosed once
// shutdown has begun.
func (d *Dispatcher) Submit(ctx context.Context, r *core.Request) error {
	return d.SubmitAt(ctx, r, d.cfg.Clock.Now())
}

// SubmitAt enqueues r with an explicit model timestamp for the scheduler's
// value computation. Replay feeds use the request's nominal arrival time
// here so characterization values match a simulator run of the same trace
// exactly, leaving dispatch interleaving as the only divergence the
// calibrator measures.
//
// SubmitAt works before Start too — Preload stages a whole trace that way
// so every value anchors on the initial head and sweep state — but a
// pre-Start submission must not depend on the worker for progress: with a
// MaxQueue smaller than the staged trace it would block on quota no
// dispatch can ever free.
func (d *Dispatcher) SubmitAt(ctx context.Context, r *core.Request, now int64) error {
	if d.quota != nil {
		// A nil stop channel blocks forever, which is right before Start:
		// only the caller's ctx can interrupt the quota wait then.
		var stopc <-chan struct{}
		if d.started.Load() {
			stopc = d.ctx.Done()
		}
		select {
		case d.quota <- struct{}{}:
		default:
			if d.m != nil {
				d.m.BackpressureWaits.Inc()
			}
			select {
			case d.quota <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			case <-stopc:
				return ErrStopped
			}
		}
	}
	if !d.q.TryAdd(r, now, d.Head) {
		if d.quota != nil {
			<-d.quota
		}
		if d.m != nil {
			d.m.Rejected.Inc()
		}
		return ErrClosed
	}
	d.outstanding.Add(1)
	if d.m != nil {
		d.m.Submitted.Inc()
	}
	d.wake()
	return nil
}

// Drain shuts the ingress and serves out everything already accepted:
// subsequent submissions are rejected, queued requests are dispatched and
// completed, and Drain returns once the dispatcher is quiescent. If ctx
// expires first the remaining work is abandoned via Stop and ctx's error
// is returned.
func (d *Dispatcher) Drain(ctx context.Context) error {
	d.q.Close()
	if !d.started.Load() {
		return ErrNotStarted
	}
	d.draining.Store(true)
	d.wake()
	select {
	case <-d.stopped:
	case <-ctx.Done():
		d.Stop()
		return ctx.Err()
	}
	if d.m != nil {
		d.m.Drains.Inc()
	}
	return nil
}

// Stop halts the dispatcher immediately: the ingress closes, in-flight
// backend services are canceled and recorded as abandoned, and requests
// still queued are counted abandoned as well — also on a dispatcher that
// was never started, whose staged work (Preload) would otherwise stay
// outstanding forever. Stop blocks until the worker has exited.
// Idempotent; a Start after Stop does nothing.
func (d *Dispatcher) Stop() {
	d.stop.Do(func() {
		d.q.Close()
		d.startMu.Lock()
		if !d.started.Load() {
			// Never started: enter the stopped state directly, so there is
			// no worker to wait for and none can start later and serve what
			// is counted abandoned below.
			d.ctx, d.cancel = context.WithCancel(context.Background())
			close(d.stopped)
			d.started.Store(true)
		}
		d.startMu.Unlock()
		d.cancel()
		<-d.stopped
		if n := d.q.Len(); n > 0 {
			if d.m != nil {
				d.m.Abandoned.Add(uint64(n))
			}
			d.outstanding.Add(int64(-n))
		}
	})
}

// Records returns a copy of the accumulated dispatch records in dispatch
// order. Empty unless Config.KeepRecords was set.
func (d *Dispatcher) Records() []Record {
	d.recMu.Lock()
	defer d.recMu.Unlock()
	return append([]Record(nil), d.recs...)
}

// wake nudges the worker waiting for work; never blocks.
func (d *Dispatcher) wake() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// work is the dispatcher's one worker: each decision is made when the
// previous service ends and sees its head, and is then served inline, so
// records are appended in dispatch order. It closes stopped on exit.
func (d *Dispatcher) work() {
	defer close(d.stopped)
	for {
		r, target, travel, decided := d.take()
		if r == nil {
			return
		}
		// The head is en route to the target for the whole service window,
		// so submissions arriving mid-service anchor their values on the
		// position being seeked to — the head model of every sim.Station.
		head := d.Head()
		d.head.Store(int64(target))
		d.travel.Add(travel)
		if m := d.m; m != nil {
			m.HeadTravelCylinders.Add(uint64(travel))
			m.Dispatched.Inc()
			m.InFlight.Add(1)
		}
		d.serveOne(r, head, target, decided)
	}
}

// take makes the next dispatch decision through sim.Pick — the simulator's
// own step, so the live head and travel follow the simulator's rules —
// blocking until it yields a request, shutdown begins, or — while
// draining — the dispatcher goes quiescent; once canceled it decides
// nothing more. Expired requests are dropped inside the decision under
// DropLate. It returns Pick's request, target and travel with the clock
// reading the decision's model time was taken from; a nil request means
// shutdown.
func (d *Dispatcher) take() (r *core.Request, target int, travel int64, decided time.Duration) {
	for {
		select {
		case <-d.ctx.Done():
			return nil, 0, 0, 0
		default:
		}
		decided = d.cfg.Clock.elapsed()
		now := d.cfg.Clock.model(decided)
		r, target, travel = sim.Pick(d.q, now, d.Head(), d.cfg.Backend.Cylinders(), d.cfg.DropLate,
			func(r *core.Request) { d.drop(r, now) })
		if r != nil {
			return r, target, travel, decided
		}
		// The worker retires its own requests before it gets here, and
		// producers count theirs before kicking, so after consuming a kick
		// this check sees an up-to-date count.
		if d.draining.Load() && d.outstanding.Load() == 0 {
			return nil, 0, 0, 0
		}
		select {
		case <-d.kick:
		case <-d.ctx.Done():
			return nil, 0, 0, 0
		}
	}
}

// drop records the discard of an expired request: a dispatch decision
// that costs no backend service.
func (d *Dispatcher) drop(r *core.Request, now int64) {
	if m := d.m; m != nil {
		m.Dispatched.Inc()
		m.Dropped.Inc()
	}
	d.record(Record{
		ID: r.ID, Arrival: r.Arrival, Dispatch: now,
		Head: d.Head(), Target: d.Head(), Dropped: true,
	})
	d.finishOne()
}

// serveOne runs one backend service on the worker and does the completion
// accounting. decided is the clock reading take decided at; the completion
// is the worker's only other read, so a served request costs two clock
// reads, and the decision's model time, the completion's and the wall time
// between them all come from those two.
func (d *Dispatcher) serveOne(r *core.Request, head, target int, decided time.Duration) {
	comp, err := d.cfg.Backend.Serve(d.ctx, r, head)
	ended := d.cfg.Clock.elapsed()
	done := d.cfg.Clock.model(ended)
	rec := Record{
		ID: r.ID, Arrival: r.Arrival, Dispatch: d.cfg.Clock.model(decided), Done: done,
		Head: head, Target: target, Seek: comp.Seek, Service: comp.Service,
	}
	if err != nil {
		rec.Abandoned = true
		rec.Done = 0
	}
	if m := d.m; m != nil {
		m.WallService.Observe(uint64((ended - decided).Microseconds()))
		if err != nil {
			m.Abandoned.Inc()
		} else {
			m.Completed.Inc()
			if lat := done - r.Arrival; lat >= 0 {
				m.ModelLatency.Observe(uint64(lat))
			}
		}
		m.InFlight.Add(-1)
	}
	d.record(rec)
	d.finishOne()
}

// finishOne retires one outstanding request and releases its backpressure
// quota. It runs on the worker, which checks for quiescence in take.
func (d *Dispatcher) finishOne() {
	d.outstanding.Add(-1)
	if d.quota != nil {
		<-d.quota
	}
}

// record keeps rec when Config.KeepRecords is set.
func (d *Dispatcher) record(rec Record) {
	if !d.cfg.KeepRecords {
		return
	}
	d.recMu.Lock()
	d.recs = append(d.recs, rec)
	d.recMu.Unlock()
}
