package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
)

// cascade builds the cascade every serving test schedules with, under the
// given dispatcher policy: dims priority dimensions over 8 levels (through
// a Hilbert SFC1 when there is more than one), the deadline stage over a
// 700 ms horizon weighed against them at F = 1 (schedsim's -f default),
// and three SFC3 partitions of the Table 1 geometry.
func cascade(dims int, dcfg core.DispatcherConfig, windowFrac float64) *core.Scheduler {
	ecfg := core.EncapsulatorConfig{
		Levels:      8,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: 3832,
	}
	if dims > 1 {
		cv, err := sfc.New("hilbert", dims, 8)
		if err != nil {
			panic(err)
		}
		ecfg.Curve1 = cv
	}
	return core.MustScheduler("", ecfg, dcfg, windowFrac)
}

// fullyPreemptive is the policy the serving tests default to: pure v_c
// order over one priority dimension, the one the layer served before it
// could serve any other.
func fullyPreemptive() *core.Scheduler {
	return cascade(1, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
}

// reqAt builds one test request with a far-off deadline.
func reqAt(id uint64, cyl int, size int64) *core.Request {
	return &core.Request{
		ID:         id,
		Priorities: []int{int(id) % 8},
		Deadline:   600_000 + int64(id),
		Cylinder:   cyl,
		Size:       size,
	}
}

// zeroArrivalTrace builds n requests all arriving at model time 0, spread
// over the cylinder space — the preloadable trace shape of the exact-order
// guarantee.
func zeroArrivalTrace(n int) []*core.Request {
	trace := make([]*core.Request, n)
	for i := range trace {
		trace[i] = reqAt(uint64(i+1), ((i+1)*311)%3832, 65536)
	}
	return trace
}

// fakeBackend serves instantly (a fixed 10 µs model cost), optionally
// blocking on gate until it is closed or ctx is canceled.
type fakeBackend struct {
	gate   chan struct{}
	served atomic.Int64
}

func (f *fakeBackend) Cylinders() int { return 0 }

func (f *fakeBackend) Serve(ctx context.Context, r *core.Request, head int) (Completion, error) {
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return Completion{}, ctx.Err()
		}
	}
	f.served.Add(1)
	return Completion{Seek: 0, Service: 10}, nil
}

func newTestDispatcher(t *testing.T, cfg Config) (*Dispatcher, *Metrics) {
	t.Helper()
	m := &Metrics{}
	cfg.Metrics = m
	if cfg.Sched == nil {
		cfg.Sched = fullyPreemptive()
	}
	if cfg.Clock == nil {
		c, err := NewClock(10_000)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clock = c
	}
	if cfg.Backend == nil {
		cfg.Backend = &fakeBackend{}
	}
	cfg.KeepRecords = true
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, m
}

// checkLedger asserts the conservation identity of the serving ledger:
// every accepted request ended exactly one way and none is outstanding.
func checkLedger(t *testing.T, d *Dispatcher, m *Metrics) {
	t.Helper()
	sub, ended := m.Submitted.Load(), m.Completed.Load()+m.Dropped.Load()+m.Abandoned.Load()
	if sub != ended || d.outstanding.Load() != 0 {
		t.Fatalf("ledger broken: submitted %d != completed %d + dropped %d + abandoned %d, outstanding %d",
			sub, m.Completed.Load(), m.Dropped.Load(), m.Abandoned.Load(), d.outstanding.Load())
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestNewValidation(t *testing.T) {
	s := fullyPreemptive()
	clock, _ := NewClock(100)
	be := &fakeBackend{}
	bad := []Config{
		{Backend: be, Clock: clock},
		{Sched: s, Clock: clock},
		{Sched: s, Backend: be},
		{Sched: s, Backend: be, Clock: clock, InFlight: -1},
		{Sched: s, Backend: be, Clock: clock, InFlight: 2},
		{Sched: s, Backend: be, Clock: clock, MaxQueue: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// One arm, spelled either way.
	for _, inflight := range []int{0, 1} {
		if _, err := New(Config{Sched: fullyPreemptive(), Backend: be, Clock: clock, InFlight: inflight}); err != nil {
			t.Errorf("InFlight %d rejected: %v", inflight, err)
		}
	}
}

// TestDispatcherServesAllConcurrentSubmitters is the serving layer's bread
// and butter: many producers, one arm, graceful drain, nothing lost and
// nothing served twice.
func TestDispatcherServesAllConcurrentSubmitters(t *testing.T) {
	d, m := newTestDispatcher(t, Config{})
	d.Start(context.Background())

	const producers = 4
	const perProducer = 200
	submitConcurrently(t, d, producers, perProducer)
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	const total = producers * perProducer
	if got := m.Submitted.Load(); got != total {
		t.Errorf("Submitted = %d, want %d", got, total)
	}
	if got := m.Completed.Load(); got != total {
		t.Errorf("Completed = %d, want %d", got, total)
	}
	if got := m.Dispatched.Load(); got != total {
		t.Errorf("Dispatched = %d, want %d", got, total)
	}
	if got := m.InFlight.Load(); got != 0 {
		t.Errorf("InFlight = %d after drain, want 0", got)
	}
	if d.outstanding.Load() != 0 {
		t.Errorf("outstanding = %d after drain, want 0", d.outstanding.Load())
	}
	recs := d.Records()
	if len(recs) != total {
		t.Fatalf("got %d records, want %d", len(recs), total)
	}
	seen := make(map[uint64]bool, total)
	for i, rec := range recs {
		// Records are in dispatch order: each departs from the head the
		// one before it left, no earlier than that one completed.
		if i > 0 {
			if prev := recs[i-1]; rec.Head != prev.Target || rec.Dispatch < prev.Done {
				t.Fatalf("record %d (head %d, dispatched %d) does not follow record %d (target %d, done %d)",
					i, rec.Head, rec.Dispatch, i-1, prev.Target, prev.Done)
			}
		}
		if seen[rec.ID] {
			t.Fatalf("request %d recorded twice", rec.ID)
		}
		seen[rec.ID] = true
		if rec.Dropped || rec.Abandoned {
			t.Fatalf("request %d marked dropped/abandoned on a clean run", rec.ID)
		}
		if rec.Done < rec.Dispatch {
			t.Fatalf("request %d completed at %d before its dispatch at %d", rec.ID, rec.Done, rec.Dispatch)
		}
	}

	// The ingress stays closed after a drain.
	if err := d.Submit(context.Background(), reqAt(9999, 0, 4096)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Drain = %v, want ErrClosed", err)
	}
	if got := m.Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}

// submitConcurrently submits producers × perProducer distinct requests
// from that many goroutines and returns once every Submit has.
func submitConcurrently(t *testing.T, d *Dispatcher, producers, perProducer int) {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := uint64(p*perProducer + i + 1)
				if err := d.Submit(context.Background(), reqAt(id, int(id*37)%3832, 4096)); err != nil {
					t.Errorf("Submit %d: %v", id, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// servedPolicies is every policy the serving layer can be handed: the
// cascade under each dispatcher discipline of §3, whose constructors
// ignore their arguments, then every row of sched.Policies.
func servedPolicies() []sched.Policy {
	cond := core.ConditionallyPreemptive
	cascaded := func(name string, dcfg core.DispatcherConfig, w float64) sched.Policy {
		return sched.Policy{Name: name, New: func(sched.Estimator, int) sched.Scheduler { return cascade(1, dcfg, w) }}
	}
	return append([]sched.Policy{
		{Name: "cascaded-full", New: func(sched.Estimator, int) sched.Scheduler { return fullyPreemptive() }},
		cascaded("cascaded-nonpreemptive", core.DispatcherConfig{Mode: core.NonPreemptive}, 0),
		cascaded("cascaded-window", core.DispatcherConfig{Mode: cond}, 0.02),
		cascaded("cascaded-sp", core.DispatcherConfig{Mode: cond, SP: true}, 0.02),
		cascaded("cascaded-sp-er", core.DispatcherConfig{Mode: cond, SP: true, ER: true}, 0.02),
	}, sched.Policies...)
}

// TestDispatcherExactSimOrder is the acceptance-criteria pin: on a
// preloaded arrival-at-zero trace the live dispatcher's dispatch order is
// bit-identical to sim.Run's, because both sides enqueue the whole trace
// against the initial head and sweep state and then pop a fixed queued set
// — wall-clock jitter has nothing left to perturb. The guarantee holds for
// every policy the layer can serve, not only pure v_c order. (FD-SCAN and SSEDV read the
// clock in Next, and the two sides' clocks do differ; they agree here
// because the trace's deadlines are far off and 1 µs apart, so whichever
// clock is asked sees them all feasible or all expired together.)
func TestDispatcherExactSimOrder(t *testing.T) {
	model := disk.MustModel(disk.QuantumXP32150Params())
	sm := disk.ServiceModel{Disk: model}
	for _, pol := range servedPolicies() {
		trace := zeroArrivalTrace(96)
		var simOrder []uint64
		if _, err := sim.Run(sim.Config{
			Disk: model, Scheduler: pol.New(model.ServiceTime, 8),
			Options: sim.Options{Trace: func(ev sim.TraceEvent) {
				if !ev.Dropped {
					simOrder = append(simOrder, ev.Request.ID)
				}
			}},
		}, trace); err != nil {
			t.Fatalf("%s: sim.Run: %v", pol.Name, err)
		}

		clock, _ := NewClock(50_000)
		be, err := NewEmulatedDisk(sm, clock)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := newTestDispatcher(t, Config{Sched: pol.New(model.ServiceTime, 8), Backend: be, Clock: clock})
		if err := Preload(context.Background(), d, trace); err != nil {
			t.Fatalf("%s: Preload: %v", pol.Name, err)
		}
		d.Start(context.Background())
		if err := d.Drain(context.Background()); err != nil {
			t.Fatalf("%s: Drain: %v", pol.Name, err)
		}

		recs := d.Records()
		if len(recs) != len(simOrder) {
			t.Fatalf("%s: live served %d, sim served %d", pol.Name, len(recs), len(simOrder))
		}
		for i, rec := range recs {
			if rec.ID != simOrder[i] {
				t.Fatalf("%s: dispatch order diverges at %d: live %d, sim %d", pol.Name, i, rec.ID, simOrder[i])
			}
		}
	}
}

// TestServedCascadeWeighsDeadlines pins that the cascade the serving tests
// hand the dispatcher weighs deadlines: two requests at one priority level
// and one cylinder differ only in their deadline, so every discipline must
// dispatch the nearer one first, although it was queued second.
func TestServedCascadeWeighsDeadlines(t *testing.T) {
	for _, pol := range servedPolicies() {
		if !strings.HasPrefix(pol.Name, "cascaded-") {
			continue
		}
		d, _ := newTestDispatcher(t, Config{Sched: pol.New(nil, 8)})
		far := &core.Request{ID: 1, Priorities: []int{3}, Deadline: 690_000, Cylinder: 1000, Size: 4096}
		near := &core.Request{ID: 2, Priorities: []int{3}, Deadline: 400_000, Cylinder: 1000, Size: 4096}
		if err := Preload(context.Background(), d, []*core.Request{far, near}); err != nil {
			t.Fatalf("%s: Preload: %v", pol.Name, err)
		}
		d.Start(context.Background())
		if err := d.Drain(context.Background()); err != nil {
			t.Fatalf("%s: Drain: %v", pol.Name, err)
		}
		if recs := d.Records(); len(recs) != 2 || recs[0].ID != near.ID {
			t.Errorf("%s: records %+v, want request %d (the 400 ms deadline) first", pol.Name, recs, near.ID)
		}
	}
}

func TestDispatcherBackpressure(t *testing.T) {
	gate := make(chan struct{})
	be := &fakeBackend{gate: gate}
	d, m := newTestDispatcher(t, Config{Backend: be, MaxQueue: 2})
	d.Start(context.Background())

	if err := d.Submit(context.Background(), reqAt(1, 100, 4096)); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	waitFor(t, "first dispatch", func() bool { return m.Dispatched.Load() == 1 })
	if err := d.Submit(context.Background(), reqAt(2, 200, 4096)); err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	// Quota is now exhausted (one serving, one queued): the third submit
	// must block until a completion frees it.
	third := make(chan error, 1)
	go func() { third <- d.Submit(context.Background(), reqAt(3, 300, 4096)) }()
	waitFor(t, "backpressure wait", func() bool { return m.BackpressureWaits.Load() == 1 })
	select {
	case err := <-third:
		t.Fatalf("third Submit returned early: %v", err)
	default:
	}
	close(gate)
	if err := <-third; err != nil {
		t.Fatalf("third Submit after release: %v", err)
	}
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := m.Completed.Load(); got != 3 {
		t.Fatalf("Completed = %d, want 3", got)
	}
}

// TestDispatcherBackpressureSubmitCancel pins that a submitter blocked on
// the quota can bail out via its own context.
func TestDispatcherBackpressureSubmitCancel(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	be := &fakeBackend{gate: gate}
	d, m := newTestDispatcher(t, Config{Backend: be, MaxQueue: 1})
	d.Start(context.Background())
	if err := d.Submit(context.Background(), reqAt(1, 100, 4096)); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan error, 1)
	go func() { blocked <- d.Submit(ctx, reqAt(2, 200, 4096)) }()
	waitFor(t, "backpressure wait", func() bool { return m.BackpressureWaits.Load() == 1 })
	cancel()
	if err := <-blocked; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Submit = %v, want context.Canceled", err)
	}
	d.Stop()
}

func TestDispatcherStopAbandons(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	be := &fakeBackend{gate: gate}
	// Each case parks one request in the backend and leaves queued ones
	// behind it. Stop must cancel the former, dispatch nothing further, and
	// account them all.
	for _, queued := range []int{2, 5} {
		d, m := newTestDispatcher(t, Config{Backend: be})
		d.Start(context.Background())
		total := 1 + queued
		for i := 1; i <= total; i++ {
			if err := d.Submit(context.Background(), reqAt(uint64(i), i*100, 4096)); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
		}
		waitFor(t, "dispatch", func() bool { return m.Dispatched.Load() == 1 })
		d.Stop()
		if got := m.Abandoned.Load(); got != uint64(total) {
			t.Fatalf("%d queued: Abandoned = %d, want %d", queued, got, total)
		}
		if got := m.Completed.Load(); got != 0 {
			t.Fatalf("%d queued: Completed = %d, want 0", queued, got)
		}
		if got := m.Dispatched.Load(); got != 1 {
			t.Fatalf("%d queued: Dispatched = %d after Stop, want 1", queued, got)
		}
		var abandoned int
		for _, rec := range d.Records() {
			if rec.Abandoned {
				abandoned++
			}
		}
		if abandoned != 1 {
			t.Fatalf("%d abandoned records, want 1 (the service in flight)", abandoned)
		}
		// Stop is idempotent and the ingress stays shut.
		d.Stop()
		if err := d.Submit(context.Background(), reqAt(99, 0, 4096)); !errors.Is(err, ErrClosed) {
			t.Fatalf("Submit after Stop = %v, want ErrClosed", err)
		}
		checkLedger(t, d, m)
	}

	// Stop before Start: staged work must not stay outstanding forever, is
	// counted once however often Stop is called, and a late Start cannot
	// serve what the ledger already wrote off.
	d, m := newTestDispatcher(t, Config{})
	if err := Preload(context.Background(), d, zeroArrivalTrace(10)); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	d.Stop()
	d.Stop()
	d.Start(context.Background())
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after Stop: %v", err)
	}
	if sub, ab, done := m.Submitted.Load(), m.Abandoned.Load(), m.Completed.Load(); sub != 10 || ab != 10 || done != 0 {
		t.Fatalf("never-started Stop: submitted %d abandoned %d completed %d, want 10/10/0", sub, ab, done)
	}
	checkLedger(t, d, m)
}

// boundBackend counts concurrent services, parks each on gate, and at
// every entry counts a breach when the ledger holds more than one
// dispatched but unfinished request.
type boundBackend struct {
	m               *Metrics
	gate            chan struct{}
	cur, peak, over atomic.Int64
}

func (b *boundBackend) Cylinders() int { return 0 }

func (b *boundBackend) Serve(ctx context.Context, _ *core.Request, _ int) (Completion, error) {
	n := b.cur.Add(1)
	defer b.cur.Add(-1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
	// Dispatched is read first, so a racing completion can only make the
	// difference smaller than it was.
	disp := int64(b.m.Dispatched.Load())
	unfinished := disp - int64(b.m.Completed.Load()+b.m.Dropped.Load()+b.m.Abandoned.Load())
	if unfinished > 1 {
		b.over.Add(1)
	}
	select {
	case <-b.gate:
	case <-ctx.Done():
		return Completion{}, ctx.Err()
	}
	return Completion{Service: 10}, nil
}

// TestDispatcherInFlightBound pins the one arm: with producers outrunning
// a parked backend the dispatcher serves exactly one request at a time,
// and at no dispatch does the ledger hold more than one request between
// dispatch and its end.
func TestDispatcherInFlightBound(t *testing.T) {
	const producers, perProducer = 4, 50
	be := &boundBackend{gate: make(chan struct{})}
	d, m := newTestDispatcher(t, Config{Backend: be})
	be.m = m
	d.Start(context.Background())
	submitConcurrently(t, d, producers, perProducer)
	waitFor(t, "a parked service", func() bool { return be.cur.Load() == 1 })
	// The worker is parked in the backend, so nothing else can be
	// dispatched until the gate opens.
	if got := m.Dispatched.Load(); got != 1 {
		t.Fatalf("%d dispatched with the service parked", got)
	}
	close(be.gate)
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := be.peak.Load(); got != 1 {
		t.Errorf("peak concurrent services %d, want 1", got)
	}
	if got := be.over.Load(); got != 0 {
		t.Errorf("%d dispatches overlapped an unfinished one", got)
	}
	if got := m.Completed.Load(); got != producers*perProducer {
		t.Errorf("Completed = %d, want %d", got, producers*perProducer)
	}
	checkLedger(t, d, m)
}

// TestDispatcherNoPerRequestAllocs pins that a warm Submit → Backend.Serve
// round trip on a started dispatcher allocates nothing: the workers are
// started once, so no request pays for a goroutine or a closure. The
// dispatcher and its scheduler both count into sinks, so the gate covers
// the instrumented path.
func TestDispatcherNoPerRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	done := make(chan struct{})
	clock, err := NewClock(1)
	if err != nil {
		t.Fatal(err)
	}
	s := fullyPreemptive()
	s.SetMetrics(&core.Metrics{})
	m := &Metrics{}
	d, err := New(Config{
		Sched: s, Clock: clock, Metrics: m,
		Backend: backendFunc(func(context.Context, *core.Request) error {
			done <- struct{}{}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start(context.Background())
	defer d.Stop()
	// A ring of requests, so none is resubmitted while its worker is still
	// accounting for its previous service.
	ring := zeroArrivalTrace(8)
	var i int
	roundTrip := func() {
		if err := d.Submit(context.Background(), ring[i%len(ring)]); err != nil {
			t.Fatal(err)
		}
		<-done
		i++
	}
	for range 100 {
		roundTrip()
	}
	if n := testing.AllocsPerRun(1000, roundTrip); n != 0 {
		t.Fatalf("%v allocations per round trip, want 0", n)
	}
	if m.Submitted.Load() == 0 || m.Dispatched.Load() == 0 {
		t.Errorf("instrumentation recorded nothing: submitted=%d dispatched=%d", m.Submitted.Load(), m.Dispatched.Load())
	}
}

// backendFunc adapts a function to a geometry-less Backend charging a fixed
// 10 µs per successful service.
type backendFunc func(ctx context.Context, r *core.Request) error

func (f backendFunc) Cylinders() int { return 0 }

func (f backendFunc) Serve(ctx context.Context, r *core.Request, _ int) (Completion, error) {
	return Completion{Service: 10}, f(ctx, r)
}

// TestDispatcherHostileBackends serves a staged FCFS trace (so dispatch
// order is ID order) against backends that misbehave, and checks that the
// ledger is conserved whatever the backend does.
func TestDispatcherHostileBackends(t *testing.T) {
	const n = 12
	for _, tc := range []struct {
		name      string
		backend   Backend
		drainFor  time.Duration // 0: no deadline
		wantErr   error
		completed uint64
		fails     func(id uint64) bool // which dispatched services end abandoned
	}{
		{"serve errors", backendFunc(func(_ context.Context, r *core.Request) error {
			if r.ID%3 == 0 {
				return errors.New("medium error")
			}
			return nil
		}), 0, nil, 8, func(id uint64) bool { return id%3 == 0 }},
		{"stall past the drain deadline", &fakeBackend{gate: make(chan struct{})},
			20 * time.Millisecond, context.DeadlineExceeded, 0, func(uint64) bool { return true }},
	} {
		d, m := newTestDispatcher(t, Config{Sched: sched.NewFCFS(), Backend: tc.backend})
		if err := Preload(context.Background(), d, zeroArrivalTrace(n)); err != nil {
			t.Fatalf("%s: Preload: %v", tc.name, err)
		}
		d.Start(context.Background())
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if tc.drainFor > 0 {
			ctx, cancel = context.WithTimeout(ctx, tc.drainFor)
		}
		err := d.Drain(ctx)
		cancel()
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: Drain = %v, want %v", tc.name, err, tc.wantErr)
		}
		if done, ab := m.Completed.Load(), m.Abandoned.Load(); done != tc.completed || ab != n-tc.completed {
			t.Fatalf("%s: completed %d abandoned %d, want %d/%d", tc.name, done, ab, tc.completed, n-tc.completed)
		}
		checkLedger(t, d, m)
		for i, rec := range d.Records() {
			if rec.ID != uint64(i+1) {
				t.Fatalf("%s: record %d is request %d; FCFS dispatch order is ID order", tc.name, i, rec.ID)
			}
			if rec.Abandoned != tc.fails(rec.ID) {
				t.Fatalf("%s: request %d abandoned = %v, want %v", tc.name, rec.ID, rec.Abandoned, tc.fails(rec.ID))
			}
		}
	}
}

func TestDispatcherDropLate(t *testing.T) {
	trace := []*core.Request{}
	for i := 1; i <= 8; i++ {
		r := reqAt(uint64(i), i*400, 4096)
		if i%2 == 0 {
			// The model clock is well past 1 µs by the time a worker runs.
			r.Deadline = 1
		}
		trace = append(trace, r)
	}
	// Real time: the 1 ms warm-up below puts the model clock at ~1 ms — past
	// the 1 µs deadlines, and 600 ms of wall time short of the ~600 ms ones.
	// A loaded -race run can stall past a margin of a few milliseconds
	// (6 ms at dilation 100) before the last dispatch.
	clock, _ := NewClock(1)
	d, m := newTestDispatcher(t, Config{DropLate: true, Clock: clock})
	if err := Preload(context.Background(), d, trace); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	time.Sleep(time.Millisecond)
	d.Start(context.Background())
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := m.Dropped.Load(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	if got := m.Completed.Load(); got != 4 {
		t.Fatalf("Completed = %d, want 4", got)
	}
	for _, rec := range d.Records() {
		if want := rec.ID%2 == 0; rec.Dropped != want {
			t.Fatalf("request %d: dropped = %v, want %v", rec.ID, rec.Dropped, want)
		}
	}
}

func TestDispatcherHeadTracking(t *testing.T) {
	model := disk.MustModel(disk.QuantumXP32150Params())
	clock, _ := NewClock(50_000)
	be, _ := NewEmulatedDisk(disk.ServiceModel{Disk: model}, clock)
	d, m := newTestDispatcher(t, Config{Backend: be, Clock: clock})
	trace := []*core.Request{reqAt(1, 1000, 4096), reqAt(2, 3000, 4096), reqAt(3, 2000, 4096)}
	if err := Preload(context.Background(), d, trace); err != nil {
		t.Fatal(err)
	}
	d.Start(context.Background())
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Whatever order the scheduler chose, total travel is the sum of the
	// per-record head-to-target distances starting from cylinder 0.
	var travel int64
	head := 0
	for _, rec := range d.Records() {
		if rec.Head != head {
			t.Fatalf("record %d departs from head %d, dispatcher head was %d", rec.ID, rec.Head, head)
		}
		travel += int64(max(rec.Target-rec.Head, rec.Head-rec.Target))
		head = rec.Target
	}
	if d.HeadTravel() != travel {
		t.Fatalf("HeadTravel = %d, records sum to %d", d.HeadTravel(), travel)
	}
	if got := int64(m.HeadTravelCylinders.Load()); got != travel {
		t.Fatalf("HeadTravelCylinders = %d, want %d", got, travel)
	}
	if d.Head() != head {
		t.Fatalf("Head = %d, want %d", d.Head(), head)
	}
}

// A backend without geometry (Cylinders() == 0) moves the head to each raw
// target for free, as a sim.Station with no disk model does: the decision
// is sim.Pick on both sides, so neither counts travel.
func TestDispatcherNoGeometryNoTravel(t *testing.T) {
	d, m := newTestDispatcher(t, Config{})
	trace := []*core.Request{reqAt(1, 1000, 4096), reqAt(2, 3000, 4096), reqAt(3, 2000, 4096)}
	if err := Preload(context.Background(), d, trace); err != nil {
		t.Fatal(err)
	}
	d.Start(context.Background())
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs := d.Records()
	if len(recs) != len(trace) {
		t.Fatalf("got %d records, want %d", len(recs), len(trace))
	}
	if got := d.HeadTravel(); got != 0 {
		t.Errorf("HeadTravel = %d without geometry, want 0", got)
	}
	if got := m.HeadTravelCylinders.Load(); got != 0 {
		t.Errorf("HeadTravelCylinders = %d without geometry, want 0", got)
	}
	if last := recs[len(recs)-1]; d.Head() != last.Target || last.Target != trace[last.ID-1].Cylinder {
		t.Errorf("Head = %d, last target %d: the head must rest on the raw cylinder", d.Head(), last.Target)
	}
}
