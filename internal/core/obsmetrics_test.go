package core

import (
	"io"
	"strings"
	"sync"
	"testing"

	"sfcsched/internal/obs"
)

// TestDispatcherMetrics drives a windowed dispatcher through a
// preemption, a promotion, a swap and an ER reset and checks each counter.
func TestDispatcherMetrics(t *testing.T) {
	d := MustDispatcher(DispatcherConfig{
		Mode: ConditionallyPreemptive, Window: 10, SP: true, ER: true, Expansion: 2,
	})
	m := &Metrics{}
	d.SetMetrics(m)

	adds := uint64(0)
	add := func(r *Request, v uint64) {
		d.Add(r, v)
		adds++
	}
	// Seed a batch and dispatch one to set the in-service value (100), then
	// force one preemption (50 clears the window against 100), one waiting
	// arrival (95, inside the expanded window against 100 but clearing it
	// against the eventual next request 200 — an SP promotion), and finally
	// a non-preempting dispatch of 200 that resets the expanded window.
	add(&Request{ID: 1}, 100)
	add(&Request{ID: 2}, 200)
	d.Next()                 // swap; serves 100
	add(&Request{ID: 3}, 50) // 50 < 100-10: preempts, window 10 -> 20
	add(&Request{ID: 4}, 95) // 95 >= 100-20: waits
	d.Next()                 // serves 50 (preempter: window stays expanded)
	d.Next()                 // SP promotes 95 (window 20 -> 40), serves it
	for d.Next() != nil {    // serves 200: non-preempter, window resets
	}

	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Preemptions", m.Preemptions.Load(), 1},
		{"Promotions", m.Promotions.Load(), 1},
		{"Swaps", m.Swaps.Load(), 1},
		// Every preemption and promotion expands the ER window.
		{"WindowExpansions", m.WindowExpansions.Load(), 2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if got := m.Adds.Load(); got != adds {
		t.Errorf("Adds counter = %d, want %d", got, adds)
	}
	// The expanded window must have been reset by a non-preempting dispatch.
	if m.WindowResets.Load() == 0 {
		t.Error("WindowResets = 0, want > 0")
	}
	if m.QueueDepthHiWater.Load() < 2 {
		t.Errorf("QueueDepthHiWater = %d, want >= 2", m.QueueDepthHiWater.Load())
	}
}

func TestSchedulerMetrics(t *testing.T) {
	s := MustScheduler("x", shardedTestConfig(), DispatcherConfig{Mode: FullyPreemptive}, 0)
	m := &Metrics{}
	s.SetMetrics(m)
	if s.disp.Metrics() != m {
		t.Fatal("SetMetrics must install the sink on the dispatcher")
	}

	for i := 0; i < 10; i++ {
		s.Add(&Request{ID: uint64(i), Priorities: []int{1, 2, 3}, Deadline: 500, Cylinder: i * 100, Arrival: int64(i)}, int64(i), 0)
	}
	n := 0
	for s.Next(100, 500) != nil {
		n++
	}
	if n != 10 {
		t.Fatalf("dispatched %d, want 10", n)
	}
	if got := m.Dispatches.Load(); got != 10 {
		t.Errorf("Dispatches = %d, want 10", got)
	}
	if got := m.DispatchWait.Count(); got != 10 {
		t.Errorf("DispatchWait count = %d, want 10", got)
	}
	// All 10 waits are 100-arrival in [91, 100]: mean must land there too.
	if mean := float64(m.DispatchWait.Sum()) / 10; mean < 91 || mean > 100 {
		t.Errorf("DispatchWait mean = %v, want in [91, 100]", mean)
	}
	if m.QueueDepthHiWater.Load() != 10 {
		t.Errorf("QueueDepthHiWater = %d, want 10", m.QueueDepthHiWater.Load())
	}
	// The head moved 0 -> 500, so the sweep gauge must show 500.
	if got := m.SweepProgress.Load(); got != 500 {
		t.Errorf("SweepProgress = %d, want 500", got)
	}
}

func TestShardedSchedulerMetrics(t *testing.T) {
	s := mustLocked(shardedTestConfig())
	m := &Metrics{}
	s.SetMetrics(m)

	for i := 0; i < 8; i++ {
		s.Add(&Request{ID: uint64(i), Priorities: []int{1, 0, 0}, Deadline: 500, Cylinder: i * 10, Arrival: 0}, 0, 0)
	}
	for s.Next(50, 0) != nil {
	}
	if m.Adds.Load() != 8 || m.Dispatches.Load() != 8 {
		t.Errorf("Adds/Dispatches = %d/%d, want 8/8", m.Adds.Load(), m.Dispatches.Load())
	}
	if m.QueueDepthHiWater.Load() != 8 {
		t.Errorf("QueueDepthHiWater = %d, want 8", m.QueueDepthHiWater.Load())
	}
	if m.DispatchWait.Count() != 8 {
		t.Errorf("DispatchWait count = %d, want 8", m.DispatchWait.Count())
	}
}

// TestMetricsScrapeUnderConcurrentDispatch is the -race gate for the new
// concurrent path: a Prometheus scrape must be able to run while producer
// goroutines Add and a consumer drains, without a data race or a torn read
// crashing the exporter.
func TestMetricsScrapeUnderConcurrentDispatch(t *testing.T) {
	s := mustLocked(shardedTestConfig())
	m := &Metrics{}
	s.SetMetrics(m)
	reg := obs.NewRegistry()
	if err := m.Register(reg, "race"); err != nil {
		t.Fatal(err)
	}

	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.Add(&Request{
					ID:         uint64(p*perProducer + i),
					Priorities: []int{i % 8, 0, 0},
					Deadline:   500_000,
					Cylinder:   (i * 37) % 3832,
				}, int64(i), i%3832)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { // scraper
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape failed: %v", err)
				return
			}
		}
	}()
	drained := 0
	for drained < producers*perProducer {
		if s.Next(1000, drained%3832) != nil {
			drained++
		}
	}
	wg.Wait()
	<-done
	if m.Adds.Load() != producers*perProducer || m.Dispatches.Load() != producers*perProducer {
		t.Errorf("adds/dispatches = %d/%d, want %d", m.Adds.Load(), m.Dispatches.Load(), producers*perProducer)
	}
	if s.Len() != 0 || m.QueueDepthHiWater.Load() < 1 {
		t.Errorf("len = %d, hiwater = %d", s.Len(), m.QueueDepthHiWater.Load())
	}
}

// TestMetricsRegister checks the full field set exports cleanly.
func TestMetricsRegister(t *testing.T) {
	reg := obs.NewRegistry()
	m := &Metrics{}
	if err := m.Register(reg, "sfcsched"); err != nil {
		t.Fatal(err)
	}
	// Duplicate prefix must fail, not silently shadow.
	if err := m.Register(reg, "sfcsched"); err == nil {
		t.Error("duplicate registration accepted")
	}
	m.Preemptions.Inc()
	m.DispatchWait.Observe(42)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"sfcsched_preemptions_total 1",
		"sfcsched_dispatch_wait_us_count 1",
		"sfcsched_queue_depth_hiwater 0",
		"sfcsched_sweep_progress_cylinders 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	if n := strings.Count(out, "# HELP "); n != 10 {
		t.Errorf("prometheus output has %d metric families, want 10", n)
	}
}
