package core

import (
	"testing"
)

// counted is MustDispatcher with a Metrics sink installed, so a test can
// read its policy events.
func counted(cfg DispatcherConfig) *Dispatcher {
	d := MustDispatcher(cfg)
	d.SetMetrics(&Metrics{})
	return d
}

// add enqueues a bare request with value v and returns it.
func add(d *Dispatcher, id uint64, v uint64) *Request {
	r := &Request{ID: id}
	d.Add(r, v)
	return r
}

// drain pops every remaining request and returns the ID order.
func drain(d *Dispatcher) []uint64 {
	var ids []uint64
	for r := d.Next(); r != nil; r = d.Next() {
		ids = append(ids, r.ID)
	}
	return ids
}

func eq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFullyPreemptiveGlobalOrder(t *testing.T) {
	d := MustDispatcher(DispatcherConfig{Mode: FullyPreemptive})
	add(d, 1, 30)
	add(d, 2, 10)
	add(d, 3, 20)
	if got := drain(d); !eq(got, []uint64{2, 3, 1}) {
		t.Errorf("order = %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	d := MustDispatcher(DispatcherConfig{Mode: FullyPreemptive})
	for id := uint64(1); id <= 5; id++ {
		add(d, id, 7)
	}
	if got := drain(d); !eq(got, []uint64{1, 2, 3, 4, 5}) {
		t.Errorf("equal values should dispatch FIFO, got %v", got)
	}
}

func TestNonPreemptiveBatches(t *testing.T) {
	d := counted(DispatcherConfig{Mode: NonPreemptive})
	add(d, 1, 50)
	add(d, 2, 40)
	// Start the batch.
	if r := d.Next(); r.ID != 2 {
		t.Fatalf("first dispatch = %d, want 2", r.ID)
	}
	// A much higher priority arrival must still wait for the batch.
	add(d, 3, 1)
	if r := d.Next(); r.ID != 1 {
		t.Fatalf("second dispatch = %d, want 1 (batch member)", r.ID)
	}
	if r := d.Next(); r.ID != 3 {
		t.Fatalf("third dispatch = %d, want 3", r.ID)
	}
	if d.m.Swaps.Load() < 2 {
		t.Errorf("swaps = %d, want >= 2", d.m.Swaps.Load())
	}
}

func TestConditionalWindowBlocks(t *testing.T) {
	d := counted(DispatcherConfig{Mode: ConditionallyPreemptive, Window: 20})
	add(d, 1, 50)
	if d.Next().ID != 1 {
		t.Fatal("expected request 1")
	}
	add(d, 2, 40) // higher priority but inside the window: waits
	add(d, 3, 10) // significantly higher: preempts
	add(d, 4, 60) // lower priority: waits
	if r := d.Next(); r.ID != 3 {
		t.Fatalf("want preempter 3, got %d", r.ID)
	}
	if got := drain(d); !eq(got, []uint64{2, 4}) {
		t.Errorf("remaining order = %v", got)
	}
	if d.m.Preemptions.Load() != 1 {
		t.Errorf("preemptions = %d, want 1", d.m.Preemptions.Load())
	}
}

// TestPaperFigure4 reproduces the worked example of the paper's Figure 4:
// requests T1..T7 under the conditionally-preemptive scheduler with SP must
// be served in the order T1, T2, T5, T6, T3, T7, T4.
func TestPaperFigure4(t *testing.T) {
	d := counted(DispatcherConfig{Mode: ConditionallyPreemptive, Window: 20, SP: true})
	vals := map[uint64]uint64{1: 55, 2: 40, 3: 45, 4: 90, 5: 5, 6: 22, 7: 30}

	d.Add(&Request{ID: 1}, vals[1])
	if d.Next().ID != 1 {
		t.Fatal("T1 should be served immediately")
	}
	// T2, T3, T4 arrive while T1 is served; none clears the window.
	for _, id := range []uint64{2, 3, 4} {
		d.Add(&Request{ID: id}, vals[id])
	}
	if r := d.Next(); r.ID != 2 {
		t.Fatalf("after T1 want T2, got T%d", r.ID)
	}
	// T5, T6, T7 arrive while T2 is served; only T5 clears the window.
	for _, id := range []uint64{5, 6, 7} {
		d.Add(&Request{ID: id}, vals[id])
	}
	want := []uint64{5, 6, 3, 7, 4}
	if got := drain(d); !eq(got, want) {
		t.Errorf("remaining order = %v, want %v", got, want)
	}
	if d.m.Promotions.Load() != 2 {
		t.Errorf("promotions = %d, want 2 (T6 and T7)", d.m.Promotions.Load())
	}
}

func TestSPDisabledNoPromotion(t *testing.T) {
	d := counted(DispatcherConfig{Mode: ConditionallyPreemptive, Window: 20})
	add(d, 1, 55)
	d.Next()
	add(d, 2, 40)
	d.Next()     // serving 2; queue empty, swap brings in {2}... then 2 dispatched
	add(d, 3, 5) // would be promoted under SP once 2 finishes
	add(d, 4, 45)
	// 3 preempts (5 < 40-20), so it comes first regardless.
	if r := d.Next(); r.ID != 3 {
		t.Fatalf("want 3, got %d", r.ID)
	}
	if d.m.Promotions.Load() != 0 {
		t.Errorf("promotions = %d, want 0 without SP", d.m.Promotions.Load())
	}
}

func TestWindowZeroIsFullyPreemptive(t *testing.T) {
	d := MustDispatcher(DispatcherConfig{Mode: ConditionallyPreemptive, Window: 0})
	add(d, 1, 50)
	d.Next()
	add(d, 2, 49) // any improvement preempts when w = 0
	if r := d.Next(); r.ID != 2 {
		t.Errorf("w=0 should preempt on any improvement, got %d", r.ID)
	}
}

func TestHugeWindowIsNonPreemptive(t *testing.T) {
	d := counted(DispatcherConfig{Mode: ConditionallyPreemptive, Window: 1 << 62})
	add(d, 1, 50)
	d.Next()
	add(d, 2, 1)
	add(d, 3, 40)
	if got := drain(d); !eq(got, []uint64{2, 3}) {
		t.Errorf("order = %v (still value order within the next batch)", got)
	}
	if d.m.Preemptions.Load() != 0 {
		t.Errorf("preemptions = %d, want 0 with huge window", d.m.Preemptions.Load())
	}
}

func TestERExpandsAndResets(t *testing.T) {
	d := MustDispatcher(DispatcherConfig{
		Mode: ConditionallyPreemptive, Window: 10, ER: true, Expansion: 2,
	})
	add(d, 1, 100)
	d.Next()
	add(d, 2, 50) // preempts (50 < 90); window doubles to 20
	if d.Window() != 20 {
		t.Fatalf("window = %d, want 20 after one preemption", d.Window())
	}
	add(d, 3, 20) // preempts (20 < 50-20=30); window doubles to 40
	if d.Window() != 40 {
		t.Fatalf("window = %d, want 40", d.Window())
	}
	if d.Next().ID != 3 {
		t.Fatal("want preempter 3 first")
	}
	if d.Next().ID != 2 {
		t.Fatal("want preempter 2 next")
	}
	if d.Window() != 40 {
		t.Errorf("window should stay expanded while serving preempters, got %d", d.Window())
	}
	add(d, 4, 200)
	if d.Next().ID != 4 {
		t.Fatal("want 4")
	}
	if d.Window() != 10 {
		t.Errorf("window = %d, want reset to 10 after non-preempter dispatch", d.Window())
	}
}

func TestERGuardsAgainstAdversarialStream(t *testing.T) {
	// An adversary feeds requests that each clear the current window.
	// With ER, the window grows until arrivals stop preempting, bounding
	// how long the victim waits; without ER the victim waits for all of
	// them.
	const attackers = 50
	run := func(er bool) (victimPos int) {
		d := MustDispatcher(DispatcherConfig{
			Mode: ConditionallyPreemptive, Window: 5, ER: er, Expansion: 2,
		})
		add(d, 1, 100_000) // first attacker, enters service
		if d.Next().ID != 1 {
			t.Fatal("setup: attacker 1 should be in service")
		}
		add(d, 999, 200_000) // victim: lower priority than every attacker
		v := uint64(100_000)
		for i := 0; i < 10*attackers; i++ {
			// Each attacker undercuts the previous by just over the base
			// window, so with a fixed window every one of them preempts.
			if i < attackers {
				v -= 6
				add(d, uint64(i+2), v)
			}
			r := d.Next()
			if r == nil {
				t.Fatal("dispatcher drained unexpectedly")
			}
			if r.ID == 999 {
				return i + 2
			}
		}
		t.Fatal("victim never served")
		return 0
	}
	withER := run(true)
	withoutER := run(false)
	if withoutER <= attackers {
		t.Fatalf("setup broken: victim served at %d without ER", withoutER)
	}
	if withER >= withoutER/2 {
		t.Errorf("ER should serve the blocked request much sooner: with=%d without=%d", withER, withoutER)
	}
}

func TestEachVisitsAllQueued(t *testing.T) {
	d := MustDispatcher(DispatcherConfig{Mode: ConditionallyPreemptive, Window: 5})
	add(d, 1, 10)
	d.Next()
	add(d, 2, 1) // preempts -> q
	add(d, 3, 50)
	add(d, 4, 60)
	seen := map[uint64]bool{}
	d.Each(func(r *Request) { seen[r.ID] = true })
	if len(seen) != 3 || !seen[2] || !seen[3] || !seen[4] {
		t.Errorf("Each visited %v", seen)
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
}

func TestNextOnEmpty(t *testing.T) {
	d := MustDispatcher(DispatcherConfig{Mode: ConditionallyPreemptive, Window: 5})
	if d.Next() != nil {
		t.Error("empty dispatcher should return nil")
	}
	add(d, 1, 10)
	if d.Next().ID != 1 {
		t.Error("want request 1")
	}
	if d.Next() != nil {
		t.Error("drained dispatcher should return nil")
	}
}

func TestDispatcherValidation(t *testing.T) {
	if _, err := NewDispatcher(DispatcherConfig{Mode: PreemptMode(9)}); err == nil {
		t.Error("expected error for unknown mode")
	}
	for _, e := range []float64{0.5, 1} {
		if _, err := NewDispatcher(DispatcherConfig{Mode: ConditionallyPreemptive, ER: true, Expansion: e}); err == nil {
			t.Errorf("expected error for expansion %v <= 1", e)
		}
	}
	d, err := NewDispatcher(DispatcherConfig{Mode: ConditionallyPreemptive, ER: true})
	if err != nil || d.cfg.Expansion != 2 {
		t.Errorf("default expansion = %v, err %v", d.cfg.Expansion, err)
	}
}

func TestPreemptModeString(t *testing.T) {
	for m, want := range map[PreemptMode]string{
		NonPreemptive:           "non-preemptive",
		FullyPreemptive:         "fully-preemptive",
		ConditionallyPreemptive: "conditionally-preemptive",
		PreemptMode(42):         "PreemptMode(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(m), got, want)
		}
	}
}

func TestSchedulerEndToEnd(t *testing.T) {
	s := MustScheduler("test", EncapsulatorConfig{Levels: 8}, DispatcherConfig{Mode: FullyPreemptive}, 0)
	s.Add(&Request{ID: 1, Priorities: []int{5}}, 0, 0)
	s.Add(&Request{ID: 2, Priorities: []int{1}}, 0, 0)
	s.Add(&Request{ID: 3, Priorities: []int{3}}, 0, 0)
	want := []uint64{2, 3, 1}
	for _, id := range want {
		if r := s.Next(0, 0); r == nil || r.ID != id {
			t.Fatalf("want %d, got %v", id, r)
		}
	}
	if s.Name() != "test" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestSchedulerWindowFraction(t *testing.T) {
	s := MustScheduler("w", EncapsulatorConfig{Levels: 100},
		DispatcherConfig{Mode: ConditionallyPreemptive}, 0.1)
	if got := s.disp.Window(); got != 10 {
		t.Errorf("window = %d, want 10 (10%% of 100)", got)
	}
	if _, err := NewScheduler("bad", EncapsulatorConfig{Levels: 8},
		DispatcherConfig{Mode: FullyPreemptive}, 1.5); err == nil {
		t.Error("expected error for fraction > 1")
	}
}

// BenchmarkDispatcherAddNext times one Add and one Next over a standing
// queue of 4096 requests, per preemption mode, with a metrics sink
// installed: the dispatcher's share of a closed-loop scheduler cycle.
func BenchmarkDispatcherAddNext(b *testing.B) {
	const depth, valueSpace = 4096, 1 << 20
	val := func(i int) uint64 { return uint64(i*2654435761) % valueSpace }
	for _, v := range []struct {
		name string
		cfg  DispatcherConfig
	}{
		{"full", DispatcherConfig{Mode: FullyPreemptive}},
		{"cond", DispatcherConfig{Mode: ConditionallyPreemptive, Window: valueSpace / 20, SP: true, ER: true}},
		{"nonpre", DispatcherConfig{Mode: NonPreemptive}},
	} {
		b.Run(v.name, func(b *testing.B) {
			d := counted(v.cfg)
			reqs := make([]Request, depth+1)
			for i := range depth {
				d.Add(&reqs[i], val(i))
			}
			free, k := &reqs[depth], depth
			cycle := func() {
				d.Add(free, val(k))
				free = d.Next()
				k++
			}
			for range 4 * depth { // both queues grow to their steady capacity
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				cycle()
			}
		})
	}
}
