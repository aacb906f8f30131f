package core_test

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
)

// atZero is a head source parked at cylinder 0.
func atZero() int { return 0 }

// TestLockIdempotent pins the property that keeps a second mutex off every
// path: locking a *Locked hands the same value back.
func TestLockIdempotent(t *testing.T) {
	l := core.Lock(sched.NewFCFS())
	if core.Lock(l) != l {
		t.Fatal("Lock of a *Locked built a second wrapper")
	}
	if l.Name() != sched.NewFCFS().Name() {
		t.Fatalf("Name = %q, want the wrapped scheduler's", l.Name())
	}
}

// TestLockedAnySchedulerCloseRejects is the shutdown contract over a
// scheduler that is not a cascade: closed means rejecting, and what was
// accepted before Close still comes out, in the wrapped scheduler's order.
func TestLockedAnySchedulerCloseRejects(t *testing.T) {
	l := core.Lock(sched.NewFCFS())
	l.SetMetrics(&core.Metrics{}) // no redirectable metrics underneath: a no-op
	for id := uint64(1); id <= 3; id++ {
		if !l.TryAdd(&core.Request{ID: id}, 0, atZero) {
			t.Fatalf("open ingress rejected request %d", id)
		}
	}
	l.Close()
	l.Close() // idempotent
	if l.TryAdd(&core.Request{ID: 4}, 0, atZero) {
		t.Fatal("closed ingress accepted a request")
	}
	l.Add(&core.Request{ID: 5}, 0, 0)
	if l.Len() != 3 {
		t.Fatalf("Len after Close = %d, want 3", l.Len())
	}
	for want := uint64(1); want <= 3; want++ {
		if r := l.Next(0, 0); r == nil || r.ID != want {
			t.Fatalf("Next = %v, want request %d", r, want)
		}
	}
	if r := l.Next(0, 0); r != nil {
		t.Fatalf("drained ingress handed out %v", r)
	}
}

// TestValueSchedulersShareOneContract: every value-ordered constructor
// yields the same type, so each has redirectable counters that attribute
// dispatches as well as adds, the batch insert, the value-reporting add
// the simulator's queue view keeps values from, and the RequestValue and
// Window views that sim.ValueRanker and sim.WindowStater name (asserted as
// interfaces in internal/sim, which core cannot import).
func TestValueSchedulersShareOneContract(t *testing.T) {
	must := func(s sched.Scheduler, err error) sched.Scheduler {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	full := core.DispatcherConfig{Mode: core.FullyPreemptive}
	schedulers := []sched.Scheduler{
		must(core.NewScheduler("cascaded-sfc", core.EncapsulatorConfig{Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 800_000}, full, 0)),
		core.EmulateFCFS(),
		core.EmulateEDF(),
		core.EmulateSSTF(),
		core.EmulateCSCAN(3832),
		core.EmulateMultiQueue(8),
		must(core.NewSingleStageScheduler("single-hilbert", "hilbert", 2, 8, 1_000_000, 3832)),
	}
	for _, s := range schedulers {
		t.Run(s.Name(), func(t *testing.T) {
			v, ok := s.(interface {
				SetMetrics(*core.Metrics)
				AddBatch(rs []*core.Request, now int64, head int)
				AddValue(r *core.Request, now int64, head int) uint64
				RequestValue(r *core.Request, now int64, head int) uint64
				Window() uint64
			})
			if !ok {
				t.Fatalf("%T lacks SetMetrics, AddBatch, AddValue, RequestValue or Window", s)
			}
			m := &core.Metrics{}
			v.SetMetrics(m)
			reqs := make([]*core.Request, 6)
			for i := range reqs {
				reqs[i] = &core.Request{ID: uint64(i + 1), Priorities: []int{i % 8, 0}, Deadline: int64(100_000 * (i + 1)), Cylinder: 500 * i}
			}
			queued := v.AddValue(reqs[0], 0, 100)
			want := v.RequestValue(reqs[0], 0, 100)
			if again := v.RequestValue(reqs[0], 0, 100); again != want {
				t.Errorf("RequestValue is not read-only: %d then %d", want, again)
			}
			if queued != want {
				t.Errorf("AddValue reported %d, the valuer gives %d", queued, want)
			}
			v.AddBatch(reqs[1:], 0, 100)
			if s.Len() != len(reqs) {
				t.Errorf("%d queued after adding %d", s.Len(), len(reqs))
			}
			if v.Window() != 0 {
				t.Errorf("Window = %d on a fully-preemptive dispatcher", v.Window())
			}
			for head := 100; s.Len() > 0; {
				head = s.Next(0, head).Cylinder
			}
			n := uint64(len(reqs))
			if m.Adds.Load() != n || m.Dispatches.Load() != n {
				t.Errorf("adds=%d dispatches=%d, want both %d", m.Adds.Load(), m.Dispatches.Load(), n)
			}
		})
	}
}
