package core_test

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
)

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
		if !l.TryAdd(&core.Request{ID: id}, 0, 0) {
			t.Fatalf("open ingress rejected request %d", id)
		}
	}
	l.Close()
	l.Close() // idempotent
	if l.TryAdd(&core.Request{ID: 4}, 0, 0) {
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
