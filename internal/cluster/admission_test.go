package cluster

import (
	"math"
	"testing"
)

// Boundary: a bucket drained to exactly zero must refuse the next
// request at the same instant — exactly-empty is empty.
func TestTokenBucketExactlyEmpty(t *testing.T) {
	tb, err := NewTokenBucket(1, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Admit(0, 0) || !tb.Admit(0, 0) {
		t.Fatal("burst-2 bucket refused within its burst")
	}
	if tb.Admit(0, 0) {
		t.Error("exactly-empty bucket admitted a third request at t=0")
	}
}

// Boundary: after a long idle the bucket holds exactly its burst — the
// burst+1-th request at one instant is refused, so idle time never
// banks beyond the cap.
func TestTokenBucketExactlyFull(t *testing.T) {
	tb, err := NewTokenBucket(1, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Admit(0, 0) {
		t.Fatal("fresh bucket refused")
	}
	const idle = int64(10_000_000) // 10 s at 1000 tok/s banks far beyond burst 3
	for i := 0; i < 3; i++ {
		if !tb.Admit(0, idle) {
			t.Fatalf("refill-capped bucket refused request %d of its burst", i+1)
		}
	}
	if tb.Admit(0, idle) {
		t.Error("exactly-full bucket admitted burst+1 requests at one instant")
	}
}

// Boundary: refill is exact integer arithmetic — at 1000 tokens/s a
// token completes exactly every 1000 µs. One µs before the edge the
// request is refused; at the edge it is admitted; the bucket is then
// empty again.
func TestTokenBucketRefillAtTickEdge(t *testing.T) {
	tb, err := NewTokenBucket(1, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Admit(0, 0) {
		t.Fatal("fresh bucket refused")
	}
	if tb.Admit(0, 999) {
		t.Error("bucket admitted 1 µs before the token completed")
	}
	if !tb.Admit(0, 1000) {
		t.Error("bucket refused exactly at the token's completion edge")
	}
	if tb.Admit(0, 1000) {
		t.Error("spent token still admitted at the same instant")
	}
	// The partial refill consumed by the early probe must not be lost:
	// the next token still completes at t=2000.
	if tb.Admit(0, 1999) {
		t.Error("bucket admitted 1 µs before the second token")
	}
	if !tb.Admit(0, 2000) {
		t.Error("bucket refused the second token at its edge")
	}
}

// Each class owns an independent bucket; out-of-range classes clamp.
func TestTokenBucketPerClassIsolation(t *testing.T) {
	tb, err := NewTokenBucket(2, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Admit(0, 0) {
		t.Fatal("class 0 refused its burst")
	}
	if !tb.Admit(1, 0) {
		t.Error("class 1's bucket was drained by class 0")
	}
	if tb.Admit(0, 0) || tb.Admit(1, 0) {
		t.Error("drained class bucket admitted")
	}
	// Classes outside [0, classes) clamp to the nearest bucket.
	if tb.Admit(-3, 0) {
		t.Error("negative class admitted from drained bucket 0")
	}
	if tb.Admit(99, 0) {
		t.Error("overflow class admitted from drained last bucket")
	}
}

func TestTokenBucketValidation(t *testing.T) {
	for i, c := range []struct {
		classes     int
		rate, burst int64
	}{{0, 100, 10}, {1, 0, 10}, {1, 100, 0}, {-1, 100, 10}, {1, -5, 10},
		{1, 1, math.MaxInt64/microToken + 1}, {1, 1, 10_000_000_000_000}} {
		if _, err := NewTokenBucket(c.classes, c.rate, c.burst); err == nil {
			t.Errorf("case %d: NewTokenBucket(%d, %d, %d) accepted", i, c.classes, c.rate, c.burst)
		}
	}
}

// Burst and elapsed time come from outside (flags, replayed arrivals), so
// neither may wrap the micro-token arithmetic: the largest burst
// TestTokenBucketValidation lets through works, and any gap, however
// long, refills the bucket.
func TestTokenBucketOverflow(t *testing.T) {
	tb, err := NewTokenBucket(1, math.MaxInt64/microToken, math.MaxInt64/microToken)
	if err != nil {
		t.Fatalf("the largest burst was refused: %v", err)
	}
	for _, now := range []int64{0, 1, 2, math.MaxInt64} {
		if !tb.Admit(0, now) {
			t.Errorf("largest bucket refused at %d", now)
		}
	}

	tb, err = NewTokenBucket(1, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if !tb.Admit(0, 0) {
			t.Fatalf("full bucket refused admit %d", i)
		}
	}
	// 200 tokens/s over this gap is 2^64 + 184 micro-tokens: wrapped, the
	// refill read 184 and admitted nothing.
	for i := 0; i < 50; i++ {
		if !tb.Admit(0, 92233720368547759) {
			t.Fatalf("a bucket idle for 2 900 years refused admit %d", i)
		}
	}
	if tb.Admit(0, 92233720368547759) {
		t.Error("refilled bucket admitted more than its burst")
	}
}

func TestAlwaysAdmit(t *testing.T) {
	a := AlwaysAdmit{}
	for i := 0; i < 100; i++ {
		if !a.Admit(i%3, int64(i)) {
			t.Fatal("AlwaysAdmit refused")
		}
	}
}
