package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("zero value = %d, want 0", c.Load())
	}
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	if g.Add(-10) != -3 || g.Load() != -3 {
		t.Fatalf("gauge arithmetic wrong: %d", g.Load())
	}
}

func TestMaxGauge(t *testing.T) {
	var m MaxGauge
	m.Observe(5)
	m.Observe(3) // lower: must not regress
	if m.Load() != 5 {
		t.Fatalf("hi-water = %d, want 5", m.Load())
	}
	m.Observe(9)
	if m.Load() != 9 {
		t.Fatalf("hi-water = %d, want 9", m.Load())
	}
}

func TestMaxGaugeConcurrent(t *testing.T) {
	var m MaxGauge
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				m.Observe(base + i)
			}
		}(int64(g) * 1000)
	}
	wg.Wait()
	if m.Load() != 8*1000-1 {
		t.Fatalf("concurrent hi-water = %d, want %d", m.Load(), 8*1000-1)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 1023, 1024, math.MaxUint64} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := map[int]uint64{
		0:  1, // 0
		1:  1, // 1
		2:  2, // 2,3
		3:  1, // 4
		10: 1, // 1023
		11: 1, // 1024
		64: 1, // MaxUint64
	}
	for k, c := range s {
		if c != want[k] {
			t.Errorf("bucket %d = %d, want %d", k, c, want[k])
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantiles(0.5)[0] != 0 {
		t.Fatalf("empty histogram quantile must be 0")
	}
	// 90 small values, 10 big ones: p50 lands in the small bucket, p99 in
	// the big one.
	for i := 0; i < 90; i++ {
		h.Observe(3)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	if q := h.Quantiles(0.5)[0]; q != BucketBound(2) {
		t.Errorf("p50 = %d, want %d", q, BucketBound(2))
	}
	if q := h.Quantiles(0.99)[0]; q != BucketBound(10) {
		t.Errorf("p99 = %d, want %d", q, BucketBound(10))
	}
	if s := h.Sum(); s != 90*3+10*1000 {
		t.Errorf("sum = %d", s)
	}
}

func TestBucketBound(t *testing.T) {
	cases := map[int]uint64{
		-1: 0, 0: 0, 1: 1, 2: 3, 10: 1023, 64: math.MaxUint64, 99: math.MaxUint64,
	}
	for k, want := range cases {
		if got := BucketBound(k); got != want {
			t.Errorf("BucketBound(%d) = %d, want %d", k, got, want)
		}
	}
}

// The record paths are called from the scheduler's zero-allocation Add/Next
// hot paths; pin that they never allocate.
func TestRecordPathsNoAllocs(t *testing.T) {
	var (
		c Counter
		g Gauge
		m MaxGauge
		h Histogram
	)
	i := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(i)
		g.Add(1)
		m.Observe(i)
		h.Observe(uint64(i))
		i++
	})
	if allocs != 0 {
		t.Errorf("record path allocates %v per op", allocs)
	}
}
