// Package obs is the runtime observability layer: allocation-free atomic
// counters, gauges and log-bucketed histograms for the scheduler hot paths,
// plus a registry that exports them in Prometheus text format.
//
// Design constraints, in order:
//
//  1. Recording must be legal from the Add/Next hot paths, which are pinned
//     to zero allocations by the gates in internal/core. Every Record/Inc/
//     Observe below is a handful of atomic instructions on pre-allocated
//     memory — no maps, no interfaces, no locks.
//  2. Reading must be safe while writers are running (a scrape of /metrics
//     races live dispatch loops), so all state is atomic and snapshots are
//     per-field consistent rather than globally consistent — the standard
//     contract of production metric systems.
//  3. No external dependencies: the Prometheus text exposition format is
//     simple enough to emit directly.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, sweep progress). The zero
// value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement) and returns the new level.
func (g *Gauge) Add(d int64) int64 { return g.v.Add(d) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// MaxGauge tracks the high-water mark of an observed level. The zero value
// is ready to use and reports 0 until the first observation.
type MaxGauge struct {
	v atomic.Int64
}

// Observe raises the high-water mark to v if v exceeds it. Lock-free:
// concurrent observers race a CAS and the loser rereads the merged maximum.
func (m *MaxGauge) Observe(v int64) {
	for {
		cur := m.v.Load()
		if v <= cur || m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the high-water mark.
func (m *MaxGauge) Load() int64 { return m.v.Load() }

// histBuckets is the bucket count of Histogram: bits.Len64 of the observed
// value, so bucket 0 holds exact zeros and bucket k holds values in
// [2^(k-1), 2^k).
const histBuckets = 65

// Histogram is a log2-bucketed distribution of non-negative integer
// observations (latencies in microseconds, queue lengths, ...). Observe is
// allocation-free and wait-free: one Add to the bucket and one to the sum.
// There is no separate count: Count sums the buckets, so a count and the
// buckets read from one Snapshot always agree. The zero value is ready to
// use.
//
// Bucket k counts observations v with bits.Len64(v) == k, i.e. bucket 0 is
// v == 0 and bucket k >= 1 spans [2^(k-1), 2^k). Powers of two keep the
// bucket index a single instruction while bounding the relative
// quantile-estimation error by 2x — the resolution operational latency
// monitoring actually uses.
type Histogram struct {
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations: the sum of the buckets.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Snapshot copies the bucket counts. Index k corresponds to upper bound
// BucketBound(k); the copy is per-bucket consistent with respect to
// concurrent writers.
func (h *Histogram) Snapshot() [histBuckets]uint64 {
	var s [histBuckets]uint64
	for i := range h.buckets {
		s[i] = h.buckets[i].Load()
	}
	return s
}

// frozen copies h bucket by bucket into a histogram no writer touches, so
// its Count, Sum and Quantiles all describe one set of observations. The
// exporters read a live histogram through it.
func (h *Histogram) frozen() *Histogram {
	f := new(Histogram)
	for i := range h.buckets {
		f.buckets[i].Store(h.buckets[i].Load())
	}
	f.sum.Store(h.sum.Load())
	return f
}

// Quantiles estimates several quantiles from one consistent bucket
// snapshot, so p50/p95/p99 of a concurrently-written histogram come from
// the same set of observations. Each estimate is the inclusive upper bound
// of the log2 bucket containing that rank — an upper bound within 2x of
// the true value. Returns zeros when the histogram is empty.
func (h *Histogram) Quantiles(qs ...float64) []uint64 {
	s := h.Snapshot()
	out := make([]uint64, len(qs))
	for i, q := range qs {
		out[i] = quantileOf(&s, q)
	}
	return out
}

// quantileOf estimates the q-quantile of a bucket snapshot using the
// nearest-rank convention: the value at rank ceil(q·total) (1-based),
// clamped to [1, total]. A floor here would bias even-count medians to
// the upper element and make p99 of exactly 100 samples return the 100th
// rather than the 99th value.
func quantileOf(s *[histBuckets]uint64, q float64) uint64 {
	var total uint64
	for _, c := range s {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for k, c := range s {
		seen += c
		if seen >= rank {
			return BucketBound(k)
		}
	}
	return BucketBound(histBuckets - 1)
}

// BucketBound returns the inclusive upper bound of bucket k: 0 for k == 0,
// 2^k - 1 otherwise (MaxUint64 for the last bucket).
func BucketBound(k int) uint64 {
	if k <= 0 {
		return 0
	}
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}
