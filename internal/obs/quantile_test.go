package obs

import (
	"math/bits"
	"strings"
	"testing"
)

// quantile estimates from log2 buckets are inclusive bucket upper bounds:
// for a value v the estimate is 2^bits.Len64(v) - 1, i.e. within 2x above
// the true quantile. These tests pin that contract on distributions whose
// true quantiles are known exactly.

// bucketCeil returns the estimate the histogram must report for a true
// quantile value v.
func bucketCeil(v uint64) uint64 { return BucketBound(bits.Len64(v)) }

func TestQuantilesUniform(t *testing.T) {
	// Uniform 1..1000: true p50 = 500, p95 = 950, p99 = 990.
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	qs := h.Quantiles(0.50, 0.95, 0.99)
	for i, want := range []uint64{bucketCeil(500), bucketCeil(950), bucketCeil(990)} {
		if qs[i] != want {
			t.Errorf("uniform quantile %d = %d, want bucket bound %d", i, qs[i], want)
		}
	}
	// The estimate must be an upper bound within 2x of the true value.
	for i, truth := range []uint64{500, 950, 990} {
		if qs[i] < truth || qs[i] >= 2*truth {
			t.Errorf("quantile %d estimate %d outside [%d, %d)", i, qs[i], truth, 2*truth)
		}
	}
}

func TestQuantilesPointMass(t *testing.T) {
	// All observations equal: every quantile lands in the same bucket.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(42)
	}
	for _, q := range h.Quantiles(0, 0.5, 0.99, 1) {
		if q != bucketCeil(42) {
			t.Errorf("point-mass quantile = %d, want %d", q, bucketCeil(42))
		}
	}
}

func TestQuantilesBimodal(t *testing.T) {
	// 90 fast observations (~10) and 10 slow ones (~100000): p50 sits in
	// the fast mode, p95 and p99 in the slow mode — the shape quantile
	// export exists to expose and a mean hides.
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100_000)
	}
	qs := h.Quantiles(0.50, 0.95, 0.99)
	if qs[0] != bucketCeil(10) {
		t.Errorf("bimodal p50 = %d, want fast-mode bound %d", qs[0], bucketCeil(10))
	}
	for i, q := range qs[1:] {
		if q != bucketCeil(100_000) {
			t.Errorf("bimodal tail quantile %d = %d, want slow-mode bound %d", i, q, bucketCeil(100_000))
		}
	}
	if m := h.Sum() / h.Count(); m > 20_000 {
		t.Fatalf("sanity: bimodal mean %v unexpectedly above 20000", m)
	}
}

// Nearest-rank boundary behavior: the estimate is the value at rank
// ceil(q·total), 1-based, clamped to [1, total]. The distributions place
// neighboring ranks in different log2 buckets, so the old floor-based
// rank produces a different bucket bound and these cases fail pre-fix.
func TestQuantileNearestRankBoundaries(t *testing.T) {
	cases := []struct {
		name string
		obs  []uint64 // value repeated count times, as {value, count} pairs
		q    float64
		want uint64 // true nearest-rank value; estimate is its bucket bound
	}{
		// Even-count median: rank ceil(0.5·2)=1 is the LOWER element.
		// 63 and 64 straddle a bucket boundary (63 | 64..127).
		{"even-median-lower", []uint64{63, 1, 64, 1}, 0.5, 63},
		// p99 of exactly 100 samples is the 99th value, not the 100th.
		{"p99-of-100", []uint64{10, 99, 1000, 1}, 0.99, 10},
		// q=0 clamps to rank 1: the minimum.
		{"q0-min", []uint64{63, 1, 64, 1}, 0, 63},
		// q=1 is rank total: the maximum.
		{"q1-max", []uint64{63, 1, 64, 1}, 1, 64},
		// total=1: every q returns the single value.
		{"single-q0", []uint64{64, 1}, 0, 64},
		{"single-q50", []uint64{64, 1}, 0.5, 64},
		{"single-q1", []uint64{64, 1}, 1, 64},
		// total=100 uniform over a bucket boundary: values 28..127, so
		// p50 is the 50th value 77, p99 the 99th value 126.
		{"hundred-p50", uniformPairs(28, 127), 0.5, 77},
		{"hundred-p99", uniformPairs(28, 127), 0.99, 126},
		// Out-of-range probes clamp like q=0 / q=1.
		{"q-below-zero", []uint64{63, 1, 64, 1}, -0.5, 63},
		{"q-above-one", []uint64{63, 1, 64, 1}, 1.5, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for i := 0; i+1 < len(tc.obs); i += 2 {
				for n := uint64(0); n < tc.obs[i+1]; n++ {
					h.Observe(tc.obs[i])
				}
			}
			if got, want := h.Quantiles(tc.q)[0], bucketCeil(tc.want); got != want {
				t.Errorf("Quantiles(%v) = %d, want bucket bound %d of nearest-rank value %d",
					tc.q, got, want, tc.want)
			}
		})
	}
}

// uniformPairs builds {value, 1} pairs for every value in [lo, hi].
func uniformPairs(lo, hi uint64) []uint64 {
	var out []uint64
	for v := lo; v <= hi; v++ {
		out = append(out, v, 1)
	}
	return out
}

func TestQuantilesMatchesQuantile(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < 300; v += 7 {
		h.Observe(v * v)
	}
	probes := []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	qs := h.Quantiles(probes...)
	for i, p := range probes {
		if single := h.Quantiles(p)[0]; single != qs[i] {
			t.Errorf("batched Quantiles(%v) = %d, probed alone = %d", p, qs[i], single)
		}
	}
}

func TestQuantilesEmpty(t *testing.T) {
	var h Histogram
	for _, q := range h.Quantiles(0.5, 0.99) {
		if q != 0 {
			t.Errorf("empty histogram quantile = %d, want 0", q)
		}
	}
}

func TestPrometheusQuantileExport(t *testing.T) {
	reg := NewRegistry()
	var h Histogram
	mustRegister(t, reg, "lat_us", "latency", &h)
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_us_quantile gauge",
		`lat_us_quantile{quantile="0.5"} ` + itoa(bucketCeil(50)),
		`lat_us_quantile{quantile="0.95"} ` + itoa(bucketCeil(95)),
		`lat_us_quantile{quantile="0.99"} ` + itoa(bucketCeil(99)),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
