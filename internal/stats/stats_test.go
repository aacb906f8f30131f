package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at draw %d", i)
		}
	}
}

func TestRNGSeedsIndependent(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d identical draws from different seeds", same)
	}
}

func TestSplitDecorrelates(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	if parent.Uint64() == child.Uint64() {
		t.Error("split stream mirrors parent")
	}
}

func TestUint64nRange(t *testing.T) {
	r := NewRNG(3)
	f := func(n uint64) bool {
		n = n%1000 + 1
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nUniform(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", k, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(13)
	const mean, n = 25.0, 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(mean)
	}
	got := sum / n
	if math.Abs(got-mean) > 0.5 {
		t.Errorf("exponential sample mean = %.3f, want ~%.1f", got, mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(17)
	const mu, sigma, n = 5.0, 2.0, 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(mu, sigma)
		sum += v
		sq += v * v
	}
	gotMu := sum / n
	gotSigma := math.Sqrt(sq/n - gotMu*gotMu)
	if math.Abs(gotMu-mu) > 0.05 || math.Abs(gotSigma-sigma) > 0.05 {
		t.Errorf("normal sample: mu=%.3f sigma=%.3f, want %v, %v", gotMu, gotSigma, mu, sigma)
	}
}

func TestNormalLevelClamped(t *testing.T) {
	r := NewRNG(19)
	counts := make([]int, 8)
	for i := 0; i < 50000; i++ {
		l := r.NormalLevel(8, 0.25)
		if l < 0 || l >= 8 {
			t.Fatalf("level out of range: %d", l)
		}
		counts[l]++
	}
	// Middle levels should dominate the extremes.
	if counts[3] <= counts[0] || counts[4] <= counts[7] {
		t.Errorf("normal levels not centered: %v", counts)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(23)
	z := NewZipf(r, 10, 1.0)
	counts := make([]int, 10)
	for i := 0; i < 50000; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[9] {
		t.Errorf("zipf not skewed: first=%d last=%d", counts[0], counts[9])
	}
}

func TestZipfZeroExponentUniform(t *testing.T) {
	r := NewRNG(29)
	z := NewZipf(r, 4, 0)
	counts := make([]int, 4)
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[z.Draw()]++
	}
	for k, c := range counts {
		if math.Abs(float64(c)-draws/4) > 5*math.Sqrt(draws/4) {
			t.Errorf("bucket %d: %d draws, want ~%d", k, c, draws/4)
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	mean, sd := MeanStdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || sd != 2 {
		t.Errorf("mean=%v sd=%v, want 5, 2", mean, sd)
	}
	mean, sd = MeanStdDev(nil)
	if mean != 0 || sd != 0 {
		t.Error("nil slice should report zeros")
	}
}
