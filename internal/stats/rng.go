// Package stats provides deterministic pseudo-random number generation,
// distribution samplers, and summary statistics for the simulator.
//
// The simulator must be reproducible across runs, platforms, and Go
// versions, so it does not use math/rand (whose stream is not guaranteed
// stable across releases). Instead it ships a small PCG64-style generator
// seeded explicitly by every experiment.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator built on the
// SplitMix64 mixing function (Steele, Lea & Flood 2014), whose output
// passes BigCrush. The zero value is not valid; use NewRNG.
type RNG struct {
	state uint64
}

// goldenGamma is the SplitMix64 state increment (2^64 / phi, odd).
const goldenGamma = 0x9e3779b97f4a7c15

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams; the seed is scrambled so that nearby
// seeds land far apart in the underlying sequence.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r in place to the stream NewRNG(seed) would produce, so
// pooled per-run state can recycle a generator without allocating.
func (r *RNG) Seed(seed uint64) {
	r.state = mix64(seed ^ 0x6a09e667f3bcc909)
}

// Split derives an independent generator from r's stream. The child stream
// is a deterministic function of r's state, so experiment components can be
// given private generators without coupling their draws.
func (r *RNG) Split() *RNG {
	return &RNG{state: mix64(r.Uint64() ^ 0xd1b54a32d192ed03)}
}

// Uint64 returns the next 64 uniform pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += goldenGamma
	return mix64(r.state)
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method, debiased.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	x0, x1 := x&mask, x>>32
	y0, y1 := y&mask, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return hi, lo
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	// The division compiles to a product; float64(…) keeps it from fusing
	// into a caller's add once inlined (make nofma).
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Exponential returns a draw from the exponential distribution with the
// given mean (rate 1/mean). The mean must be positive.
func (r *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exponential with non-positive mean")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Gamma returns a draw from the gamma distribution with the given shape k
// and scale θ (mean k·θ), using the Marsaglia-Tsang squeeze method; shapes
// below 1 are boosted through Gamma(k+1)·U^(1/k). Gamma inter-arrival gaps
// generalize the Poisson process: shape < 1 clumps arrivals into bursts
// (CV 1/√k > 1), shape > 1 smooths them toward a pacing clock.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Gamma with non-positive shape or scale")
	}
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	// float64(…) rounds each product before its add or subtract: no
	// fused multiply-add (make nofma).
	for {
		x := r.Normal(0, 1)
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := r.Float64()
		// Squeeze check first (cheap), exact log check second. log(0) is
		// -Inf, which correctly rejects a zero uniform draw.
		if u < 1-float64(0.0331*x*x*x*x) || math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v * scale
		}
	}
}

// Weibull returns a draw from the Weibull distribution with the given
// shape k and scale λ (mean λ·Γ(1+1/k)), by inversion of the CDF through
// an exponential draw. Weibull inter-arrival gaps model aging processes:
// shape > 1 gives a rising hazard (near-periodic arrivals), shape < 1 a
// heavy tail of long silences punctuated by clusters.
func (r *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Weibull with non-positive shape or scale")
	}
	return scale * math.Pow(r.Exponential(1), 1/shape)
}

// Normal returns a draw from the normal distribution N(mu, sigma^2),
// using the Marsaglia polar method.
func (r *RNG) Normal(mu, sigma float64) float64 {
	// float64(…) rounds each product before its add: no fused
	// multiply-add (make nofma).
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return mu + float64(sigma*u*math.Sqrt(-2*math.Log(s)/s))
		}
	}
}

// NormalLevel draws an integer level in [0, levels) from a discretized
// normal centered on the middle level with the given relative spread
// (sigma = spread * levels). Draws outside the range are clamped, which
// matches the paper's "normal distribution of requests across the different
// [priority] levels".
func (r *RNG) NormalLevel(levels int, spread float64) int {
	if levels <= 0 {
		panic("stats: NormalLevel with non-positive levels")
	}
	mu := float64(levels-1) / 2
	v := int(math.Round(r.Normal(mu, spread*float64(levels))))
	if v < 0 {
		v = 0
	}
	if v >= levels {
		v = levels - 1
	}
	return v
}

// Zipf draws an integer in [0, n) with probability proportional to
// 1/(k+1)^s, using inverse-CDF over precomputed weights held by z.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a Zipf sampler over n items with exponent s >= 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Draw returns the next Zipf-distributed index.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
