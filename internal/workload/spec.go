package workload

import (
	"fmt"
	"math"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// ArrivalProcess selects the renewal process a client draws inter-arrival
// gaps from. All three are parameterized by the mean gap, so swapping the
// process changes burstiness without changing offered load.
type ArrivalProcess int

const (
	// Poisson draws exponential gaps (CV 1) — the paper's §5 arrivals.
	Poisson ArrivalProcess = iota
	// GammaArrivals draws gamma gaps with a client-chosen shape: shape < 1
	// clumps requests into bursts (CV 1/√k > 1), shape > 1 paces them.
	GammaArrivals
	// WeibullArrivals draws Weibull gaps: shape > 1 approximates periodic
	// issue (rising hazard), shape < 1 heavy-tailed silences.
	WeibullArrivals

	// arrivalProcessCount bounds the enum; the statistical validation test
	// iterates to it so an unvalidated new process fails the build of the
	// test table.
	arrivalProcessCount
)

// String names the process for experiment notes and error messages.
func (p ArrivalProcess) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case GammaArrivals:
		return "gamma"
	case WeibullArrivals:
		return "weibull"
	default:
		return fmt.Sprintf("ArrivalProcess(%d)", int(p))
	}
}

// Window scales a client's arrival rate inside [From, To): the drawn gap
// is divided by Factor, so Factor > 1 is a flash crowd (more arrivals)
// and Factor < 1 a lull. Windows are checked against the clock *before*
// the gap is added, first match wins.
type Window struct {
	From, To int64
	Factor   float64
}

// Client is one cohort of a multi-client Spec: an independent arrival
// process with its own request shape, drawn from a private seed-offset RNG
// stream so adding, removing, or reordering other clients never perturbs
// its draws.
type Client struct {
	// Name labels the cohort in scenario notes; it does not affect draws.
	Name string
	// Count is the number of requests this client issues.
	Count int
	// MeanInterarrival is the mean gap between arrival epochs, µs.
	MeanInterarrival int64
	// Process selects the gap distribution; Shape parameterizes Gamma and
	// Weibull gaps (values <= 0 default to 1, which degenerates both to
	// Poisson).
	Process ArrivalProcess
	Shape   float64
	// Start offsets the client's arrival clock, µs (a cohort that joins
	// late).
	Start int64
	// Burst issues this many requests back-to-back per arrival epoch
	// (values < 1 mean 1).
	Burst int
	// Windows scales the arrival rate over time (flash crowds, diurnal
	// steps).
	Windows []Window
	// Dims and Levels shape the priority vector; Dist selects the level
	// distribution. Every client of a Spec must agree on Dims (the
	// scheduler's parameter space is fixed per run), Levels may differ.
	Dims   int
	Levels int
	Dist   PriorityDist
	// DeadlineMin/Max bound the uniformly drawn relative deadline, µs.
	// Zero disables deadlines.
	DeadlineMin int64
	DeadlineMax int64
	// Cylinders is the disk size; ZoneLo/ZoneHi (when ZoneHi > ZoneLo)
	// confine this client to [ZoneLo, ZoneHi). Sequential replaces uniform
	// placement with a draw-free sequential walk from the zone start (a
	// batch scrub).
	Cylinders  int
	ZoneLo     int
	ZoneHi     int
	Sequential bool
	// Size is the transfer size; SizeMin/SizeMax, when both positive,
	// scale it with the mean priority level as in Open.
	Size    int64
	SizeMin int64
	SizeMax int64
	// WriteFrac is the fraction of writes; ValueLevels assigns uniform
	// application values in [1, ValueLevels] when positive.
	WriteFrac   float64
	ValueLevels int
	// Tenant and Class tag every request of this cohort for the cluster
	// layer's routing, admission, and per-class accounting.
	Tenant int
	Class  int
}

func (c Client) validate(i, dims int) error {
	if c.Count <= 0 {
		return fmt.Errorf("workload: client %d (%s): Count must be positive, got %d", i, c.Name, c.Count)
	}
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("workload: client %d (%s): MeanInterarrival must be positive", i, c.Name)
	}
	if c.Process < 0 || c.Process >= arrivalProcessCount {
		return fmt.Errorf("workload: client %d (%s): unknown arrival process %d", i, c.Name, c.Process)
	}
	if c.Dims < 0 || c.Levels < 1 {
		return fmt.Errorf("workload: client %d (%s): invalid priority shape dims=%d levels=%d", i, c.Name, c.Dims, c.Levels)
	}
	if c.Dims != dims {
		return fmt.Errorf("workload: client %d (%s): Dims %d differs from the spec's %d; all clients must agree", i, c.Name, c.Dims, dims)
	}
	if c.DeadlineMax < c.DeadlineMin {
		return fmt.Errorf("workload: client %d (%s): DeadlineMax < DeadlineMin", i, c.Name)
	}
	if c.Start < 0 {
		return fmt.Errorf("workload: client %d (%s): Start must be non-negative", i, c.Name)
	}
	if c.ZoneLo != 0 || c.ZoneHi != 0 {
		if c.ZoneHi <= c.ZoneLo || c.ZoneLo < 0 || c.ZoneHi > c.Cylinders {
			return fmt.Errorf("workload: client %d (%s): zone [%d,%d) outside [0,%d)", i, c.Name, c.ZoneLo, c.ZoneHi, c.Cylinders)
		}
	}
	for j, w := range c.Windows {
		if w.To <= w.From || w.Factor <= 0 {
			return fmt.Errorf("workload: client %d (%s): window %d invalid ([%d,%d) factor %g)", i, c.Name, j, w.From, w.To, w.Factor)
		}
	}
	return nil
}

// zone returns the client's cylinder range [lo, hi).
func (c Client) zone() (lo, hi int) {
	if c.ZoneHi > c.ZoneLo {
		return c.ZoneLo, c.ZoneHi
	}
	return 0, c.Cylinders
}

// rateFactor returns the arrival-rate multiplier in effect at time now.
func (c Client) rateFactor(now int64) float64 {
	for _, w := range c.Windows {
		if now >= w.From && now < w.To {
			return w.Factor
		}
	}
	return 1
}

// gap draws the next inter-arrival gap at clock now (window factors are
// evaluated at the pre-gap clock).
func (c Client) gap(rng *stats.RNG, now int64) int64 {
	mean := float64(c.MeanInterarrival)
	shape := c.Shape
	if shape <= 0 {
		shape = 1
	}
	var g float64
	switch c.Process {
	case GammaArrivals:
		g = rng.Gamma(shape, mean/shape)
	case WeibullArrivals:
		g = rng.Weibull(shape, mean/math.Gamma(1+1/shape))
	default:
		g = rng.Exponential(mean)
	}
	return int64(g / c.rateFactor(now))
}

// Spec is a multi-client workload: a set of independent cohorts merged
// into one arrival-ordered trace. Each client draws from its own RNG
// stream derived from Seed by a fixed per-index offset, so the spec is
// deterministic and compositional: client k's requests are identical
// whatever the other clients do.
type Spec struct {
	Seed    uint64
	Clients []Client
}

func (s Spec) validate() (dims int, err error) {
	if len(s.Clients) == 0 {
		return 0, fmt.Errorf("workload: Spec needs at least one client")
	}
	dims = s.Clients[0].Dims
	for i, c := range s.Clients {
		if err := c.validate(i, dims); err != nil {
			return 0, err
		}
	}
	return dims, nil
}

// Count returns the total number of requests the spec generates.
func (s Spec) Count() int {
	n := 0
	for _, c := range s.Clients {
		n += c.Count
	}
	return n
}

// Dims returns the shared priority dimensionality of all clients.
func (s Spec) Dims() int {
	if len(s.Clients) == 0 {
		return 0
	}
	return s.Clients[0].Dims
}

// clientRNG builds client i's private stream. The offset multiplies the
// SplitMix64 golden increment by the 1-based index, so streams are far
// apart for any seed and client 0's stream differs from NewRNG(Seed) —
// the spec never aliases the single-stream generators.
func (s Spec) clientRNG(i int) *stats.RNG {
	return stats.NewRNG(s.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15))
}

// generate fills client c's requests through fill, which must return the
// i-th request with its Priorities already sized to c.Dims. Per request
// the draw order is: gap (first request of each
// burst epoch only), priority levels, deadline, cylinder (uniform
// placement only), write, value.
func (c Client) generate(rng *stats.RNG, fill func(i int) *core.Request) {
	var zipf *stats.Zipf
	if c.Dist == Zipf {
		zipf = stats.NewZipf(rng.Split(), c.Levels, 1.0)
	}
	burst := c.Burst
	if burst < 1 {
		burst = 1
	}
	lo, hi := c.zone()
	seq := lo // sequential walk position
	now := c.Start
	for i := 0; i < c.Count; i++ {
		if i%burst == 0 {
			now += c.gap(rng, now)
		}
		r := fill(i)
		r.Arrival = now
		r.Size = c.Size
		r.Tenant = c.Tenant
		r.Class = c.Class
		for k := range r.Priorities {
			r.Priorities[k] = drawLevel(rng, zipf, c.Dist, c.Levels)
		}
		if c.DeadlineMax > 0 {
			r.Deadline = now + c.DeadlineMin
			if span := c.DeadlineMax - c.DeadlineMin; span > 0 {
				r.Deadline += int64(rng.Uint64n(uint64(span) + 1))
			}
		}
		if c.SizeMin > 0 && c.SizeMax >= c.SizeMin && c.Dims > 0 && c.Levels > 1 {
			var sum int64
			for _, l := range r.Priorities {
				sum += int64(l)
			}
			r.Size = c.SizeMin + (c.SizeMax-c.SizeMin)*sum/int64(c.Dims*(c.Levels-1))
		}
		if hi > lo {
			if c.Sequential {
				r.Cylinder = seq
				seq++
				if seq >= hi {
					seq = lo
				}
			} else {
				r.Cylinder = lo + rng.Intn(hi-lo)
			}
		}
		if c.WriteFrac > 0 && rng.Float64() < c.WriteFrac {
			r.Write = true
		}
		if c.ValueLevels > 0 {
			r.Value = 1 + rng.Intn(c.ValueLevels)
		}
	}
}

// Generate builds the merged trace into an arena of its own. It is
// deterministic in the spec.
func (s Spec) Generate() ([]*core.Request, error) { return s.GenerateArena(new(Arena)) }

// MustGenerate is Generate for static configurations.
func (s Spec) MustGenerate() []*core.Request {
	reqs, err := s.Generate()
	if err != nil {
		panic(err)
	}
	return reqs
}

// GenerateArena builds the merged trace, sorted by arrival with IDs
// reassigned 1..n, into a's slabs; a nil arena means a fresh one.
func (s Spec) GenerateArena(a *Arena) ([]*core.Request, error) {
	if a == nil {
		a = new(Arena)
	}
	dims, err := s.validate()
	if err != nil {
		return nil, err
	}
	total := s.Count()
	reqs := a.requests(total)
	prio := a.priorities(total * dims)
	ptrs := a.pointers(total)
	base := 0
	for ci, c := range s.Clients {
		rng := s.clientRNG(ci)
		b := base
		c.generate(rng, func(i int) *core.Request {
			r := &reqs[b+i]
			if dims > 0 {
				r.Priorities = prio[(b+i)*dims : (b+i+1)*dims : (b+i+1)*dims]
			}
			return r
		})
		base += c.Count
	}
	for i := range reqs {
		ptrs[i] = &reqs[i]
	}
	sortAndRenumber(ptrs)
	return ptrs, nil
}

// MustGenerateArena is GenerateArena for static configurations.
func (s Spec) MustGenerateArena(a *Arena) []*core.Request {
	reqs, err := s.GenerateArena(a)
	if err != nil {
		panic(err)
	}
	return reqs
}
