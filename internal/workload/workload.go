// Package workload generates the deterministic request traces driving the
// paper's experiments: open Poisson arrivals with multi-dimensional
// priorities (§5) and the NewsByte5 non-linear-editing stream mix (§6).
//
// A trace is a slice of requests sorted by arrival time; every scheduler
// in a comparison is fed the identical trace, so differences in outcomes
// are attributable to scheduling alone.
//
// Each generator packs its requests (and their priority vectors) into an
// Arena's contiguous slabs: GenerateArena into the caller's, for
// allocation-free regeneration across sweep cells, Generate into a fresh
// one.
package workload

import (
	"fmt"
	"sort"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// PriorityDist selects how priority levels are drawn.
type PriorityDist int

const (
	// Uniform draws each level with equal probability.
	Uniform PriorityDist = iota
	// Normal draws from a clamped discretized normal centered mid-range
	// (the §6 "normal distribution of requests across the levels").
	Normal
	// Zipf draws level k with probability proportional to 1/(k+1).
	Zipf
)

// Open describes an open-arrival Poisson workload (§5 experiments).
type Open struct {
	Seed uint64
	// Count is the number of requests to generate.
	Count int
	// MeanInterarrival is the exponential inter-arrival mean, µs.
	// The paper's §5 experiments use 25 ms.
	MeanInterarrival int64
	// Dims and Levels shape the priority vector of each request.
	Dims   int
	Levels int
	// Dist selects the priority level distribution.
	Dist PriorityDist
	// DeadlineMin/Max bound the uniformly drawn relative deadline, µs.
	// Zero disables deadlines ("relaxed deadlines").
	DeadlineMin int64
	DeadlineMax int64
	// Cylinders spreads requests uniformly over [0, Cylinders).
	Cylinders int
	// Size is the transfer size per request, bytes.
	Size int64
	// SizeMin/SizeMax, when both positive, override Size with a transfer
	// size that grows linearly with the request's mean priority level
	// across dimensions: the paper's §5.2 assumption that high-priority
	// requests (audio/video chunks) are smaller than low-priority ones
	// (ftp transfers).
	SizeMin int64
	SizeMax int64
	// WriteFrac is the fraction of write requests.
	WriteFrac float64
	// Tenants, when positive, tags each request with a tenant drawn
	// Zipf(TenantSkew) over [0, Tenants) from a private RNG stream, and an
	// SLO class (tenant mod Classes). Zero leaves tenant tagging off and
	// consumes no extra RNG draws, so existing traces are unchanged.
	Tenants int
	// TenantSkew is the Zipf exponent of the tenant draw: 0 is uniform,
	// larger values concentrate traffic on low-numbered tenants (the
	// skewed-tenant overload scenarios of the cluster experiments).
	TenantSkew float64
	// Classes is the number of SLO classes when Tenants > 0; values < 1
	// are treated as 1 (every request in class 0).
	Classes int
	// TenantZones, when set (with Tenants > 0), confines tenant t's
	// requests to its own contiguous cylinder/block zone
	// [t·Cylinders/Tenants, (t+1)·Cylinders/Tenants) instead of the whole
	// range — data locality per tenant, which makes affinity routing
	// meaningful.
	TenantZones bool
}

func (w Open) validate() error {
	if w.Count <= 0 {
		return fmt.Errorf("workload: Count must be positive, got %d", w.Count)
	}
	if w.MeanInterarrival <= 0 {
		return fmt.Errorf("workload: MeanInterarrival must be positive")
	}
	if w.Dims < 0 || w.Levels < 1 {
		return fmt.Errorf("workload: invalid priority shape dims=%d levels=%d", w.Dims, w.Levels)
	}
	if w.DeadlineMax < w.DeadlineMin {
		return fmt.Errorf("workload: DeadlineMax < DeadlineMin")
	}
	if (w.SizeMin != 0 || w.SizeMax != 0) && (w.SizeMin < 1 || w.SizeMax < w.SizeMin) {
		return fmt.Errorf("workload: sizes must satisfy 1 <= SizeMin <= SizeMax, got %d and %d", w.SizeMin, w.SizeMax)
	}
	if !(0 <= w.WriteFrac && w.WriteFrac <= 1) {
		return fmt.Errorf("workload: WriteFrac %v outside [0,1]", w.WriteFrac)
	}
	if w.Tenants < 0 || !(0 <= w.TenantSkew) {
		return fmt.Errorf("workload: Tenants and TenantSkew must be non-negative")
	}
	if w.TenantZones && w.Tenants > 0 && w.Cylinders > 0 && w.Cylinders < w.Tenants {
		return fmt.Errorf("workload: TenantZones needs Cylinders >= Tenants, got %d < %d", w.Cylinders, w.Tenants)
	}
	return nil
}

// tenantZipf builds the private tenant-draw stream when tenant tagging is
// on. The stream is derived from the seed with a fixed offset rather than
// split off the main RNG, so enabling tagging consumes no draw from the
// main stream and an otherwise identical configuration generates the same
// arrivals, priorities, deadlines, sizes and writes. With Tenants == 0 it
// returns nil.
func (w Open) tenantZipf() *stats.Zipf {
	if w.Tenants <= 0 {
		return nil
	}
	return stats.NewZipf(stats.NewRNG(w.Seed^0x9E3779B97F4A7C15), w.Tenants, w.TenantSkew)
}

// genOne fills the i-th request into r, advancing the arrival clock. The
// caller provides r zeroed except for Priorities, which must already have
// length w.Dims. tzipf is non-nil iff Tenants > 0; the tenant
// draws come from its private stream, so tagging never perturbs the main
// stream of an otherwise identical configuration.
func (w Open) genOne(i int, now *int64, rng *stats.RNG, zipf, tzipf *stats.Zipf, r *core.Request) {
	*now += int64(rng.Exponential(float64(w.MeanInterarrival)))
	r.ID = uint64(i + 1)
	r.Arrival = *now
	r.Size = w.Size
	for k := range r.Priorities {
		r.Priorities[k] = w.drawLevel(rng, zipf)
	}
	if w.DeadlineMax > 0 {
		r.Deadline = *now + w.DeadlineMin
		if span := w.DeadlineMax - w.DeadlineMin; span > 0 {
			r.Deadline += int64(rng.Uint64n(uint64(span) + 1))
		}
	}
	if w.SizeMin > 0 && w.SizeMax >= w.SizeMin && w.Dims > 0 && w.Levels > 1 {
		var sum int64
		for _, l := range r.Priorities {
			sum += int64(l)
		}
		r.Size = w.SizeMin + (w.SizeMax-w.SizeMin)*sum/int64(w.Dims*(w.Levels-1))
	}
	if tzipf != nil {
		r.Tenant = tzipf.Draw()
		if w.Classes > 1 {
			r.Class = r.Tenant % w.Classes
		}
	}
	if w.Cylinders > 0 {
		if tzipf != nil && w.TenantZones {
			lo := r.Tenant * w.Cylinders / w.Tenants
			hi := (r.Tenant + 1) * w.Cylinders / w.Tenants
			if hi <= lo {
				hi = lo + 1
			}
			r.Cylinder = lo + rng.Intn(hi-lo)
		} else {
			r.Cylinder = rng.Intn(w.Cylinders)
		}
	}
	if w.WriteFrac > 0 && rng.Float64() < w.WriteFrac {
		r.Write = true
	}
}

// Generate builds the trace into an arena of its own. It is deterministic
// in the configuration.
func (w Open) Generate() ([]*core.Request, error) { return w.GenerateArena(new(Arena)) }

// MustGenerate is Generate for static configurations.
func (w Open) MustGenerate() []*core.Request {
	reqs, err := w.Generate()
	if err != nil {
		panic(err)
	}
	return reqs
}

func (w Open) drawLevel(rng *stats.RNG, zipf *stats.Zipf) int {
	return drawLevel(rng, zipf, w.Dist, w.Levels)
}

// drawLevel draws one priority level under dist; zipf must be non-nil iff
// dist is Zipf. Shared by the Open and Spec generators so every trace uses
// the same level distributions.
func drawLevel(rng *stats.RNG, zipf *stats.Zipf, dist PriorityDist, levels int) int {
	switch dist {
	case Normal:
		return rng.NormalLevel(levels, 0.25)
	case Zipf:
		return zipf.Draw()
	default:
		return rng.Intn(levels)
	}
}

// Streams describes the §6 NewsByte5 workload: Users concurrent MPEG-1
// editing streams issuing periodic bursty block requests against one disk.
type Streams struct {
	Seed uint64
	// Users is the number of concurrent streams (the paper sweeps 68-91).
	Users int
	// Duration is the simulated wall time, µs.
	Duration int64
	// BitRate is the per-stream media rate, bits/s (paper: 1.5 Mbps).
	BitRate float64
	// BlockSize is the file block size, bytes (Table 1: 64 KB).
	BlockSize int64
	// Levels is the number of user priority levels (paper: 8), drawn from
	// a clamped normal per user.
	Levels int
	// DeadlineMin/Max bound the uniformly drawn relative deadline, µs
	// (paper: 750-1500 ms).
	DeadlineMin int64
	DeadlineMax int64
	// Cylinders is the disk size in cylinders; each stream walks its file
	// sequentially from a random start with occasional edit jumps.
	Cylinders int
	// WriteFrac is the fraction of streams that record rather than play
	// (non-linear editing supports real-time writes).
	WriteFrac float64
	// Burst is the number of requests issued back-to-back each period
	// (requests "arrive in bursts"; served in batches).
	Burst int
}

func (s Streams) validate() (burst int, err error) {
	if s.Users <= 0 || s.Duration <= 0 {
		return 0, fmt.Errorf("workload: Users and Duration must be positive")
	}
	if !(0 < s.BitRate) || s.BlockSize <= 0 {
		return 0, fmt.Errorf("workload: BitRate and BlockSize must be positive")
	}
	if s.Levels < 1 || s.Cylinders < 1 {
		return 0, fmt.Errorf("workload: Levels and Cylinders must be positive")
	}
	if s.DeadlineMax < s.DeadlineMin || s.DeadlineMin <= 0 {
		return 0, fmt.Errorf("workload: invalid deadline range [%d,%d]", s.DeadlineMin, s.DeadlineMax)
	}
	if !(0 <= s.WriteFrac && s.WriteFrac <= 1) {
		return 0, fmt.Errorf("workload: WriteFrac %v outside [0,1]", s.WriteFrac)
	}
	burst = s.Burst
	if burst < 1 {
		burst = 1
	}
	return burst, nil
}

// generate runs the stream mix and hands every request to emit in
// generation (pre-sort) order, with its single priority level passed
// separately so the caller chooses where the priority vector lives.
func (s Streams) generate(burst int, emit func(r core.Request, level int)) {
	rng := stats.NewRNG(s.Seed)
	// A stream consumes BitRate bits/s; each block lasts blockPeriod.
	blockPeriod := int64(float64(s.BlockSize*8) / s.BitRate * 1e6)
	period := blockPeriod * int64(burst)

	id := uint64(1)
	for u := 0; u < s.Users; u++ {
		urng := rng.Split()
		level := urng.NormalLevel(s.Levels, 0.25)
		write := urng.Float64() < s.WriteFrac
		cyl := urng.Intn(s.Cylinders)
		phase := int64(urng.Uint64n(uint64(period)))
		for t := phase; t < s.Duration; t += period {
			// Blocks fetched for one playback period share their deadline.
			dl := t + s.DeadlineMin
			if span := s.DeadlineMax - s.DeadlineMin; span > 0 {
				dl += int64(urng.Uint64n(uint64(span) + 1))
			}
			for b := 0; b < burst; b++ {
				emit(core.Request{
					ID:       id,
					Arrival:  t,
					Deadline: dl,
					Cylinder: cyl,
					Size:     s.BlockSize,
					Write:    write,
				}, level)
				id++
				// Sequential file layout: the next block sits on the same
				// or next cylinder; edits occasionally jump elsewhere.
				if urng.Float64() < 0.02 {
					cyl = urng.Intn(s.Cylinders)
				} else if urng.Float64() < 0.5 {
					cyl = (cyl + 1) % s.Cylinders
				}
			}
		}
	}
}

// Generate builds the trace, sorted by arrival time, into an arena of its
// own.
func (s Streams) Generate() ([]*core.Request, error) { return s.GenerateArena(new(Arena)) }

// MustGenerate is Generate for static configurations.
func (s Streams) MustGenerate() []*core.Request {
	reqs, err := s.Generate()
	if err != nil {
		panic(err)
	}
	return reqs
}

// sortAndRenumber orders a generated trace by arrival time (stable, so
// same-time bursts keep generation order) and reassigns IDs 1..n in the
// final order.
func sortAndRenumber(reqs []*core.Request) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	for i, r := range reqs {
		r.ID = uint64(i + 1)
	}
}
