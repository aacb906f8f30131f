// Package disk models the storage substrate of the paper's evaluation: the
// Quantum XP32150 drive of Table 1 (zoned geometry, square-root-calibrated
// seek curve, average rotational latency) and the PanaViss RAID-5 layout
// (4 data + 1 parity disks with 64 KB file blocks).
//
// All times are in microseconds (int64), the simulator's clock unit.
package disk

import (
	"fmt"
	"math"
)

// Zone describes one recording zone: a contiguous cylinder range with a
// fixed sectors-per-track count (outer zones hold more sectors and
// therefore transfer faster).
type Zone struct {
	FirstCyl        int // first cylinder of the zone
	Cylinders       int // number of cylinders in the zone
	SectorsPerTrack int
}

// Model is a single-disk performance model.
type Model struct {
	// Geometry (Table 1).
	Cylinders  int
	TracksPer  int // tracks (heads) per cylinder
	SectorSize int // bytes
	RPM        int
	Zones      []Zone

	// Seek curve seek(d) = MinSeek + (MaxSeek-MinSeek) * (d/(C-1))^gamma for
	// d >= 1, calibrated so the mean seek over uniformly random request
	// pairs matches AvgSeek. All three in microseconds.
	MinSeek int64
	MaxSeek int64
	AvgSeek int64
	gamma   float64

	zoneOfCyl []int16 // cylinder -> zone lookup

	// seekByDist[d] is the seek time over d cylinders: the power curve
	// tabulated at construction. SeekTime runs on every dispatch and the
	// curve has only Cylinders distinct arguments, so the table keeps
	// math.Pow off that path.
	seekByDist []int64
}

// Params bundles the calibration inputs for NewModel.
type Params struct {
	Cylinders  int
	TracksPer  int
	SectorSize int
	RPM        int
	ZoneCount  int
	// OuterSPT and InnerSPT are the sectors-per-track of the outermost and
	// innermost zones; intermediate zones interpolate linearly.
	OuterSPT int
	InnerSPT int
	// Seek calibration, microseconds.
	MinSeek int64
	MaxSeek int64
	AvgSeek int64
}

// QuantumXP32150Params returns the Table 1 disk: 3832 cylinders, 10 tracks
// per cylinder, 16 zones, 512-byte sectors, 7200 RPM, average seek 8.5 ms,
// maximum seek 18 ms. The sectors-per-track range is chosen so total
// capacity lands at the quoted 2.1 GB and the average media rate at the
// quoted handful of MB/s.
func QuantumXP32150Params() Params {
	return Params{
		Cylinders:  3832,
		TracksPer:  10,
		SectorSize: 512,
		RPM:        7200,
		ZoneCount:  16,
		OuterSPT:   128,
		InnerSPT:   86,
		MinSeek:    1500,
		MaxSeek:    18000,
		AvgSeek:    8500,
	}
}

// NewModel builds a disk model from p, calibrating the seek-curve exponent
// so that the expected seek over uniformly random (from, to) cylinder pairs
// equals p.AvgSeek.
func NewModel(p Params) (*Model, error) {
	if p.Cylinders < 2 {
		return nil, fmt.Errorf("disk: need at least 2 cylinders, got %d", p.Cylinders)
	}
	if p.TracksPer < 1 || p.SectorSize < 1 || p.RPM < 1 {
		return nil, fmt.Errorf("disk: invalid geometry %+v", p)
	}
	if p.ZoneCount < 1 || p.ZoneCount > p.Cylinders {
		return nil, fmt.Errorf("disk: invalid zone count %d", p.ZoneCount)
	}
	if p.OuterSPT < p.InnerSPT || p.InnerSPT < 1 {
		return nil, fmt.Errorf("disk: invalid sectors-per-track range [%d,%d]", p.InnerSPT, p.OuterSPT)
	}
	if !(p.MinSeek > 0 && p.MinSeek < p.AvgSeek && p.AvgSeek < p.MaxSeek) {
		return nil, fmt.Errorf("disk: seek times must satisfy 0 < min < avg < max, got %d/%d/%d",
			p.MinSeek, p.AvgSeek, p.MaxSeek)
	}
	m := &Model{
		Cylinders:  p.Cylinders,
		TracksPer:  p.TracksPer,
		SectorSize: p.SectorSize,
		RPM:        p.RPM,
		MinSeek:    p.MinSeek,
		MaxSeek:    p.MaxSeek,
		AvgSeek:    p.AvgSeek,
	}
	m.gamma = calibrateGamma(p.MinSeek, p.MaxSeek, p.AvgSeek)
	m.buildZones(p.ZoneCount, p.OuterSPT, p.InnerSPT)
	m.seekByDist = make([]int64, m.Cylinders)
	for d := range m.seekByDist {
		m.seekByDist[d] = m.powerSeek(d)
	}
	return m, nil
}

// MustModel is NewModel for static configurations; it panics on error.
func MustModel(p Params) *Model {
	m, err := NewModel(p)
	if err != nil {
		panic(err)
	}
	return m
}

// calibrateGamma solves E[(U)^g] = (avg-min)/(max-min) for g, where U is
// the normalized seek distance of a uniformly random cylinder pair. The
// distance density is f(u) = 2(1-u), so E[U^g] = 2/((g+1)(g+2)) and g has a
// closed form; bisection keeps the code robust to future density changes.
func calibrateGamma(min, max, avg int64) float64 {
	target := float64(avg-min) / float64(max-min)
	expect := func(g float64) float64 { return 2 / ((g + 1) * (g + 2)) }
	lo, hi := 1e-6, 64.0
	for i := 0; i < 200; i++ {
		mid := float64((lo + hi) / 2) // a product by 0.5, kept out of expect's adds (make nofma)
		if expect(mid) > target {
			lo = mid // larger exponent lowers the expectation
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// buildZones lays out zoneCount zones of near-equal cylinder counts with
// linearly interpolated sectors-per-track from outer to inner.
func (m *Model) buildZones(zoneCount, outerSPT, innerSPT int) {
	m.Zones = make([]Zone, zoneCount)
	m.zoneOfCyl = make([]int16, m.Cylinders)
	base := m.Cylinders / zoneCount
	extra := m.Cylinders % zoneCount
	cyl := 0
	for z := 0; z < zoneCount; z++ {
		n := base
		if z < extra {
			n++
		}
		spt := outerSPT
		if zoneCount > 1 {
			spt = outerSPT - (outerSPT-innerSPT)*z/(zoneCount-1)
		}
		m.Zones[z] = Zone{FirstCyl: cyl, Cylinders: n, SectorsPerTrack: spt}
		for i := 0; i < n; i++ {
			m.zoneOfCyl[cyl+i] = int16(z)
		}
		cyl += n
	}
}

// ZoneOf returns the zone index containing cylinder cyl.
func (m *Model) ZoneOf(cyl int) int {
	m.checkCyl(cyl)
	return int(m.zoneOfCyl[cyl])
}

func (m *Model) checkCyl(cyl int) {
	if cyl < 0 || cyl >= m.Cylinders {
		panic(fmt.Sprintf("disk: cylinder %d out of range [0,%d)", cyl, m.Cylinders))
	}
}

// powerSeek is the calibrated power curve at distance d >= 0.
func (m *Model) powerSeek(d int) int64 {
	if d == 0 {
		return 0
	}
	u := float64(d) / float64(m.Cylinders-1)
	return m.MinSeek + int64(float64(m.MaxSeek-m.MinSeek)*math.Pow(u, m.gamma))
}

// SeekTime returns the head-movement time from cylinder from to cylinder
// to, in microseconds. Zero distance costs nothing.
func (m *Model) SeekTime(from, to int) int64 {
	m.checkCyl(from)
	m.checkCyl(to)
	d := from - to
	if d < 0 {
		d = -d
	}
	return m.seekByDist[d]
}

// RevolutionTime returns the time of one full platter revolution.
func (m *Model) RevolutionTime() int64 {
	return int64(60_000_000 / m.RPM)
}

// AvgRotationalLatency returns half a revolution, the expected latency.
func (m *Model) AvgRotationalLatency() int64 { return m.RevolutionTime() / 2 }

// TrackCapacity returns the bytes held by one track of cylinder cyl.
func (m *Model) TrackCapacity(cyl int) int64 {
	z := m.Zones[m.ZoneOf(cyl)]
	return int64(z.SectorsPerTrack) * int64(m.SectorSize)
}

// TransferTime returns the media transfer time of size bytes starting at
// cylinder cyl (the whole transfer is charged at that zone's rate).
func (m *Model) TransferTime(cyl int, size int64) int64 {
	if size <= 0 {
		return 0
	}
	perTrack := m.TrackCapacity(cyl)
	// One revolution reads one track.
	return int64(float64(m.RevolutionTime()) * float64(size) / float64(perTrack))
}

// ServiceTime returns the expected total service time of a request: seek
// from the current head cylinder, average rotational latency, and media
// transfer. Schedulers use it as their feasibility estimator.
func (m *Model) ServiceTime(head, cyl int, size int64) int64 {
	return m.SeekTime(head, cyl) + m.AvgRotationalLatency() + m.TransferTime(cyl, size)
}

// Capacity returns the formatted capacity of the disk in bytes.
func (m *Model) Capacity() int64 {
	var total int64
	for _, z := range m.Zones {
		total += int64(z.Cylinders) * int64(m.TracksPer) * int64(z.SectorsPerTrack) * int64(m.SectorSize)
	}
	return total
}

// AvgTransferRate returns the capacity-weighted mean media rate in bytes/s.
func (m *Model) AvgTransferRate() float64 {
	var bytes float64
	for _, z := range m.Zones {
		// float64(…) rounds the product before the add: no fused
		// multiply-add (make nofma).
		bytes += float64(float64(z.Cylinders) * float64(m.TracksPer) * float64(z.SectorsPerTrack) * float64(m.SectorSize))
	}
	// One track per revolution across all tracks: total time = tracks * rev.
	tracks := float64(m.Cylinders * m.TracksPer)
	secs := tracks * float64(m.RevolutionTime()) / 1e6
	return bytes / secs
}

// MeanSeek estimates the model's mean seek time over uniformly random
// request pairs by direct integration of the distance density; exposed so
// tests can confirm the calibration hit Params.AvgSeek.
func (m *Model) MeanSeek() float64 {
	const steps = 100000
	var acc, wsum float64
	for i := 1; i <= steps; i++ {
		u := float64(i) / steps
		w := 2 * (1 - u)
		// float64(…) rounds each product before its add (make nofma).
		acc += float64(w * (float64(m.MinSeek) + float64(float64(m.MaxSeek-m.MinSeek)*math.Pow(u, m.gamma))))
		wsum += w
	}
	return acc / wsum
}
