package core

import (
	"fmt"
	"math"
	"math/bits"

	"sfcsched/internal/sfc"
)

// stage2Res is the per-axis resolution of the SFC2 (priority x deadline)
// plane: stage-1 outputs and deadline coordinates are both renormalized
// onto [0, stage2Res) before being combined. 2^16 cells keep the deadline
// axis fine enough (a few ms per cell over a multi-minute run) that the
// f -> infinity limit really does order by deadline.
const stage2Res = 1 << 16

// stage3Res is the resolution of the priority-deadline axis entering SFC3.
const stage3Res = 4096

// MaxLevels bounds EncapsulatorConfig.Levels. With a Curve1 the
// encapsulator keeps one table word per level, so a level count from a
// flag must not size memory unchecked; 2^16 levels, as many as the
// stage-2 priority axis has cells, keep the table at 256 KiB.
const MaxLevels = stage2Res

// EncapsulatorConfig configures the three cascaded stages. The zero value
// is not usable; at minimum Levels must be set.
type EncapsulatorConfig struct {
	// Curve1 is the D-dimensional SFC over the priority-like dimensions.
	// nil means requests carry a single priority that feeds stage 2
	// directly (the paper's "applications with only one priority type").
	Curve1 sfc.Curve
	// Levels is the number of priority levels per dimension, in
	// [1, MaxLevels].
	Levels int

	// UseDeadline enables the SFC2 stage.
	UseDeadline bool
	// F is the SFC2 balance factor: v2 = priority + F*deadline. F < 1
	// favors priority-inversion minimization, F > 1 favors deadlines.
	// The two limits are the paper's sweep curves (§5.2): F == 0 orders
	// by priority and breaks ties by earliest deadline; math.Inf(1)
	// orders by deadline and breaks ties by highest priority. The tie
	// breaks reach v_c only with UseCylinder unset: stage 3 rescales the
	// stage-2 value onto about stage3Res cells, which keeps the major key
	// and drops the minor one.
	F float64
	// DeadlineHorizon bounds the deadline axis, microseconds. Required when
	// UseDeadline is set. In the default (absolute) mode it is the largest
	// absolute deadline expected during the run; deadlines are clamped
	// into [0, DeadlineHorizon] and scaled onto the axis. In slack mode it
	// bounds the time-to-deadline instead.
	DeadlineHorizon int64
	// DeadlineSlack switches the deadline coordinate from the absolute
	// deadline to the slack (deadline - now) at enqueue time. Slack values
	// computed at different times are skewed against each other by the
	// arrival gap, which starves old requests under load — the absolute
	// mode is the default for that reason. Slack mode remains both as an
	// ablation and for the SFC3 cascade, whose seek dimension is already
	// insertion-relative.
	DeadlineSlack bool
	// DeadlineSpan calibrates the balance units of F: F = 1 weighs one
	// full priority range equal to one DeadlineSpan of deadline distance
	// (the local deadline window, e.g. the relative-deadline maximum).
	// Zero defaults to DeadlineHorizon, which makes F balance against the
	// whole horizon instead — only sensible when the horizon is the window.
	DeadlineSpan int64
	// Curve2, when non-nil, replaces the weighted sum with a true 2-D
	// space-filling curve over (deadline, priority). Used by the §6
	// experiments (Sweep-X, Sweep-Y, Hilbert, Peano).
	Curve2 sfc.Curve
	// Curve2PriorityOnY assigns priority to the curve's Y (most
	// significant, for lexicographic curves) axis instead of X.
	// With a sweep Curve2: false gives the EDF-like "Sweep-X", true gives
	// the multi-queue-like "Sweep-Y".
	Curve2PriorityOnY bool

	// UseCylinder enables the SFC3 stage.
	UseCylinder bool
	// R is the number of vertical partitions of the SFC3 plane; each
	// partition is served in one disk scan. R = 1 sorts on seek only;
	// large R sorts on priority-deadline only. Required >= 1 when
	// UseCylinder is set.
	R int
	// Cylinders is the disk's cylinder count. Required when UseCylinder.
	Cylinders int
}

// Encapsulator maps requests to characterization values v_c (paper Fig. 2,
// "Part 1"). One scheduler owns one encapsulator and never calls it
// concurrently (the Valuer contract): ValueAt works in the encapsulator's
// own scratch.
//
// The value computation is allocation-free: the working memory (curve
// points and scratch words) is sized once at construction, small SFC1
// grids are served from a precomputed lookup table (sfc.Accelerate), and
// all axis rescaling is exact 128-bit integer arithmetic. The table is
// built once per grid per process and shared, read-only, by every
// encapsulator over that grid, so constructing one fills no table.
type Encapsulator struct {
	cfg EncapsulatorConfig

	c1       sfc.Curve // cfg.Curve1, possibly LUT-accelerated
	c2       sfc.Curve // cfg.Curve2, possibly LUT-accelerated
	lvl2cell []uint32  // clamped priority level -> Curve1 cell coordinate

	max1 uint64 // exclusive bound on stage-1 output
	max2 uint64 // exclusive bound on stage-2 output
	ps   uint64 // SFC3 partition size
	maxX uint64 // effective SFC3 X-axis bound (ps * R)
	max  uint64 // exclusive bound on v_c

	sc encScratch
}

// encScratch is the working set of ValueAt; a stage without a curve leaves
// its half nil.
type encScratch struct {
	p  sfc.Point // stage-1 cell
	s  []uint32  // Curve1 IndexFast scratch
	p2 sfc.Point // stage-2 cell (always len 2)
	s2 []uint32  // Curve2 IndexFast scratch
}

// NewEncapsulator validates cfg and returns a ready encapsulator.
func NewEncapsulator(cfg EncapsulatorConfig) (*Encapsulator, error) {
	if cfg.Levels < 1 || cfg.Levels > MaxLevels {
		return nil, fmt.Errorf("core: Levels must be in [1, %d], got %d", MaxLevels, cfg.Levels)
	}
	if cfg.Curve1 != nil && uint64(cfg.Levels) > uint64(cfg.Curve1.Side()) {
		return nil, fmt.Errorf("core: %d levels exceed curve side %d", cfg.Levels, cfg.Curve1.Side())
	}
	e := &Encapsulator{cfg: cfg}
	if cfg.Curve1 != nil {
		e.max1 = cfg.Curve1.MaxIndex()
		e.c1 = sfc.Accelerate(cfg.Curve1)
		e.sc.p, e.sc.s = make(sfc.Point, e.c1.Dims()), make([]uint32, e.c1.ScratchLen())
		side := uint64(cfg.Curve1.Side())
		e.lvl2cell = make([]uint32, cfg.Levels)
		for l := range e.lvl2cell {
			e.lvl2cell[l] = uint32(uint64(l) * side / uint64(cfg.Levels))
		}
	} else {
		e.max1 = uint64(cfg.Levels)
	}
	e.max2 = e.max1
	if cfg.UseDeadline {
		if cfg.DeadlineHorizon <= 0 {
			return nil, fmt.Errorf("core: DeadlineHorizon must be positive when UseDeadline is set")
		}
		if !(0 <= cfg.F) {
			return nil, fmt.Errorf("core: F must be >= 0, got %v", cfg.F)
		}
		if cfg.DeadlineSpan < 0 || cfg.DeadlineSpan > cfg.DeadlineHorizon {
			return nil, fmt.Errorf("core: DeadlineSpan %d outside [0, DeadlineHorizon] (0 defaults to the horizon)", cfg.DeadlineSpan)
		}
		if cfg.DeadlineSpan == 0 {
			e.cfg.DeadlineSpan = cfg.DeadlineHorizon
		}
		switch {
		case cfg.Curve2 != nil:
			if cfg.Curve2.Dims() != 2 {
				return nil, fmt.Errorf("core: Curve2 must be 2-dimensional, got %d", cfg.Curve2.Dims())
			}
			e.max2 = cfg.Curve2.MaxIndex()
			e.c2 = sfc.Accelerate(cfg.Curve2)
			e.sc.p2, e.sc.s2 = make(sfc.Point, 2), make([]uint32, e.c2.ScratchLen())
		case cfg.F == 0 || math.IsInf(cfg.F, 1):
			// Lexicographic composition at the extremes.
			e.max2 = stage2Res * stage2Res
		default:
			// Weighted sum: majors span (1 + F*horizon/span) dimensionless
			// units at wScale resolution, each stage2Res values wide.
			// float64(…) keeps each product from fusing into the add, or
			// into the uint64 conversion's subtract, on architectures with
			// FMA, so max2 is the same everywhere.
			spans := float64(e.cfg.DeadlineHorizon) / float64(e.cfg.DeadlineSpan)
			majors := float64((1 + float64(cfg.F*spans)) * wScale)
			if majors >= float64(math.MaxUint64/stage2Res-1) {
				return nil, fmt.Errorf("core: F=%v over %v horizon spans overflows the value space", cfg.F, spans)
			}
			e.max2 = (uint64(majors) + 1) * stage2Res
		}
	}
	if cfg.UseCylinder {
		if cfg.R < 1 {
			return nil, fmt.Errorf("core: R must be >= 1, got %d", cfg.R)
		}
		if cfg.Cylinders < 1 {
			return nil, fmt.Errorf("core: Cylinders must be set when UseCylinder is")
		}
		e.ps = (stage3Res + uint64(cfg.R) - 1) / uint64(cfg.R)
		e.maxX = e.ps * uint64(cfg.R)
		e.max = uint64(cfg.Cylinders) * e.ps * uint64(cfg.R)
	} else {
		e.max = e.max2
	}
	return e, nil
}

// MustEncapsulator is NewEncapsulator for static configurations.
func MustEncapsulator(cfg EncapsulatorConfig) *Encapsulator {
	e, err := NewEncapsulator(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// MaxValue returns the span of the characterization-value space;
// blocking-window sizes are naturally expressed as a fraction of it. For
// configurations without the cylinder stage it is an exclusive upper bound
// on Value results; with the cylinder stage it is the span of one full
// sweep cycle (Cylinders*Ps*R) — values advance beyond it along the sweep
// timeline, but only value differences matter to the dispatcher, and those
// stay within the span for co-queued requests.
func (e *Encapsulator) MaxValue() uint64 { return e.max }

// ValueAt computes the characterization value v_c of r at time now with the
// disk head at cylinder head. Lower values dispatch earlier. progress is the
// scan-progress anchor: the cumulative number of cylinders the head has
// swept (cyclically) since the scheduler started. Stage-3 coordinates
// computed at different times remain comparable on this absolute sweep
// timeline; Scheduler tracks progress automatically. With UseCylinder
// unset, progress is ignored.
func (e *Encapsulator) ValueAt(r *Request, now int64, head int, progress uint64) uint64 {
	v := e.stage1(r)
	if e.cfg.UseDeadline {
		v = e.stage2(v, r, now)
	}
	if e.cfg.UseCylinder {
		v = e.stage3(v, r, head, progress)
	}
	return v
}

// stage1 collapses the D priority dimensions through SFC1.
func (e *Encapsulator) stage1(r *Request) uint64 {
	c := e.c1
	if c == nil {
		if len(r.Priorities) == 0 {
			return 0
		}
		return uint64(clampLevel(r.Priorities[0], e.cfg.Levels))
	}
	p := e.sc.p
	for i := range p {
		var cell uint32
		if i < len(r.Priorities) {
			cell = e.lvl2cell[clampLevel(r.Priorities[i], e.cfg.Levels)]
		}
		p[i] = cell
	}
	return c.IndexFast(p, e.sc.s)
}

// stage2 combines the stage-1 value with the deadline.
func (e *Encapsulator) stage2(v1 uint64, r *Request, now int64) uint64 {
	pn := scale(v1, e.max1, stage2Res)
	d := r.Deadline
	if e.cfg.DeadlineSlack {
		d = r.Slack(now)
	} else if d == 0 {
		d = e.cfg.DeadlineHorizon // no deadline: least urgent
	}
	if d < 0 {
		d = 0
	}
	if d > e.cfg.DeadlineHorizon {
		d = e.cfg.DeadlineHorizon
	}
	dn := scale(uint64(d), uint64(e.cfg.DeadlineHorizon)+1, stage2Res)

	if c := e.c2; c != nil {
		side := uint64(c.Side())
		x := uint32(scale(dn, stage2Res, side))
		y := uint32(scale(pn, stage2Res, side))
		p2 := e.sc.p2
		if e.cfg.Curve2PriorityOnY {
			p2[0], p2[1] = x, y
		} else {
			p2[0], p2[1] = y, x
		}
		return c.IndexFast(p2, e.sc.s2)
	}

	switch {
	case e.cfg.F == 0:
		return pn*stage2Res + dn
	case math.IsInf(e.cfg.F, 1):
		return dn*stage2Res + pn
	default:
		// Weighted sum in dimensionless units: one full priority range
		// weighs as much as F DeadlineSpans of deadline distance. sum stays
		// below 1 + F*horizon/span, which NewEncapsulator sizes max2 from.
		// The division by the power of two stage2Res compiles to a
		// product; float64(…) keeps it, and sum*wScale, from fusing into
		// the add and the uint64 conversion.
		sum := float64(float64(pn)/stage2Res) + e.cfg.F*float64(d)/float64(e.cfg.DeadlineSpan)
		return uint64(float64(sum*wScale)) * stage2Res
	}
}

// wScale is the fractional resolution of the stage-2 weighted sum.
const wScale = 1 << 20

// stage3 combines the stage-2 value with the seek distance using the
// paper's R-partitioned sweep,
//
//	v_c = Maxy*Ps*Pn + Yv*Ps + (Xv - Ps*Pn)
//
// where Xv is the priority-deadline value, Yv the cylinder distance ahead
// of the head, Ps the partition width and Pn the partition number, with one
// adaptation: Yv is anchored to the absolute sweep timeline (progress +
// distance-ahead) rather than the enqueue-time head alone. The paper's
// batch scheduler computes all values against a near-stationary head; a
// continuously fed queue does not have one, and raw head-relative distances
// computed in different sweeps are mutually inconsistent (they cost a full
// extra sweep of seeking in practice). On the absolute timeline, partition
// Pn's term Maxy*Ps*Pn reads as "defer this band by Pn whole sweeps", which
// keeps the formula's R = 1 degeneration v_c = Yv*Maxx + Xv (one pure scan)
// exact while making cross-epoch comparisons coherent.
func (e *Encapsulator) stage3(v2 uint64, r *Request, head int, progress uint64) uint64 {
	xv := scale(v2, e.max2, e.maxX)
	c := e.cfg.Cylinders
	pn := xv / e.ps
	yv := progress + uint64(cylsAhead(r.Cylinder, head, c)) + pn*uint64(c)
	return yv*e.ps + (xv - e.ps*pn)
}

// cylsAhead returns how many cylinders an upward sweep of a c-cylinder
// disk travels from head to cyl, both clamped to [0, c): the one rule for
// "distance ahead of the head" that stage 3, the single-stage curve, the
// C-SCAN preset and the sweep timeline share. With both ends in range the
// cyclic distance is one conditional add rather than a division.
func cylsAhead(cyl, head, c int) int {
	d := min(max(cyl, 0), c-1) - min(max(head, 0), c-1)
	if d < 0 {
		d += c
	}
	return d
}

// scale maps v in [0, from) onto [0, to) preserving order. The mapping is
// the exact floor(v*to/from), computed with a 128-bit intermediate
// (math/bits.Mul64/Div64) so no grid size can lose order to floating-point
// rounding; power-of-two grids reduce to a shift.
func scale(v, from, to uint64) uint64 {
	if from == 0 {
		return 0
	}
	if v >= from {
		v = from - 1
	}
	if from&(from-1) == 0 && to&(to-1) == 0 {
		fb, tb := bits.Len64(from)-1, bits.Len64(to)-1
		if tb >= fb {
			return v << (tb - fb)
		}
		return v >> (fb - tb)
	}
	// v < from, so the 128-bit quotient v*to/from < to fits in 64 bits and
	// Div64 cannot trap.
	hi, lo := bits.Mul64(v, to)
	q, _ := bits.Div64(hi, lo, from)
	return q
}

func clampLevel(l, levels int) int {
	if l < 0 {
		return 0
	}
	if l >= levels {
		return levels - 1
	}
	return l
}
