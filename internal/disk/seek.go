package disk

import (
	"fmt"
	"math"
)

// SqrtSeek is the literal seek model of the paper's Table 1 row,
// seek(d) = a + b*sqrt(d) (microseconds, d in cylinders). It is provided
// as an alternative to the calibrated power curve of Model: the sqrt form
// cannot satisfy Table 1's 8.5 ms mean *and* 18 ms max simultaneously
// (fitting both forces a negative intercept), so the constructor lets the
// caller pick which pair of anchors to honor.
type SqrtSeek struct {
	A, B      float64
	Cylinders int
}

// NewSqrtSeekFromMax fits a + b*sqrt(d) through a track-to-track time at
// d = 1 and the maximum seek at d = cylinders-1.
func NewSqrtSeekFromMax(cylinders int, trackToTrack, maxSeek int64) (*SqrtSeek, error) {
	if cylinders < 2 {
		return nil, fmt.Errorf("disk: need at least 2 cylinders, got %d", cylinders)
	}
	if trackToTrack <= 0 || maxSeek <= trackToTrack {
		return nil, fmt.Errorf("disk: need 0 < trackToTrack < maxSeek, got %d/%d", trackToTrack, maxSeek)
	}
	dm := math.Sqrt(float64(cylinders - 1))
	b := (float64(maxSeek) - float64(trackToTrack)) / (dm - 1)
	a := float64(trackToTrack) - b
	return &SqrtSeek{A: a, B: b, Cylinders: cylinders}, nil
}

// NewSqrtSeekFromMean fits a + b*sqrt(d) through a track-to-track time at
// d = 1 and the mean seek over uniformly random request pairs, whose
// distance density is f(u) = 2(1-u): E[sqrt(d)] = (8/15)*sqrt(C).
func NewSqrtSeekFromMean(cylinders int, trackToTrack, meanSeek int64) (*SqrtSeek, error) {
	if cylinders < 2 {
		return nil, fmt.Errorf("disk: need at least 2 cylinders, got %d", cylinders)
	}
	if trackToTrack <= 0 || meanSeek <= trackToTrack {
		return nil, fmt.Errorf("disk: need 0 < trackToTrack < meanSeek, got %d/%d", trackToTrack, meanSeek)
	}
	es := 8.0 / 15.0 * math.Sqrt(float64(cylinders-1))
	b := (float64(meanSeek) - float64(trackToTrack)) / (es - 1)
	a := float64(trackToTrack) - b
	return &SqrtSeek{A: a, B: b, Cylinders: cylinders}, nil
}

// Time returns the seek time between two cylinders, µs.
func (s *SqrtSeek) Time(from, to int) int64 {
	d := from - to
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0
	}
	return int64(s.A + s.B*math.Sqrt(float64(d)))
}

// Mean returns the model's mean seek over uniformly random request pairs.
func (s *SqrtSeek) Mean() float64 {
	return s.A + s.B*8.0/15.0*math.Sqrt(float64(s.Cylinders-1))
}

// Max returns the full-stroke seek time.
func (s *SqrtSeek) Max() int64 { return s.Time(0, s.Cylinders-1) }

// UseSqrtSeek swaps the model's seek curve for the sqrt model as it is at
// the call (nil restores the calibrated power curve): SeekTime answers
// from it while everything else (zones, rotation, transfer) is unchanged.
// It returns the model for chaining.
func (m *Model) UseSqrtSeek(s *SqrtSeek) *Model {
	if s == nil {
		m.tabulateSeek(m.powerSeek)
	} else {
		m.tabulateSeek(func(d int) int64 { return s.Time(0, d) })
	}
	return m
}
