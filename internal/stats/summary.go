package stats

import "math"

// Summary accumulates scalar observations as running aggregates: count,
// sum and extremes. It stores no samples.
type Summary struct {
	n        int
	sum      float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
}

// Reset discards every observation.
func (s *Summary) Reset() { *s = Summary{} }

// N returns the number of observations recorded.
func (s *Summary) N() int { return s.n }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// MeanStdDev returns the mean and population standard deviation of vs.
func MeanStdDev(vs []float64) (mean, stddev float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean = sum / float64(len(vs))
	var acc float64
	for _, v := range vs {
		d := v - mean
		acc += d * d
	}
	return mean, math.Sqrt(acc / float64(len(vs)))
}
