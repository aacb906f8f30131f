package stats

import "math"

// This file holds the prediction-accuracy scores of the calibration loop
// (internal/serve): how well the simulator's per-request predictions match
// what the live serving path measured.

// MAPE returns the mean absolute percentage error of pred against actual,
// in percent: mean over i of 100*|pred[i]-actual[i]|/|actual[i]|. Pairs
// whose actual value is zero are skipped (a percentage error against zero
// is undefined); if every pair is skipped, or the slices are empty or of
// unequal length, MAPE returns NaN.
func MAPE(pred, actual []float64) float64 {
	if len(pred) != len(actual) || len(pred) == 0 {
		return math.NaN()
	}
	var sum float64
	n := 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return 100 * sum / float64(n)
}

// Pearson returns the Pearson correlation coefficient of x and y, in
// [-1, 1]. It returns NaN for slices of unequal length, fewer than two
// points, or zero variance in either input (the coefficient is undefined
// there — a constant series carries no ordering information).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return math.NaN()
	}
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		// float64(…) rounds each product before the add: no fused
		// multiply-add (make nofma).
		dx, dy := x[i]-mx, y[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp rounding excursions so callers can rely on the [-1,1] contract.
	return math.Max(-1, math.Min(1, r))
}
