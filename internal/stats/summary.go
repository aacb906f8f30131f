package stats

import "math"

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
