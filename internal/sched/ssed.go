package sched

import (
	"math"
	"math/bits"
)

// The SSED policies' fixed settings: the candidate window m, SSEDO's
// per-rank seek penalty β and SSEDV's slack weight α.
const (
	ssedWindow = 5
	ssedoBeta  = 1.5
	ssedvAlpha = 0.8
)

// NewSSEDO returns an SSEDO scheduler (Chen, Stankovic, Kurose & Towsley:
// Shortest Seek and Earliest Deadline by Ordering). It considers the
// ssedWindow earliest-deadline requests and serves the one minimizing
// seek distance weighted by deadline rank: candidates with later
// deadlines must be substantially closer to win.
//
// The 1991 paper leaves the weight schedule as a tunable; this
// reconstruction uses weight ssedoBeta^rank with ssedoBeta > 1, which
// preserves the published behavior (rank 0 wins unless a later candidate
// is much closer).
func NewSSEDO() Scheduler { return &picker{rule: &ruleSSEDO} }

var ruleSSEDO = rule{name: "ssedo", key: deadlineKey, pick: func(q []keyed, _ int64, head int) int {
	best, bestScore := 0, math.Inf(1)
	for rank, e := range q[:min(len(q), ssedWindow)] {
		// +1 keeps zero-distance requests comparable across ranks.
		score := float64(absDist(e.r.Cylinder, head)+1) * ssedoWeight[rank]
		if score < bestScore {
			best, bestScore = rank, score
		}
	}
	return best
}}

// ssedoWeight[rank] is ssedoBeta^rank, SSEDO's seek penalty by deadline
// rank.
var ssedoWeight = func() (w [ssedWindow]float64) {
	for rank := range w {
		w[rank] = math.Pow(ssedoBeta, float64(rank))
	}
	return w
}()

// NewSSEDV returns an SSEDV scheduler (Shortest Seek and Earliest
// Deadline by Value). It scores the same candidate window as SSEDO by a
// linear blend of deadline slack and seek distance:
// score = ssedvAlpha*slack + (1-ssedvAlpha)*seek, both normalized to their
// window maxima. Since ssedvAlpha is 4/5, the score times
// 5·maxSlack·maxSeek is the integer 4·slack·maxSeek + seek·maxSlack, and
// candidates are compared on that, exactly: a tie keeps the earlier
// deadline.
func NewSSEDV() Scheduler { return &picker{rule: &ruleSSEDV} }

var ruleSSEDV = rule{name: "ssedv", key: deadlineKey, pick: func(q []keyed, now int64, head int) int {
	cand := q[:min(len(q), ssedWindow)]
	maxSlack, maxSeek := int64(1), 1
	for _, e := range cand {
		r := e.r
		if sl := r.Slack(now); sl > 0 && sl < 1<<61 && sl > maxSlack {
			maxSlack = sl
		}
		if d := absDist(r.Cylinder, head); d > maxSeek {
			maxSeek = d
		}
	}
	best := -1
	var bestHi, bestLo uint64
	for i, e := range cand {
		r := e.r
		sl := min(max(r.Slack(now), 0), maxSlack)
		hi, lo := ssedvScore(uint64(sl), uint64(absDist(r.Cylinder, head)), uint64(maxSlack), uint64(maxSeek))
		if best < 0 || hi < bestHi || hi == bestHi && lo < bestLo {
			best, bestHi, bestLo = i, hi, lo
		}
	}
	return best
}}

// ssedvScore returns 4·slack·maxSeek + seek·maxSlack as a 128-bit
// (hi, lo) pair. slack ≤ maxSlack < 2^61 and seek ≤ maxSeek < 2^63, so
// each term is below 2^126 and the sum cannot overflow.
func ssedvScore(slack, seek, maxSlack, maxSeek uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(slack, maxSeek)
	hi, lo = hi<<2|lo>>62, lo<<2
	h2, l2 := bits.Mul64(seek, maxSlack)
	lo, carry := bits.Add64(lo, l2, 0)
	hi, _ = bits.Add64(hi, h2, carry)
	return hi, lo
}
