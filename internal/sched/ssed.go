package sched

import (
	"math"
	"math/bits"

	"sfcsched/internal/core"
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
func NewSSEDO() Scheduler {
	return &picker{name: "ssedo", pick: func(reqs []*core.Request, _ int64, head int) int {
		w, n := deadlineWindow(reqs)
		cand := w[:n]
		best, bestScore := cand[0], math.Inf(1)
		for rank, i := range cand {
			r := reqs[i]
			// +1 keeps zero-distance requests comparable across ranks.
			score := float64(absDist(r.Cylinder, head)+1) * math.Pow(ssedoBeta, float64(rank))
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		return best
	}}
}

// NewSSEDV returns an SSEDV scheduler (Shortest Seek and Earliest
// Deadline by Value). It scores the same candidate window as SSEDO by a
// linear blend of deadline slack and seek distance:
// score = ssedvAlpha*slack + (1-ssedvAlpha)*seek, both normalized to their
// window maxima. Since ssedvAlpha is 4/5, the score times
// 5·maxSlack·maxSeek is the integer 4·slack·maxSeek + seek·maxSlack, and
// candidates are compared on that, exactly: a tie keeps the earlier
// deadline.
func NewSSEDV() Scheduler {
	return &picker{name: "ssedv", pick: func(reqs []*core.Request, now int64, head int) int {
		w, n := deadlineWindow(reqs)
		cand := w[:n]
		maxSlack, maxSeek := int64(1), 1
		for _, i := range cand {
			r := reqs[i]
			if sl := r.Slack(now); sl > 0 && sl < 1<<61 && sl > maxSlack {
				maxSlack = sl
			}
			if d := absDist(r.Cylinder, head); d > maxSeek {
				maxSeek = d
			}
		}
		best := -1
		var bestHi, bestLo uint64
		for _, i := range cand {
			r := reqs[i]
			sl := min(max(r.Slack(now), 0), maxSlack)
			hi, lo := ssedvScore(uint64(sl), uint64(absDist(r.Cylinder, head)), uint64(maxSlack), uint64(maxSeek))
			if best < 0 || hi < bestHi || hi == bestHi && lo < bestLo {
				best, bestHi, bestLo = i, hi, lo
			}
		}
		return best
	}}
}

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

// deadlineWindow returns the indices of the ssedWindow earliest-deadline
// requests, ordered by deadline with the earlier queued first on a tie (a
// stable sort's order), and how many there are: fewer only on a shorter
// queue. One pass inserts into a fixed window, so a dispatch neither sorts
// the queue nor allocates.
func deadlineWindow(reqs []*core.Request) (idx [ssedWindow]int, n int) {
	var dl [ssedWindow]int64
	for i, r := range reqs {
		d := effDeadline(r)
		if n == ssedWindow && d >= dl[n-1] {
			continue
		}
		j := min(n, ssedWindow-1) // the slot to fill, or the last one to evict
		for ; j > 0 && d < dl[j-1]; j-- {
			idx[j], dl[j] = idx[j-1], dl[j-1]
		}
		idx[j], dl[j] = i, d
		n = min(n+1, ssedWindow)
	}
	return idx, n
}
