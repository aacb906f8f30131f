package sched

import (
	"math"
	"sort"

	"sfcsched/internal/core"
)

// The SSED policies' fixed settings: the candidate window m, SSEDO's
// per-rank seek penalty β and SSEDV's slack weight α.
const (
	ssedWindow = 5
	ssedoBeta  = 1.5
	ssedvAlpha = 0.8
)

// SSEDO (Chen, Stankovic, Kurose & Towsley: Shortest Seek and Earliest
// Deadline by Ordering) considers the ssedWindow earliest-deadline
// requests and serves the one minimizing seek distance weighted by
// deadline rank: candidates with later deadlines must be substantially
// closer to win.
//
// The 1991 paper leaves the weight schedule as a tunable; this
// reconstruction uses weight ssedoBeta^rank with ssedoBeta > 1, which
// preserves the published behavior (rank 0 wins unless a later candidate
// is much closer).
type SSEDO struct{ queue }

// NewSSEDO returns an SSEDO scheduler.
func NewSSEDO() *SSEDO { return &SSEDO{} }

// Name implements Scheduler.
func (s *SSEDO) Name() string { return "ssedo" }

// Add implements Scheduler.
func (s *SSEDO) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *SSEDO) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	cand := deadlineWindow(s.reqs)
	best, bestScore := cand[0], math.Inf(1)
	for rank, i := range cand {
		r := s.reqs[i]
		// +1 keeps zero-distance requests comparable across ranks.
		score := float64(absDist(r.Cylinder, head)+1) * math.Pow(ssedoBeta, float64(rank))
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return s.removeAt(best)
}

// SSEDV (Shortest Seek and Earliest Deadline by Value) scores the same
// candidate window by a linear blend of deadline slack and seek distance:
// score = ssedvAlpha*slack + (1-ssedvAlpha)*seek, both normalized to their
// window maxima.
type SSEDV struct{ queue }

// NewSSEDV returns an SSEDV scheduler.
func NewSSEDV() *SSEDV { return &SSEDV{} }

// Name implements Scheduler.
func (s *SSEDV) Name() string { return "ssedv" }

// Add implements Scheduler.
func (s *SSEDV) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *SSEDV) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	cand := deadlineWindow(s.reqs)
	maxSlack, maxSeek := int64(1), 1
	for _, i := range cand {
		r := s.reqs[i]
		if sl := r.Slack(now); sl > 0 && sl < 1<<61 && sl > maxSlack {
			maxSlack = sl
		}
		if d := absDist(r.Cylinder, head); d > maxSeek {
			maxSeek = d
		}
	}
	best, bestScore := cand[0], math.Inf(1)
	for _, i := range cand {
		r := s.reqs[i]
		sl := r.Slack(now)
		if sl < 0 {
			sl = 0
		}
		if sl > maxSlack {
			sl = maxSlack
		}
		score := ssedvAlpha*float64(sl)/float64(maxSlack) +
			(1-ssedvAlpha)*float64(absDist(r.Cylinder, head))/float64(maxSeek)
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return s.removeAt(best)
}

// deadlineWindow returns the indices of the ssedWindow earliest-deadline
// requests, ordered by deadline.
func deadlineWindow(reqs []*core.Request) []int {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return effDeadline(reqs[idx[a]]) < effDeadline(reqs[idx[b]])
	})
	if len(idx) > ssedWindow {
		idx = idx[:ssedWindow]
	}
	return idx
}
