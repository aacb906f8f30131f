package cluster

import (
	"fmt"
	"math"
)

// Admitter rules on each arriving request before routing: a rejected
// request is counted as an admission drop for its class and never touches
// a queue. Admit must be deterministic in (class, now) and its own prior
// calls.
type Admitter interface {
	Name() string
	// Admit rules on one arrival of SLO class class at time now (µs).
	// Calls arrive in non-decreasing now order (the engine clock).
	Admit(class int, now int64) bool
}

// AlwaysAdmit is the no-op admission policy: every request is admitted.
type AlwaysAdmit struct{}

// Name implements Admitter.
func (AlwaysAdmit) Name() string { return "always" }

// Admit implements Admitter.
func (AlwaysAdmit) Admit(int, int64) bool { return true }

// microToken is the integer sub-unit of one token: token-bucket levels
// are kept in micro-tokens so refill is exact integer arithmetic — a rate
// of R tokens/second is exactly R micro-tokens/µs — and replay is
// byte-identical with no float drift.
const microToken = 1_000_000

// TokenBucket is per-class token-bucket admission control: class c admits
// at most Burst requests instantaneously and Rate requests per second
// sustained. Each class owns an independent bucket; buckets start full.
type TokenBucket struct {
	rate  int64 // micro-tokens per µs == tokens per second
	cap   int64 // micro-tokens
	fill  int64 // µs after which an empty bucket is full: cap/rate + 1
	level []int64
	last  []int64
}

// NewTokenBucket builds per-class buckets: classes independent buckets,
// each refilling at ratePerSec tokens/second up to a burst capacity.
func NewTokenBucket(classes int, ratePerSec, burst int64) (*TokenBucket, error) {
	if classes < 1 {
		return nil, fmt.Errorf("cluster: token bucket needs at least one class, got %d", classes)
	}
	if ratePerSec < 1 || burst < 1 {
		return nil, fmt.Errorf("cluster: token bucket rate and burst must be positive, got rate=%d burst=%d", ratePerSec, burst)
	}
	if burst > math.MaxInt64/microToken {
		return nil, fmt.Errorf("cluster: token bucket burst must be at most %d, got %d", math.MaxInt64/microToken, burst)
	}
	tb := &TokenBucket{
		rate:  ratePerSec,
		cap:   burst * microToken,
		fill:  burst*microToken/ratePerSec + 1,
		level: make([]int64, classes),
		last:  make([]int64, classes),
	}
	for i := range tb.level {
		tb.level[i] = tb.cap
	}
	return tb, nil
}

// Name implements Admitter.
func (tb *TokenBucket) Name() string { return "token" }

// Admit implements Admitter: refill the class's bucket for the time since
// its last ruling, then spend one token if a whole one is available.
// Refill is incremental integer arithmetic, so a token that completes
// exactly at now is spendable at now and one µs earlier it is not. A gap
// of fill µs or more refills the bucket outright; a shorter one adds at
// most cap, so the product cannot overflow.
func (tb *TokenBucket) Admit(class int, now int64) bool {
	if class < 0 {
		class = 0
	}
	if class >= len(tb.level) {
		class = len(tb.level) - 1
	}
	if dt := now - tb.last[class]; dt > 0 {
		lvl := tb.cap
		if dt < tb.fill && dt*tb.rate < tb.cap-tb.level[class] {
			lvl = tb.level[class] + dt*tb.rate
		}
		tb.level[class] = lvl
		tb.last[class] = now
	}
	if tb.level[class] < microToken {
		return false
	}
	tb.level[class] -= microToken
	return true
}

// NewAdmitter builds the named admission policy: "always", or "token"
// with classes per-class buckets of ratePerSec tokens/second and burst
// capacity.
func NewAdmitter(name string, classes int, ratePerSec, burst int64) (Admitter, error) {
	switch name {
	case "always":
		return AlwaysAdmit{}, nil
	case "token", "token-bucket":
		return NewTokenBucket(classes, ratePerSec, burst)
	default:
		return nil, fmt.Errorf("cluster: unknown admission policy %q (want always or token)", name)
	}
}
