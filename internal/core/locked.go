package core

import "sync"

// queue is the five-method scheduler contract — sched.Scheduler, restated
// here because package sched imports core. Scheduler, over any Valuer, and
// every baseline in internal/sched satisfy it.
type queue interface {
	Name() string
	Add(r *Request, now int64, head int)
	Next(now int64, head int) *Request
	Len() int
	Each(visit func(*Request))
}

// Locked is the concurrent ingress of the serving layer: one mutex and a
// closed flag around any scheduler. Any number of producer goroutines may
// Add while a consumer calls Next; every call runs the wrapped scheduler
// under the lock, so the dispatch order under a serialized feed is the
// wrapped scheduler's own, bit for bit — blocking window, SP, ER and all.
// Under concurrent feeds the order is whatever linearization the mutex
// produced: a request added concurrently with a Next call may be served on
// the following dispatch, the slack any queue in front of a single-threaded
// scheduler introduces.
//
// Why a mutex and not something cleverer is measured, not assumed; see
// DESIGN.md §13.
type Locked struct {
	mu sync.Mutex
	q  queue
	// closed marks the ingress shut (Close). TryAdd reads it under mu,
	// which is what makes shutdown lossless: every accepted request is
	// visible to a later Next, and every request racing past Close is
	// visibly rejected.
	closed bool
}

// Lock puts q behind a Locked. Locking a *Locked returns it unchanged, so a
// layer that needs a concurrent scheduler can Lock whatever it is handed
// without ever stacking a second mutex on the path.
func Lock(q queue) *Locked {
	if l, ok := q.(*Locked); ok {
		return l
	}
	return &Locked{q: q}
}

// Name returns the wrapped scheduler's display name.
func (l *Locked) Name() string { return l.q.Name() }

// Add enqueues r. On a closed ingress the request is rejected; callers that
// must know (serving ingress paths) use TryAdd.
func (l *Locked) Add(r *Request, now int64, head int) { l.TryAdd(r, now, head) }

// TryAdd enqueues r and reports whether the ingress accepted it. After
// Close every TryAdd returns false and the request is not queued, so a
// producer can account for (or re-route) it — requests are either visibly
// rejected or dispatched exactly once, never silently lost.
func (l *Locked) TryAdd(r *Request, now int64, head int) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.q.Add(r, now, head)
	l.mu.Unlock()
	return true
}

// Next dispatches the wrapped scheduler's next request, or nil when idle.
func (l *Locked) Next(now int64, head int) *Request {
	l.mu.Lock()
	r := l.q.Next(now, head)
	l.mu.Unlock()
	return r
}

// Len returns the number of queued requests.
func (l *Locked) Len() int {
	l.mu.Lock()
	n := l.q.Len()
	l.mu.Unlock()
	return n
}

// Each visits every queued request. The ingress is held for the whole
// walk: visit must not call back into l.
func (l *Locked) Each(visit func(*Request)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.q.Each(visit)
}

// Close shuts the ingress: every subsequent TryAdd returns false (and Add
// becomes a no-op) while Next, Len and Each keep working, so a serving loop
// can stop accepting work and still hand out — or count — everything
// already queued. Idempotent.
func (l *Locked) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// ---- bench-pinned block --------------------------------------------------
//
// The three spellings the frozen bench/ compiles against (serve-live and the
// core.sharded.* layer loops), kept as a shim over Locked so the benchmark
// need not be edited by the change whose result it judges. The benchmark thaw
// rewrites those loops against an interface and deletes this block. No
// non-test code outside bench/ may use it.

// ShardedScheduler is the former concurrent Cascaded-SFC queue type.
type ShardedScheduler = Locked

// NewShardedScheduler returns a locked fully-preemptive Cascaded-SFC
// scheduler; the third argument was a shard count.
func NewShardedScheduler(name string, ecfg EncapsulatorConfig, _ int) (*ShardedScheduler, error) {
	s, err := NewScheduler(name, ecfg, DispatcherConfig{Mode: FullyPreemptive}, 0)
	if err != nil {
		return nil, err
	}
	return Lock(s), nil
}

// SetMetrics installs m as the wrapped scheduler's sink when it takes one
// (Scheduler); a no-op for any other scheduler. Must be called before the
// first Add.
func (l *Locked) SetMetrics(m *Metrics) {
	if s, ok := l.q.(interface{ SetMetrics(*Metrics) }); ok {
		s.SetMetrics(m)
	}
}

// ---- end bench-pinned block ----------------------------------------------
