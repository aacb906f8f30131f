package sim

import (
	"math/bits"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
)

// valueAdder is implemented by schedulers that order requests by a scalar
// computed once, at enqueue — lower is served earlier — and report it from
// the add itself. core.Scheduler implements it with the dispatcher's v_c,
// so an observed station keeps every queued value without recomputing it.
type valueAdder interface {
	AddValue(r *core.Request, now int64, head int) uint64
}

// queueView is an observed station's queue, kept sorted for the decision
// trace and the telemetry sampler so that neither walks the scheduler's
// queue. It exists only while Options.Decisions or Options.Telemetry is
// set. Station.Enqueue is its one insert path and Station.left its one
// removal path, so it holds exactly what the scheduler holds, save for a
// request the scheduler has just handed out, which leaves the view after
// its decision is recorded.
//
// Every list is sorted by (key, ID):
//   - byV holds a value scheduler's requests keyed by their queued value;
//   - dl holds the requests with a deadline, keyed by timeKey(Deadline);
//   - noDl holds the requests without one, all keyed 0.
//
// dl's keys are the deadline multiset; deadline order is slack order
// (Slack is Deadline − now, which does not overflow for the clocks and
// deadlines a run holds), so dl and noDl merge into the (Slack, ID)
// ranking of a scheduler with no values. A dl or noDl entry carries its request's queued value, which
// locates the request in byV. Each insert or removal is a binary search
// per list plus the slice shift; reading a record costs O(MaxTopK).
type queueView struct {
	sched sched.Scheduler
	adder valueAdder // sched, when it reports queued values
	byV   []viewEntry
	dl    []viewEntry
	noDl  []viewEntry
}

// viewEntry is one queued request in one of the view's lists.
type viewEntry struct {
	key, id uint64
	v       uint64 // the queued value, NoValue without a valueAdder
	r       *core.Request
}

// reset empties the view, keeping its memory, for a run on s.
func (q *queueView) reset(s sched.Scheduler) {
	q.sched = s
	q.adder, _ = s.(valueAdder)
	q.byV, q.dl, q.noDl = q.byV[:0], q.dl[:0], q.noDl[:0]
}

// len returns the number of requests in the view.
func (q *queueView) len() int { return len(q.dl) + len(q.noDl) }

// add hands r to the scheduler and records it with its queued value.
func (q *queueView) add(r *core.Request, now int64, head int) {
	v := NoValue
	if q.adder != nil {
		v = q.adder.AddValue(r, now, head)
		q.byV = insertEntry(q.byV, viewEntry{key: v, id: r.ID, v: v, r: r})
	} else {
		q.sched.Add(r, now, head)
	}
	list, key := q.deadlineList(r)
	*list = insertEntry(*list, viewEntry{key: key, id: r.ID, v: v, r: r})
}

// remove drops r from the view.
func (q *queueView) remove(r *core.Request) {
	list, key := q.deadlineList(r)
	i := findEntry(*list, key, r)
	v := (*list)[i].v
	*list = deleteEntry(*list, i)
	if q.adder != nil {
		q.byV = deleteEntry(q.byV, findEntry(q.byV, v, r))
	}
}

// value returns the value r was queued at, NoValue without a valueAdder.
func (q *queueView) value(r *core.Request) uint64 {
	list, key := q.deadlineList(r)
	return (*list)[findEntry(*list, key, r)].v
}

// deadlineList returns the list holding r by its deadline, and r's key
// in it.
func (q *queueView) deadlineList(r *core.Request) (*[]viewEntry, uint64) {
	if r.Deadline == 0 {
		return &q.noDl, 0
	}
	return &q.dl, timeKey(r.Deadline)
}

// search returns the index of the first entry of s at or after (key, id).
// Each halving step is branch-free — the borrow of the 128-bit difference
// (e.key, e.id) − (key, id) is 1 exactly when the entry ranks first — since
// on a queue the comparisons are unpredictable.
func search(s []viewEntry, key, id uint64) int {
	base, n := 0, len(s)
	for n > 0 {
		half := n / 2
		e := &s[base+half]
		_, before := bits.Sub64(e.id, id, 0)
		_, before = bits.Sub64(e.key, key, before)
		base += int(before) * (n - half)
		n = half
	}
	return base
}

// insertEntry inserts e into s at its rank.
func insertEntry(s []viewEntry, e viewEntry) []viewEntry {
	i := search(s, e.key, e.id)
	s = append(s, viewEntry{})
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// deleteEntry removes s[i], clearing the vacated slot so the view's spare
// capacity pins no request.
func deleteEntry(s []viewEntry, i int) []viewEntry {
	n := len(s) - 1
	copy(s[i:], s[i+1:])
	s[n] = viewEntry{}
	return s[:n]
}

// findEntry returns the index of r's entry in s, keyed key. Queued IDs are
// distinct in every workload, but the request pointer decides, so a
// trace that repeats an ID still removes the right entry.
func findEntry(s []viewEntry, key uint64, r *core.Request) int {
	i := search(s, key, r.ID)
	for s[i].r != r {
		i++
	}
	return i
}

// candidate returns e as a decision candidate at time now.
func (e *viewEntry) candidate(now int64) DecisionCandidate {
	return DecisionCandidate{ID: e.id, Cylinder: e.r.Cylinder, Slack: e.r.Slack(now), V: e.v}
}

// values returns the least and greatest queued value, (0, 0) when the
// view is empty or its scheduler reports no values.
func (q *queueView) values() (lo, hi uint64) {
	if n := len(q.byV); n > 0 {
		return q.byV[0].key, q.byV[n-1].key
	}
	return 0, 0
}

// slacks summarizes the deadline slack at time now of the queued
// requests that have one: their count, minimum, median (the element a
// sort would leave at index count/2) and maximum, all 0 when there are
// none. A deadline exactly NoDeadlineSlack past now reads as no deadline,
// as Request.Slack reports it; those form one run of dl, skipped here.
func (q *queueView) slacks(now int64) (n int, lo, p50, hi int64) {
	key := timeKey(now + NoDeadlineSlack)
	a, skip := len(q.dl), 0
	if a > 0 && q.dl[a-1].key >= key { // a deadline reaches that far
		a = search(q.dl, key, 0)
		for a+skip < len(q.dl) && q.dl[a+skip].key == key {
			skip++
		}
	}
	n = len(q.dl) - skip
	if n == 0 {
		return 0, 0, 0, 0
	}
	at := func(i int) int64 {
		if i >= a {
			i += skip
		}
		return keyTime(q.dl[i].key) - now
	}
	return n, at(0), at(n / 2), at(n - 1)
}

// summary fills rec's summary of the queue at time now: VSpread, the
// slack distribution, K and TopK.
func (q *queueView) summary(rec *DecisionRecord, now int64) {
	lo, hi := q.values()
	rec.VSpread = hi - lo
	rec.Deadlined, rec.SlackMin, rec.SlackP50, rec.SlackMax = q.slacks(now)
	q.topK(rec, now)
}

// topK fills rec.TopK and rec.K with the view's first MaxTopK requests at
// time now: by (V, ID) for a value scheduler, otherwise by (Slack, ID),
// merging dl with noDl, whose slack is NoDeadlineSlack.
func (q *queueView) topK(rec *DecisionRecord, now int64) {
	if q.adder != nil {
		rec.K = min(len(q.byV), MaxTopK)
		for k := range rec.K {
			rec.TopK[k] = q.byV[k].candidate(now)
		}
		return
	}
	i, j := 0, 0
	for rec.K = 0; rec.K < MaxTopK; rec.K++ {
		var e *viewEntry
		switch {
		case i < len(q.dl) && j < len(q.noDl):
			if c := q.dl[i].candidate(now); c.Slack < NoDeadlineSlack || c.Slack == NoDeadlineSlack && c.ID < q.noDl[j].id {
				e, i = &q.dl[i], i+1
			} else {
				e, j = &q.noDl[j], j+1
			}
		case i < len(q.dl):
			e, i = &q.dl[i], i+1
		case j < len(q.noDl):
			e, j = &q.noDl[j], j+1
		default:
			return
		}
		rec.TopK[rec.K] = e.candidate(now)
	}
}
