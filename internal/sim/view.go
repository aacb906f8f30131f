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
// ranking of a scheduler with no values. A dl or noDl entry carries its
// request's queued value, which locates the request in byV. Each list is
// a core.Gapped store, the baselines' queue store, so an insert or a
// removal is a binary search per list plus a shift of the list's shorter
// side: a served request sits near the front and moves few entries, and
// the stores keep their memory. Reading a record costs O(MaxTopK).
type queueView struct {
	sched sched.Scheduler
	adder valueAdder // sched, when it reports queued values
	byV   core.Gapped[viewEntry]
	dl    core.Gapped[viewEntry]
	noDl  core.Gapped[viewEntry]
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
	q.byV.Reset()
	q.dl.Reset()
	q.noDl.Reset()
}

// len returns the number of requests in the view.
func (q *queueView) len() int { return q.dl.Len() + q.noDl.Len() }

// add hands r to the scheduler and records it with its queued value.
func (q *queueView) add(r *core.Request, now int64, head int) {
	v := NoValue
	if q.adder != nil {
		v = q.adder.AddValue(r, now, head)
		q.byV.InsertAt(search(q.byV.Live(), v, r.ID), viewEntry{key: v, id: r.ID, v: v, r: r})
	} else {
		q.sched.Add(r, now, head)
	}
	list, key := q.deadlineList(r)
	list.InsertAt(search(list.Live(), key, r.ID), viewEntry{key: key, id: r.ID, v: v, r: r})
}

// remove drops r from the view.
func (q *queueView) remove(r *core.Request) {
	list, key := q.deadlineList(r)
	v := list.RemoveAt(findEntry(list.Live(), key, r)).v
	if q.adder != nil {
		q.byV.RemoveAt(findEntry(q.byV.Live(), v, r))
	}
}

// value returns the value r was queued at, NoValue without a valueAdder.
func (q *queueView) value(r *core.Request) uint64 {
	list, key := q.deadlineList(r)
	live := list.Live()
	return live[findEntry(live, key, r)].v
}

// deadlineList returns the list holding r by its deadline, and r's key
// in it.
func (q *queueView) deadlineList(r *core.Request) (*core.Gapped[viewEntry], uint64) {
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

// summary returns the view's QueueSummary at time now. Deadline order is
// slack order, so the slack minimum, median and maximum are read off dl.
// A deadline exactly NoDeadlineSlack past now reads as no deadline, as
// Request.Slack reports it; those form one run of dl, skipped here.
func (q *queueView) summary(now int64) QueueSummary {
	s := QueueSummary{Depth: q.len()}
	if byV := q.byV.Live(); len(byV) > 0 {
		s.VMin, s.VMax = byV[0].key, byV[len(byV)-1].key
	}
	dl := q.dl.Live()
	key := timeKey(now + NoDeadlineSlack)
	a, skip := len(dl), 0
	if a > 0 && dl[a-1].key >= key { // a deadline reaches that far
		a = search(dl, key, 0)
		for a+skip < len(dl) && dl[a+skip].key == key {
			skip++
		}
	}
	n := len(dl) - skip
	if n == 0 {
		return s
	}
	at := func(i int) int64 {
		if i >= a {
			i += skip
		}
		return keyTime(dl[i].key) - now
	}
	s.Deadlined, s.SlackMin, s.SlackP50, s.SlackMax = n, at(0), at(n/2), at(n-1)
	return s
}

// topK fills rec.TopK and rec.K with the view's first MaxTopK requests at
// time now: by (V, ID) for a value scheduler, otherwise by (Slack, ID),
// merging dl with noDl, whose slack is NoDeadlineSlack.
func (q *queueView) topK(rec *DecisionRecord, now int64) {
	if q.adder != nil {
		byV := q.byV.Live()
		rec.K = min(len(byV), MaxTopK)
		for k := range rec.K {
			rec.TopK[k] = byV[k].candidate(now)
		}
		return
	}
	dl, noDl := q.dl.Live(), q.noDl.Live()
	i, j := 0, 0
	for rec.K = 0; rec.K < MaxTopK; rec.K++ {
		var e *viewEntry
		switch {
		case i < len(dl) && j < len(noDl):
			if c := dl[i].candidate(now); c.Slack < NoDeadlineSlack || c.Slack == NoDeadlineSlack && c.ID < noDl[j].id {
				e, i = &dl[i], i+1
			} else {
				e, j = &noDl[j], j+1
			}
		case i < len(dl):
			e, i = &dl[i], i+1
		case j < len(noDl):
			e, j = &noDl[j], j+1
		default:
			return
		}
		rec.TopK[rec.K] = e.candidate(now)
	}
}
