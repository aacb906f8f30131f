package sim

import (
	"sfcsched/internal/core"
	"sfcsched/internal/sched"
)

// A Shadow is a counterfactual scheduler riding along a run: it receives
// exactly the arrival stream the primary station's scheduler receives
// (including fault retries) and is asked, at every primary service
// dispatch, what it would have dispatched — tracking its own hypothetical
// head position, head travel, drop count and deadline-slack deltas. It
// never enqueues events, never touches the engine RNG, never moves the
// real head and never writes to the primary collectors, so a run with
// shadows attached is byte-identical to one without (pinned by
// TestShadowsDoNotPerturb and the golden-identity fuzz target).
//
// Divergence semantics: the shadow maintains its own queue on the shared
// arrival stream. When the primary dispatches, the shadow pops its own
// choice — which may be a request the primary served earlier or will
// serve later; each request is dispatched at most once per queue. An
// agreement is the shadow choosing the same request (pointer identity)
// the primary chose at the same decision point. The queues therefore
// measure per-decision policy divergence under identical load, not a full
// re-simulation with re-timed completions — for that, run the policy as
// the primary.
type Shadow struct {
	// Station is the station index the shadow attaches to; leave 0 for
	// single-disk runs.
	Station int

	name      string
	sched     sched.Scheduler
	dropLate  bool
	cylinders int
	head      int
	travel    int64

	decisions    uint64
	agreements   uint64
	drops        uint64
	empty        uint64
	slackDelta   int64
	slackSamples uint64

	used bool
	m    *DecisionMetrics
}

// metricsRedirector is implemented by schedulers whose observability
// counters can be pointed away from the process-wide defaults
// (core.Scheduler). Shadows redirect theirs to a throwaway sink so
// counterfactual activity never pollutes the primary metrics.
type metricsRedirector interface {
	SetMetrics(*core.Metrics)
}

// NewShadow wraps s as a counterfactual shadow named name. The scheduler
// must be fresh (empty queue) and is owned by the shadow for one run; its
// core metrics, when redirectable, are pointed at a throwaway sink.
func NewShadow(name string, s sched.Scheduler) *Shadow {
	if mr, ok := s.(metricsRedirector); ok {
		mr.SetMetrics(&core.Metrics{})
	}
	return &Shadow{name: name, sched: s, m: DefaultDecisionMetrics}
}

// SetMetrics redirects the shadow's decision counters to m instead of the
// process-wide DefaultDecisionMetrics. Call before the run starts.
func (sh *Shadow) SetMetrics(m *DecisionMetrics) { sh.m = m }

// Name returns the shadow's display name.
func (sh *Shadow) Name() string { return sh.name }

// bind attaches the shadow to its station at run start. A Shadow is
// single-use: its scheduler and divergence state carry one run's history.
func (sh *Shadow) bind(st *Station, dropLate bool) {
	sh.used = true
	sh.dropLate = dropLate
	sh.head = st.head
	if st.Disk != nil {
		sh.cylinders = st.Disk.Cylinders
	}
}

// add mirrors a primary enqueue into the shadow's queue, with the
// shadow's own head position.
func (sh *Shadow) add(r *core.Request, now int64) {
	sh.sched.Add(r, now, sh.head)
}

// observe is called when the primary station starts a service on primary:
// the shadow pops its own choice, applies the same drop-late rule, and
// accounts divergence against the primary's choice.
func (sh *Shadow) observe(primary *core.Request, now int64) {
	sh.decisions++
	sh.m.ShadowDecisions.Inc()
	for {
		r := sh.sched.Next(now, sh.head)
		if r == nil {
			sh.empty++
			return
		}
		if sh.dropLate && r.Deadline > 0 && now > r.Deadline {
			sh.drops++
			continue
		}
		if r == primary {
			sh.agreements++
		} else {
			sh.m.ShadowDisagreements.Inc()
		}
		target := r.Cylinder
		if sh.cylinders > 0 {
			target = min(max(target, 0), sh.cylinders-1)
		}
		sh.travel += int64(max(target-sh.head, sh.head-target))
		sh.head = target
		if r.Deadline > 0 && primary.Deadline > 0 {
			sh.slackDelta += r.Deadline - primary.Deadline
			sh.slackSamples++
		}
		return
	}
}

// ShadowReport is the divergence summary of one shadow after a run.
type ShadowReport struct {
	// Name is the shadow's display name; Station the station it rode.
	Name    string
	Station int
	// Decisions counts primary service dispatches the shadow observed.
	Decisions uint64
	// Agreements counts decisions where the shadow chose the same request
	// as the primary.
	Agreements uint64
	// Drops counts requests the shadow's queue dropped expired (DropLate
	// runs only); Empty counts decisions where the shadow's queue had
	// nothing eligible.
	Drops uint64
	Empty uint64
	// HeadTravel is the hypothetical cylinders traveled by the shadow's
	// head; compare against Result.HeadTravel for the travel delta.
	HeadTravel int64
	// SlackDelta sums (shadow choice deadline − primary choice deadline)
	// over the SlackSamples decisions where both carried deadlines:
	// negative means the shadow favored more urgent requests.
	SlackDelta   int64
	SlackSamples uint64
	// QueueLeft is the shadow queue's length at run end (requests the
	// shadow never got to dispatch).
	QueueLeft int
}

// DisagreementRate returns the fraction of observed decisions where the
// shadow chose differently (empty-queue observations count as
// disagreements; they mean the shadow had already served everything).
func (r ShadowReport) DisagreementRate() float64 {
	if r.Decisions == 0 {
		return 0
	}
	return 1 - float64(r.Agreements)/float64(r.Decisions)
}

// Report summarizes the shadow after its run.
func (sh *Shadow) Report() ShadowReport {
	return ShadowReport{
		Name:         sh.name,
		Station:      sh.Station,
		Decisions:    sh.decisions,
		Agreements:   sh.agreements,
		Drops:        sh.drops,
		Empty:        sh.empty,
		HeadTravel:   sh.travel,
		SlackDelta:   sh.slackDelta,
		SlackSamples: sh.slackSamples,
		QueueLeft:    sh.sched.Len(),
	}
}
