// Package core implements the Cascaded-SFC multimedia disk scheduler of
// Mokbel, Aref, Elbassioni and Kamel (ICDE 2004).
//
// A disk request carrying D priority-like parameters, a real-time deadline
// and a target cylinder is a point in a (D+2)-dimensional space. The
// Encapsulator collapses that point into one scalar characterization value
// v_c through up to three cascaded space-filling-curve stages; the
// Dispatcher serves requests in increasing v_c with a tunable preemption
// policy. Lower v_c means higher service priority.
package core

// Time values throughout the scheduler are absolute simulation clock
// readings in microseconds.

// Request is a multimedia disk request with multiple QoS parameters.
type Request struct {
	// ID identifies the request; the simulator assigns them densely.
	ID uint64
	// Priorities holds the D priority-like QoS levels. Level 0 is the
	// highest priority in every dimension.
	Priorities []int
	// Deadline is the absolute time by which the request must be serviced;
	// 0 means no deadline.
	Deadline int64
	// Cylinder is the target disk cylinder.
	Cylinder int
	// Size is the transfer size in bytes.
	Size int64
	// Arrival is the absolute arrival time.
	Arrival int64
	// Write marks write requests (used by the RAID-5 and §6 workloads).
	Write bool
	// Value is an optional application-assigned worth, used by value-based
	// baselines (BUCKET, SSEDV). Higher is worth more.
	Value int
	// Tenant identifies the issuing tenant in multi-tenant cluster runs;
	// single-disk and array workloads leave it 0.
	Tenant int
	// Class is the tenant's SLO class, 0 being the most stringent. The
	// cluster layer accounts admission drops, deadline losses and latency
	// per class.
	Class int
}

// Slack returns time remaining until the deadline at time now; requests
// without a deadline report a very large slack.
func (r *Request) Slack(now int64) int64 {
	if r.Deadline == 0 {
		return 1 << 62
	}
	return r.Deadline - now
}
