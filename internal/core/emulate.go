package core

import "math"

// ValueFunc is a Valuer that ignores the sweep timeline: the paper's §4.2
// observation that, with the SFC stages bypassed, the Cascaded-SFC
// machinery realizes "any one-dimensional disk scheduler" by choosing the
// insertion criterion. Lower values dispatch earlier.
type ValueFunc func(r *Request, now int64, head int) uint64

// ValueAt implements Valuer.
func (f ValueFunc) ValueAt(r *Request, now int64, head int, _ uint64) uint64 {
	return f(r, now, head)
}

// preset builds a §4.2 emulation: values computed at insertion, zero
// window, fully preemptive.
func preset(name string, v Valuer, cylinders int) *Scheduler {
	s, err := NewValueScheduler(name, v, cylinders, DispatcherConfig{Mode: FullyPreemptive})
	if err != nil {
		panic(err)
	}
	return s
}

// The paper's §4.2 emulation presets. Each returns a Scheduler whose
// dispatch order reproduces the named classic.

// EmulateFCFS orders by arrival sequence: every request gets the same
// value and the dispatcher's FIFO tie-break is the criterion.
func EmulateFCFS() *Scheduler {
	return preset("fcfs(emulated)", ValueFunc(func(*Request, int64, int) uint64 { return 0 }), 0)
}

// EmulateEDF orders by absolute deadline; requests without one go last.
func EmulateEDF() *Scheduler {
	return preset("edf(emulated)", ValueFunc(func(r *Request, _ int64, _ int) uint64 {
		if r.Deadline == 0 {
			return math.MaxUint64
		}
		return uint64(r.Deadline)
	}), 0)
}

// EmulateSSTF orders by seek distance from the head position at insertion.
// True SSTF re-evaluates at every dispatch; the emulation freezes the
// insertion-time distance, which the paper accepts as the cost of the
// unified framework.
func EmulateSSTF() *Scheduler {
	return preset("sstf(emulated)", ValueFunc(func(r *Request, _ int64, head int) uint64 {
		return uint64(max(r.Cylinder-head, head-r.Cylinder))
	}), 0)
}

// cscan is EmulateCSCAN's criterion on a disk of that many cylinders.
type cscan int

func (c cscan) ValueAt(r *Request, _ int64, head int, progress uint64) uint64 {
	return progress + uint64(cylsAhead(r.Cylinder, head, int(c)))
}

// EmulateCSCAN orders by cyclic distance ahead of the head on the absolute
// sweep timeline (one pure scan, like the SFC3 stage at R = 1).
func EmulateCSCAN(cylinders int) *Scheduler {
	cylinders = max(cylinders, 1)
	return preset("cscan(emulated)", cscan(cylinders), cylinders)
}

// EmulateMultiQueue orders by the first priority level, FIFO within a
// level (the multi-queue scheduler with FIFO instead of scan inside each
// queue).
func EmulateMultiQueue(levels int) *Scheduler {
	levels = max(levels, 1)
	return preset("multi-queue(emulated)", ValueFunc(func(r *Request, _ int64, _ int) uint64 {
		if len(r.Priorities) == 0 {
			return 0
		}
		return uint64(clampLevel(r.Priorities[0], levels))
	}), 0)
}
