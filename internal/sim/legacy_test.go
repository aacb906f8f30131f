package sim

// This file preserves the two pre-engine simulation loops verbatim (the
// sequential single-disk loop and the separately-structured array loop) as
// reference implementations for the golden differential tests. The old
// results are the contract: the unified Engine must reproduce these
// metrics exactly on randomized traces. Do not "fix" or modernize this
// code — its job is to stay byte-for-byte faithful to the deleted loops.
// The one cut is sampled rotation, which the engine no longer offers: both
// loops charge the average rotational latency, as the engine does.

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
)

// legacyRun is the pre-engine sim.Run.
func legacyRun(cfg Config, trace []*core.Request) (*Result, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("sim: Scheduler is required")
	}
	if cfg.Disk == nil && cfg.FixedService <= 0 {
		return nil, fmt.Errorf("sim: need a Disk model or FixedService")
	}
	dims, levels := cfg.Dims, cfg.Levels
	if dims == 0 {
		for _, r := range trace {
			if len(r.Priorities) > dims {
				dims = len(r.Priorities)
			}
		}
	}
	if levels == 0 {
		levels = 1
		for _, r := range trace {
			for _, p := range r.Priorities {
				if p+1 > levels {
					levels = p + 1
				}
			}
		}
	}
	col := metrics.NewCollector(dims, levels)
	res := &Result{Collector: col, Scheduler: cfg.Scheduler.Name()}
	s := cfg.Scheduler
	now := int64(0)
	head := 0
	i := 0 // next arrival index

	deliver := func(until int64, head int) {
		for i < len(trace) && trace[i].Arrival <= until {
			r := trace[i]
			col.OnArrival(r)
			s.Add(r, r.Arrival, head)
			i++
		}
	}

	for {
		deliver(now, head)
		r := s.Next(now, head)
		if r == nil {
			if i >= len(trace) {
				break
			}
			now = trace[i].Arrival
			continue
		}
		if cfg.DropLate && r.Deadline > 0 && now > r.Deadline {
			col.OnDropped(r)
			if cfg.Trace != nil {
				cfg.Trace(TraceEvent{Now: now, Request: r, Dropped: true, QueueLen: s.Len()})
			}
			continue
		}
		col.OnDispatch(r, s.Each)
		seek, svc := legacyServiceTime(cfg, head, r)
		start := now
		if cfg.Disk != nil {
			res.HeadTravel += int64(max(r.Cylinder-head, head-r.Cylinder))
		}
		if cfg.Trace != nil {
			cfg.Trace(TraceEvent{Now: now, Request: r, Head: head, Seek: seek, Service: svc, QueueLen: s.Len()})
		}
		// Arrivals during the service window are delivered with their true
		// timestamps; the head is en route to (then at) the target. Note
		// the historical head-position inconsistency kept here on purpose:
		// the unclamped cylinder is fed to the scheduler during the window
		// while the resting head below is clamped. The engine fixed this;
		// the golden tests therefore fuzz with in-range cylinders only.
		deliver(start+svc, r.Cylinder)
		now = start + svc
		head = legacyTargetCylinder(cfg, r)
		col.OnServed(r, seek, svc, start)
		if r.Deadline > 0 && start > r.Deadline {
			col.OnLate(r)
		}
	}
	col.Makespan = now
	return res, nil
}

// legacyServiceTime is the pre-engine Config.serviceTime.
func legacyServiceTime(cfg Config, head int, r *core.Request) (int64, int64) {
	if cfg.FixedService > 0 {
		return 0, cfg.FixedService
	}
	cyl := min(max(r.Cylinder, 0), cfg.Disk.Cylinders-1)
	seek := cfg.Disk.SeekTime(min(max(head, 0), cfg.Disk.Cylinders-1), cyl)
	return seek, seek + cfg.Disk.AvgRotationalLatency() + cfg.Disk.TransferTime(cyl, r.Size)
}

// legacyTargetCylinder is the pre-engine targetCylinder.
func legacyTargetCylinder(cfg Config, r *core.Request) int {
	if cfg.Disk == nil {
		return r.Cylinder
	}
	return min(max(r.Cylinder, 0), cfg.Disk.Cylinders-1)
}

// legacyLogicalState tracks one in-flight logical request.
type legacyLogicalState struct {
	req       *core.Request
	pending   int
	missed    bool
	writeOps  []disk.PhysOp
	readsLeft int
}

// legacyPhysReq is a physical operation queued on one disk.
type legacyPhysReq struct {
	req    *core.Request
	parent *legacyLogicalState
}

// legacyArrayState is the per-disk runtime state.
type legacyArrayState struct {
	sched  sched.Scheduler
	head   int
	freeAt int64
	inSvc  *legacyPhysReq
}

// legacyRunArray is the pre-engine sim.RunArray.
func legacyRunArray(cfg ArrayConfig, logical []*core.Request) (*ArrayResult, error) {
	if cfg.Array == nil || cfg.NewScheduler == nil {
		return nil, fmt.Errorf("sim: ArrayConfig needs Array and NewScheduler")
	}
	model := cfg.Array.Model
	disks := make([]*legacyArrayState, cfg.Array.Disks)
	for d := range disks {
		s, err := cfg.NewScheduler(d)
		if err != nil {
			return nil, fmt.Errorf("sim: disk %d scheduler: %w", d, err)
		}
		disks[d] = &legacyArrayState{sched: s}
	}
	res := &ArrayResult{
		Logical:    metrics.NewCollector(cfg.Dims, cfg.Levels),
		PerDiskOps: make([]uint64, cfg.Array.Disks),
	}
	byPhys := make(map[*core.Request]*legacyPhysReq)
	var nextPhysID uint64

	enqueue := func(st *legacyLogicalState, ops []disk.PhysOp, now int64) {
		for _, op := range ops {
			nextPhysID++
			pr := &legacyPhysReq{
				req: &core.Request{
					ID:         nextPhysID,
					Priorities: st.req.Priorities,
					Deadline:   st.req.Deadline,
					Cylinder:   op.Cylinder,
					Size:       op.Size,
					Arrival:    now,
					Write:      op.Write,
					Value:      st.req.Value,
				},
				parent: st,
			}
			byPhys[pr.req] = pr
			ds := disks[op.Disk]
			ds.sched.Add(pr.req, now, ds.head)
			res.PerDiskOps[op.Disk]++
		}
	}

	finish := func(st *legacyLogicalState, now int64) {
		if st.missed {
			res.Logical.OnDropped(st.req)
		} else {
			res.Logical.OnServed(st.req, 0, 0, now)
		}
	}

	var opDone func(st *legacyLogicalState, now int64, wasRead bool)
	opDone = func(st *legacyLogicalState, now int64, wasRead bool) {
		st.pending--
		if wasRead && len(st.writeOps) > 0 {
			st.readsLeft--
			if st.readsLeft == 0 {
				if st.missed {
					st.pending -= len(st.writeOps)
					st.writeOps = nil
				} else {
					ops := st.writeOps
					st.writeOps = nil
					enqueue(st, ops, now)
				}
			}
		}
		if st.pending == 0 {
			finish(st, now)
		}
	}

	dispatch := func(now int64) {
		for _, ds := range disks {
			for ds.inSvc == nil && ds.sched.Len() > 0 {
				r := ds.sched.Next(now, ds.head)
				if r == nil {
					break
				}
				pr := byPhys[r]
				delete(byPhys, r)
				if cfg.DropLate && r.Deadline > 0 && now > r.Deadline {
					pr.parent.missed = true
					opDone(pr.parent, now, !r.Write)
					continue
				}
				seek := model.SeekTime(ds.head, r.Cylinder)
				svc := seek + model.AvgRotationalLatency() + model.TransferTime(r.Cylinder, r.Size)
				if r.Deadline > 0 && now > r.Deadline {
					pr.parent.missed = true
				}
				res.SeekTime += seek
				res.BusyTime += svc
				ds.inSvc = pr
				ds.freeAt = now + svc
			}
		}
	}

	i := 0
	now := int64(0)
	for {
		next := int64(-1)
		if i < len(logical) {
			next = logical[i].Arrival
		}
		for _, ds := range disks {
			if ds.inSvc != nil && (next < 0 || ds.freeAt < next) {
				next = ds.freeAt
			}
		}
		if next < 0 {
			break
		}
		now = next
		for _, ds := range disks {
			if ds.inSvc != nil && ds.freeAt <= now {
				pr := ds.inSvc
				ds.inSvc = nil
				ds.head = pr.req.Cylinder
				opDone(pr.parent, now, !pr.req.Write)
			}
		}
		for i < len(logical) && logical[i].Arrival <= now {
			lr := logical[i]
			i++
			res.Logical.OnArrival(lr)
			st := &legacyLogicalState{req: lr}
			var phase1 []disk.PhysOp
			if lr.Write {
				ops := cfg.Array.Write(blockOf(lr))
				for _, op := range ops {
					if op.Write {
						st.writeOps = append(st.writeOps, op)
					} else {
						phase1 = append(phase1, op)
					}
				}
				st.readsLeft = len(phase1)
			} else {
				read := cfg.Array.Read(blockOf(lr))
				phase1 = read[:]
			}
			st.pending = len(phase1) + len(st.writeOps)
			enqueue(st, phase1, now)
		}
		dispatch(now)
	}
	res.Makespan = now
	return res, nil
}
