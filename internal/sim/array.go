package sim

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
)

// ArrayConfig configures a RAID-5 array simulation: logical block requests
// are mapped to physical per-disk operations (reads hit one disk; writes
// perform read-modify-write on the data and parity disks), each disk runs
// its own scheduler instance on its own Station, and the stations proceed
// in parallel on the shared engine timeline.
type ArrayConfig struct {
	// Array maps logical blocks to physical operations. Required.
	Array *disk.RAID5
	// NewScheduler builds the per-disk queue discipline. Required.
	NewScheduler func(diskID int) (sched.Scheduler, error)

	Options
}

// ArrayResult reports a RAID array run.
type ArrayResult struct {
	// Logical accounts whole block requests: a logical request is served
	// when every physical operation completed on time, missed when any
	// operation was dropped or started late.
	Logical *metrics.Collector
	// PerDisk holds one physical collector per disk, fed by the shared
	// engine dispatch path: per-disk inversions, served/dropped/late
	// physical operations, seek and busy time.
	PerDisk []*metrics.Collector
	// SeekTime and BusyTime aggregate over all disks, µs.
	SeekTime int64
	BusyTime int64
	// PerDiskOps counts physical operations enqueued on each disk.
	PerDiskOps []uint64
	// Makespan is the completion time of the run, µs.
	Makespan int64

	// Faults snapshots the fault injector's counters; nil when the run
	// had no (or a zero) fault plan. The degraded-operation counters
	// below are only nonzero with a planned disk failure.
	Faults *fault.Stats
	// Reconstructions counts logical reads of the failed disk served by
	// reconstruction from the surviving disks while it was down.
	Reconstructions uint64
	// AbsorbedWrites counts physical writes to the failed disk that were
	// absorbed (the data is recoverable from parity and rewritten by the
	// rebuild).
	AbsorbedWrites uint64
	// RebuildReads counts survivor reads issued by the background rebuild
	// through the foreground schedulers.
	RebuildReads uint64
	// Shadows holds one divergence report per attached shadow, in
	// Options.Shadows order; empty when the run had none.
	Shadows []ShadowReport
}

// logicalState tracks one in-flight logical request.
type logicalState struct {
	req      *core.Request
	pending  int  // physical ops still outstanding
	missed   bool // any op dropped or started late
	finished bool // logical completion already recorded
	// writeOps holds the deferred write phase of a read-modify-write;
	// enqueued when the read phase drains.
	writeOps  []disk.PhysOp
	readsLeft int
}

// raid5 is the logical bookkeeping of one RunArray; its methods are the
// engine hooks. Every physical request in flight maps to its logical
// request in byPhys, and the background rebuild's reads map to the
// sentinel &a.rebuild there — so each hook does one lookup, rebuild
// traffic needs no second map, and no hook is ever wrapped around
// another.
type raid5 struct {
	cfg ArrayConfig
	eng Engine
	res *ArrayResult

	byPhys     map[*core.Request]*logicalState
	nextPhysID uint64

	// Rebuild pump: one stripe row at a time, its survivor reads competing
	// in the same per-disk scheduler queues as foreground requests.
	rebuild        logicalState
	nextRebuildID  uint64
	rebuildPending int
	rebuiltBlocks  int
}

// RunArray simulates the logical trace (sorted by arrival) on the array:
// an N-station Engine with the RAID-5 logical/physical mapping layered
// above it through the engine hooks. Physical dispatches flow through the
// same drop/late/service/metrics path as single-disk runs, so array runs
// emit the TraceEvent stream (with DiskID set) and per-disk collectors.
//
// With a fault plan carrying a whole-disk failure, the run degrades at
// FailAt: queued and in-flight operations of the failed disk are
// re-routed (reads reconstruct from the surviving N-1 disks via the
// PhysOp fan-out, writes are absorbed), later arrivals map through
// DegradedRead/DegradedWrite, and the optional background rebuild pushes
// its reconstruction reads through the same per-disk schedulers as
// foreground requests, so rebuild-vs-QoS interference is measurable.
func RunArray(cfg ArrayConfig, logical []*core.Request) (*ArrayResult, error) {
	if cfg.Array == nil || cfg.NewScheduler == nil {
		return nil, fmt.Errorf("sim: ArrayConfig needs Array and NewScheduler")
	}
	dims, levels := InferShape(cfg.Dims, cfg.Levels, logical)
	n := cfg.Array.Disks
	res := &ArrayResult{
		Logical:    metrics.NewCollector(dims, levels),
		PerDisk:    make([]*metrics.Collector, n),
		PerDiskOps: make([]uint64, n),
	}
	stations := make([]*Station, n)
	for d := range stations {
		s, err := cfg.NewScheduler(d)
		if err != nil {
			return nil, fmt.Errorf("sim: disk %d scheduler: %w", d, err)
		}
		res.PerDisk[d] = metrics.NewCollector(dims, levels)
		stations[d] = &Station{Sched: s, Disk: cfg.Array.Model, Col: res.PerDisk[d]}
	}
	a := &raid5{cfg: cfg, res: res, byPhys: make(map[*core.Request]*logicalState)}
	if err := a.eng.Setup(cfg.Options, stations, true); err != nil {
		return nil, err
	}
	a.eng.OnServed, a.eng.OnDropped = a.onServed, a.onDropped
	a.eng.OnLateStart, a.eng.OnFaulted = a.onLateStart, a.reroute
	if cfg.Fault != nil && cfg.Fault.FailAt > 0 {
		a.eng.At(cfg.Fault.FailAt, a.fail)
	}
	res.Makespan = a.eng.Run(logical, a.arrive)
	for _, c := range res.PerDisk {
		res.SeekTime += c.SeekTime
		res.BusyTime += c.ServiceTime
	}
	res.Faults, res.Shadows = a.eng.faultStats(), a.eng.shadowReports()
	return res, nil
}

// arrive maps an arriving logical request onto its physical operations.
func (a *raid5) arrive(lr *core.Request, now int64) {
	array := a.cfg.Array
	a.res.Logical.OnArrival(lr)
	st := &logicalState{req: lr}
	block := blockOf(lr)
	var ops []disk.PhysOp
	fd, down := a.downDisk()
	if lr.Write {
		if down {
			ops = array.DegradedWrite(block, fd)
			if s, d, _ := array.Layout(block); fd == d || fd == array.ParityDisk(s) {
				a.res.AbsorbedWrites++
			}
		} else {
			ops = array.Write(block)
		}
	} else if down {
		ops = array.DegradedRead(block, fd)
		if len(ops) > 1 {
			a.res.Reconstructions++
			a.eng.Faults.Metrics().ReconstructReads.Add(uint64(len(ops)))
		}
	} else {
		ops = array.Read(block)
	}
	var phase1 []disk.PhysOp
	for _, op := range ops {
		if op.Write {
			st.writeOps = append(st.writeOps, op)
		} else {
			phase1 = append(phase1, op)
		}
	}
	st.readsLeft = len(phase1)
	st.pending = len(phase1) + len(st.writeOps)
	if len(phase1) == 0 && len(st.writeOps) > 0 {
		// Degraded write with the data disk's read phase absent
		// (parity-only update): no reads gate the write phase.
		w := st.writeOps
		st.writeOps = nil
		a.enqueue(st, w, now)
	} else {
		a.enqueue(st, phase1, now)
	}
	if st.pending == 0 {
		a.finish(st, now)
	}
}

func (a *raid5) createPhys(st *logicalState, op disk.PhysOp, now int64) {
	a.nextPhysID++
	pr := &core.Request{
		ID:         a.nextPhysID,
		Priorities: st.req.Priorities,
		Deadline:   st.req.Deadline,
		Cylinder:   op.Cylinder,
		Size:       op.Size,
		Arrival:    now,
		Write:      op.Write,
		Value:      st.req.Value,
	}
	a.byPhys[pr] = st
	a.eng.Stations[op.Disk].Enqueue(pr, now)
	a.res.PerDiskOps[op.Disk]++
}

// enqueue issues physical ops, transparently degrading any op that
// targets the failed disk: writes are absorbed (recoverable from
// parity), reads fan out into same-cylinder reconstruction reads on
// every survivor. Callers account pending as one completion per op;
// enqueue adjusts it for absorbed and fanned-out ops.
func (a *raid5) enqueue(st *logicalState, ops []disk.PhysOp, now int64) {
	disks := a.cfg.Array.Disks
	fd, down := a.downDisk()
	for _, op := range ops {
		if !down || op.Disk != fd {
			a.createPhys(st, op, now)
			continue
		}
		if op.Write {
			a.res.AbsorbedWrites++
			st.pending--
			continue
		}
		a.res.Reconstructions++
		a.eng.Faults.Metrics().ReconstructReads.Add(uint64(disks - 1))
		st.pending += disks - 2
		if len(st.writeOps) > 0 {
			st.readsLeft += disks - 2
		}
		for d := 0; d < disks; d++ {
			if d != fd {
				a.createPhys(st, disk.PhysOp{Disk: d, Cylinder: op.Cylinder, Size: op.Size}, now)
			}
		}
	}
}

func (a *raid5) finish(st *logicalState, now int64) {
	if st.finished {
		return
	}
	st.finished = true
	if st.missed {
		a.res.Logical.OnDropped(st.req)
	} else {
		a.res.Logical.OnServed(st.req, 0, 0, now)
	}
}

// opDone accounts one completed, dropped or absorbed physical op and
// fires the deferred write phase or the logical completion when due.
func (a *raid5) opDone(st *logicalState, now int64, wasRead bool) {
	st.pending--
	if wasRead && len(st.writeOps) > 0 {
		st.readsLeft--
		if st.readsLeft == 0 {
			ops := st.writeOps
			st.writeOps = nil
			if st.missed {
				// The read phase failed; the write phase is abandoned.
				st.pending -= len(ops)
			} else {
				a.enqueue(st, ops, now) // pending already counts them
			}
		}
	}
	if st.pending == 0 {
		a.finish(st, now)
	}
}

// take resolves a physical request leaving the engine (served, dropped
// or stranded) to its logical state and forgets it. A rebuild read
// resolves to nil after advancing the pump: rebuild traffic bypasses the
// logical bookkeeping, and a read abandoned by the retry budget or
// stranded on the dead disk must not stall its stripe row.
func (a *raid5) take(r *core.Request, now int64) *logicalState {
	st := a.byPhys[r]
	delete(a.byPhys, r)
	if st == &a.rebuild {
		a.rebuildOpDone(now)
		return nil
	}
	return st
}

func (a *raid5) onServed(_ *Station, r *core.Request, now int64) {
	if st := a.take(r, now); st != nil {
		a.opDone(st, now, !r.Write)
	}
}

func (a *raid5) onDropped(_ *Station, r *core.Request, now int64) {
	if st := a.take(r, now); st != nil {
		st.missed = true
		a.opDone(st, now, !r.Write)
	}
}

func (a *raid5) onLateStart(_ *Station, r *core.Request, _ int64) {
	a.byPhys[r].missed = true
}

// reroute (the OnFaulted hook) re-issues a physical op stranded on the
// failed disk — queued at failure time, in flight, or returning from a
// retry backoff — through the degraded path.
func (a *raid5) reroute(_ *Station, pr *core.Request, now int64) {
	st := a.take(pr, now)
	if st == nil {
		return
	}
	wasRead := !pr.Write
	// An absorbed write completes the op; a read fans out into survivor
	// reads that replace it (pending gains the fan-out and loses the
	// original).
	st.pending++
	if wasRead && len(st.writeOps) > 0 {
		st.readsLeft++
	}
	a.enqueue(st, []disk.PhysOp{{Disk: a.cfg.Fault.FailDisk, Cylinder: pr.Cylinder, Size: pr.Size, Write: pr.Write}}, now)
	a.opDone(st, now, wasRead)
}

// fail is the planned whole-disk failure, fired by the FailAt timer.
func (a *raid5) fail(now int64) {
	k := a.cfg.Fault.FailDisk
	a.eng.Faults.FailNow(now)
	// Drain the dead disk's queue, re-routing every stranded op; the
	// in-flight one (if any) is re-routed by its Lost completion.
	st := a.eng.Stations[k]
	for st.Sched.Len() > 0 {
		pr := st.Sched.Next(now, st.Head())
		if pr == nil {
			break
		}
		a.reroute(st, pr, now)
	}
	if a.cfg.Fault.Rebuild {
		a.issueRebuild(now)
	}
}

// issueRebuild issues the survivor reads of the next stripe row, or
// returns the disk to service when the last row is done.
func (a *raid5) issueRebuild(now int64) {
	k := a.cfg.Fault.FailDisk
	if a.rebuiltBlocks >= a.cfg.Fault.RebuildBlocks {
		a.eng.Faults.MarkRebuilt(now)
		return
	}
	ops := a.cfg.Array.RebuildStripe(int64(a.rebuiltBlocks), k)
	a.rebuildPending = len(ops)
	for _, op := range ops {
		a.nextRebuildID++
		// Rebuild reads carry no deadline and no priorities: they are
		// background traffic contending purely on the disk layer.
		pr := &core.Request{ID: 1<<63 | a.nextRebuildID, Cylinder: op.Cylinder, Size: op.Size, Arrival: now}
		a.byPhys[pr] = &a.rebuild
		a.eng.Stations[op.Disk].Enqueue(pr, now)
		a.res.PerDiskOps[op.Disk]++
		a.res.RebuildReads++
		a.eng.Faults.Metrics().RebuildReads.Inc()
	}
}

func (a *raid5) rebuildOpDone(now int64) {
	a.rebuildPending--
	if a.rebuildPending > 0 {
		return
	}
	a.rebuiltBlocks++
	a.eng.Faults.Metrics().RebuildProgress.Set(int64(a.rebuiltBlocks))
	if a.cfg.Fault.RebuildInterval > 0 {
		a.eng.At(now+a.cfg.Fault.RebuildInterval, a.issueRebuild)
	} else {
		a.issueRebuild(now)
	}
}

// downDisk returns the currently failed disk, if any.
func (a *raid5) downDisk() (int, bool) {
	if a.eng.Faults == nil {
		return 0, false
	}
	return a.eng.Faults.DownDisk()
}

// blockOf returns the logical block number of a request; array workloads
// carry it in the Cylinder field (the array, not the request, decides the
// physical cylinder).
func blockOf(r *core.Request) int64 {
	if r.Cylinder < 0 {
		return 0
	}
	return int64(r.Cylinder)
}
