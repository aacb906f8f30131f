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
	// Reconstructions counts reads of the failed disk served by
	// reconstruction from the surviving disks while it was down, once per
	// reconstructed read (a logical read's or a read-modify-write's).
	Reconstructions uint64
	// AbsorbedWrites counts physical writes to the failed disk that were
	// absorbed (the data is recoverable from parity and rewritten by the
	// rebuild).
	AbsorbedWrites uint64
	// RebuildReads counts survivor reads issued by the background rebuild
	// through the foreground schedulers.
	RebuildReads uint64
}

// logicalState tracks one in-flight logical request, or the background
// rebuild's current stripe row (req nil). A request runs in phases: its
// reads first, then the deferred writes of a read-modify-write.
type logicalState struct {
	req    *core.Request
	ops    int  // physical ops of the current phase still in the engine
	missed bool // any op dropped or started late
	// writes is the deferred write phase, issued when the reads drain
	// unless one of them missed.
	writes []disk.PhysOp
	// mapped holds a healthy array's Read or Write mapping, so both
	// phases of the request point into the state itself.
	mapped [4]disk.PhysOp
}

// raid5 is the logical bookkeeping of one RunArray; its methods are the
// engine hooks. Every physical request in flight maps to its logical
// state in byPhys — the rebuild's reads to the rebuild row — so each hook
// does one lookup and no hook is ever wrapped around another.
type raid5 struct {
	cfg ArrayConfig
	eng Engine
	res *ArrayResult

	byPhys     map[*core.Request]*logicalState
	nextPhysID uint64
	// Free lists, so a warm run allocates nothing per request: a logical
	// state returns to states when its request completes or misses, a
	// physical request to reqs when it leaves the engine for good (take).
	// The rebuild row is never recycled.
	states []*logicalState
	reqs   []*core.Request

	// Rebuild pump: one stripe row at a time, its survivor reads competing
	// in the same per-disk scheduler queues as foreground requests.
	rebuild       logicalState
	nextRebuildID uint64
	rebuiltBlocks int
}

// RunArray simulates the logical trace (sorted by arrival) on the array:
// an N-station Engine with the RAID-5 logical/physical mapping layered
// above it through the engine hooks. Physical dispatches flow through the
// same drop/late/service/metrics path as single-disk runs, so array runs
// emit the TraceEvent stream (with DiskID set) and per-disk collectors.
//
// With a fault plan carrying a whole-disk failure, the run degrades at
// FailAt: queued and in-flight operations of the failed disk are
// re-routed, later writes map through DegradedWrite, and every physical
// op issued for the failed disk degrades on the way out: a read is
// reconstructed from the surviving N-1 disks, a write is absorbed. The
// optional background rebuild pushes its reconstruction reads through the
// same per-disk schedulers as foreground requests, so rebuild-vs-QoS
// interference is measurable.
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
	a.eng.OnServed, a.eng.OnDropped, a.eng.onFaulted = a.onServed, a.onDropped, a.onFaulted
	if cfg.Fault != nil && cfg.Fault.FailAt > 0 {
		a.eng.At(cfg.Fault.FailAt, a.fail)
	}
	res.Makespan = a.eng.Run(logical, a.arrive)
	for _, c := range res.PerDisk {
		res.SeekTime += c.SeekTime
		res.BusyTime += c.ServiceTime
	}
	res.Faults = a.eng.faultStats()
	return res, nil
}

// arrive maps an arriving logical request onto its physical operations
// and issues the read phase.
func (a *raid5) arrive(lr *core.Request, now int64) {
	array := a.cfg.Array
	a.res.Logical.OnArrival(lr)
	block := blockOf(lr)
	st := popFree(&a.states)
	*st = logicalState{req: lr}
	var ops []disk.PhysOp
	switch fd, down := a.downDisk(); {
	case !lr.Write:
		st.mapped[0] = array.Read(block)[0]
		ops = st.mapped[:1]
	case down:
		ops = array.DegradedWrite(block, fd)
		if s, d, _ := array.Layout(block); fd == d || fd == array.ParityDisk(s) {
			a.res.AbsorbedWrites++
		}
	default:
		st.mapped = array.Write(block)
		ops = st.mapped[:]
	}
	// The mappings list every read before the first write.
	n := 0
	for n < len(ops) && !ops[n].Write {
		n++
	}
	st.writes = ops[n:]
	a.issue(st, ops[:n], now)
}

// issue sends one phase's physical ops to the stations. It is the one
// place an op meets the failed disk: a write there is absorbed
// (recoverable from parity, rewritten by the rebuild), a read is
// reconstructed from the same cylinder of every survivor.
func (a *raid5) issue(st *logicalState, ops []disk.PhysOp, now int64) {
	fd, down := a.downDisk()
	for _, op := range ops {
		switch {
		case !down || op.Disk != fd:
			a.createPhys(st, op, now)
		case op.Write:
			a.res.AbsorbedWrites++
		default:
			a.res.Reconstructions++
			for d := range a.cfg.Array.Disks {
				if d != fd {
					a.createPhys(st, disk.PhysOp{Disk: d, Cylinder: op.Cylinder, Size: op.Size}, now)
				}
			}
		}
	}
	a.advance(st, now)
}

func (a *raid5) createPhys(st *logicalState, op disk.PhysOp, now int64) {
	pr := popFree(&a.reqs)
	*pr = core.Request{Cylinder: op.Cylinder, Size: op.Size, Arrival: now, Write: op.Write}
	if lr := st.req; lr != nil {
		a.nextPhysID++
		pr.ID, pr.Priorities, pr.Deadline, pr.Value = a.nextPhysID, lr.Priorities, lr.Deadline, lr.Value
	} else {
		// Rebuild reads carry no deadline and no priorities: they are
		// background traffic contending purely on the disk layer.
		a.nextRebuildID++
		pr.ID = 1<<63 | a.nextRebuildID
		a.res.RebuildReads++
	}
	st.ops++
	a.byPhys[pr] = st
	a.eng.Stations[op.Disk].Enqueue(pr, now)
	a.res.PerDiskOps[op.Disk]++
}

// advance moves st on once its current phase has drained: the deferred
// writes go out unless a read missed, otherwise st completes and returns
// to the free list. A finished rebuild row starts the next one.
func (a *raid5) advance(st *logicalState, now int64) {
	if st.ops > 0 {
		return
	}
	if w := st.writes; len(w) > 0 && !st.missed {
		st.writes = nil
		a.issue(st, w, now)
		return
	}
	switch {
	case st.req == nil:
		a.rebuiltBlocks++
		if a.cfg.Fault.RebuildInterval > 0 {
			a.eng.At(now+a.cfg.Fault.RebuildInterval, a.issueRebuild)
		} else {
			a.issueRebuild(now)
		}
		return
	case st.missed:
		a.res.Logical.OnDropped(st.req)
	default:
		a.res.Logical.OnServed(st.req, 0, 0, now)
	}
	a.states = append(a.states, st)
}

// take resolves a physical request leaving the engine for good (served,
// dropped, abandoned by the retry budget or re-routed) to its logical
// state, forgets it, retires it from the current phase's count and
// recycles it: the caller must not read r afterwards. Every such exit
// forgets r's retry bookkeeping first, so the fault injector never
// tracks a recycled pointer.
func (a *raid5) take(r *core.Request) *logicalState {
	st := a.byPhys[r]
	delete(a.byPhys, r)
	st.ops--
	a.reqs = append(a.reqs, r)
	return st
}

// onServed retires r from its logical state; an op that started late
// misses its request.
func (a *raid5) onServed(_ *Station, r *core.Request, now int64, late bool) {
	st := a.take(r)
	st.missed = st.missed || late
	a.advance(st, now)
}

// onDropped retires r like a late service: a drop misses its request.
func (a *raid5) onDropped(st *Station, r *core.Request, now int64) {
	a.onServed(st, r, now, true)
}

// onFaulted marks a late failed attempt's request missed, and re-issues
// a physical op stranded on the failed disk — queued at failure time, in
// flight, or returning from a retry backoff — through the degraded path.
func (a *raid5) onFaulted(_ *Station, pr *core.Request, now int64, v fault.Verdict, late bool) {
	if late {
		a.byPhys[pr].missed = true
	}
	if v != fault.Lost {
		return
	}
	op := [1]disk.PhysOp{{Disk: a.cfg.Fault.FailDisk, Cylinder: pr.Cylinder, Size: pr.Size, Write: pr.Write}}
	a.issue(a.take(pr), op[:], now)
}

// fail is the planned whole-disk failure, fired by the FailAt timer.
func (a *raid5) fail(now int64) {
	k := a.cfg.Fault.FailDisk
	a.eng.faults.FailNow(now)
	// Drain the dead disk's queue, re-routing every stranded op (a
	// retried one's bookkeeping forgotten first); the in-flight one (if
	// any) is re-routed by its Lost completion.
	st := a.eng.Stations[k]
	for st.Sched.Len() > 0 {
		pr := st.Sched.Next(now, st.Head())
		if pr == nil {
			break
		}
		st.left(pr)
		a.eng.lose(st, pr, now)
	}
	if a.cfg.Fault.Rebuild {
		a.issueRebuild(now)
	}
}

// issueRebuild issues the survivor reads of the next stripe row, or
// returns the disk to service when the last row is done. A row's read
// abandoned by the retry budget still retires, so it never stalls the
// rebuild.
func (a *raid5) issueRebuild(now int64) {
	if a.rebuiltBlocks >= a.cfg.Fault.RebuildBlocks {
		a.eng.faults.MarkRebuilt(now)
		return
	}
	a.issue(&a.rebuild, a.cfg.Array.RebuildStripe(int64(a.rebuiltBlocks), a.cfg.Fault.FailDisk), now)
}

// downDisk returns the currently failed disk, if any.
func (a *raid5) downDisk() (int, bool) {
	if a.eng.faults == nil {
		return 0, false
	}
	return a.eng.faults.DownDisk()
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
