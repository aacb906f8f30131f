package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"sfcsched/internal/cluster"
	"sfcsched/internal/core"
	"sfcsched/internal/fault"
	"sfcsched/internal/sched"
	"sfcsched/internal/serve"
	"sfcsched/internal/sfc"
	"sfcsched/internal/workload"
)

// options collects every schedsim flag so the flag surface can be
// validated (and unit-tested) before any simulation work starts.
type options struct {
	sched        string
	curve        string
	f            float64
	r            int
	window       float64
	seed         uint64
	requests     int
	interarrival time.Duration
	dims         int
	levels       int
	deadlineMin  time.Duration
	deadlineMax  time.Duration
	sizeMin      int64
	sizeMax      int64
	drop         bool
	replayFile   string
	specName     string
	emitOut      string
	dispatchOut  string
	arrayDisks   int
	blockSize    int64
	writeFrac    float64

	// Decision observability (PR 7): per-dispatch decision records,
	// counterfactual shadow schedulers, and sim-time telemetry.
	decisionOut       string
	shadowList        string
	telemetryOut      string
	telemetryInterval time.Duration

	// Cluster mode (PR 8): N arrays behind a routing policy and per-class
	// admission control, with tenant- and class-tagged workloads.
	clusterNodes int
	clusterDisks int
	router       string
	admit        string
	admitRate    int64
	admitBurst   int64
	tenants      int
	tenantSkew   float64
	tenantZones  bool
	classes      int

	// Serving layer (PR 9): run the generated trace through the live
	// real-clock dispatcher alongside the simulator and report how well the
	// simulation predicted the serving path.
	serve    bool
	dilation float64

	// Fault injection (PR 5): transient errors on any topology, whole-disk
	// failure and rebuild on arrays only.
	faultRate       float64
	faultSeed       uint64
	retries         int
	retryBase       time.Duration
	failDisk        int
	failAt          time.Duration
	rebuild         bool
	rebuildBlocks   int
	rebuildInterval time.Duration
}

// register binds every option to fs with its default.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.sched, "sched", "cascaded", "scheduler: cascaded, "+strings.Join(sched.PolicyNames(), ", ")+", or all")
	fs.StringVar(&o.curve, "curve", "hilbert", "cascaded: SFC1 curve: "+strings.Join(sfc.Names(), ", "))
	fs.Float64Var(&o.f, "f", 1, "cascaded: SFC2 balance factor v = priority + f*deadline; 0 orders by priority with earliest-deadline ties, +Inf by deadline with highest-priority ties (the ties need -r 0: the seek stage drops them)")
	fs.IntVar(&o.r, "r", 3, "cascaded: SFC3 partitions (0 disables the seek stage)")
	fs.Float64Var(&o.window, "window", 0.02, "cascaded: blocking window as a fraction of the value space")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.requests, "requests", 5000, "request count")
	fs.DurationVar(&o.interarrival, "interarrival", 13*time.Millisecond, "mean interarrival time")
	fs.IntVar(&o.dims, "dims", 3, "priority dimensions")
	fs.IntVar(&o.levels, "levels", 8, "priority levels per dimension")
	fs.DurationVar(&o.deadlineMin, "deadline-min", 500*time.Millisecond, "minimum relative deadline (0 disables deadlines)")
	fs.DurationVar(&o.deadlineMax, "deadline-max", 700*time.Millisecond, "maximum relative deadline")
	fs.Int64Var(&o.sizeMin, "size-min", 4<<10, "transfer size of the highest priority, bytes")
	fs.Int64Var(&o.sizeMax, "size-max", 256<<10, "transfer size of the lowest priority, bytes")
	fs.BoolVar(&o.drop, "drop", true, "drop requests whose deadline passed before service")
	fs.StringVar(&o.replayFile, "replay", "", "re-execute a recorded trace (a -dispatch-trace JSONL or an -emit-trace CSV) instead of generating a workload; pass the recording run's scheduler flags for a byte-identical replay")
	fs.StringVar(&o.specName, "spec", "", "generate a built-in workload instead of the open Poisson one: a multi-client scenario ("+strings.Join(workload.Scenarios(), ", ")+") or streams, the §6 NewsByte5 stream mix")
	fs.StringVar(&o.emitOut, "emit-trace", "", "write the run's workload as a request CSV to this file (- for stdout), then run as usual")
	fs.StringVar(&o.dispatchOut, "dispatch-trace", "", "write a JSONL stream of dispatch decisions to this file (- for stdout)")
	fs.StringVar(&o.decisionOut, "decision-trace", "", "write a JSONL stream of per-dispatch decision records (candidate set, slack distribution, window) to this file (- for stdout)")
	fs.StringVar(&o.shadowList, "shadow", "", "comma-separated shadow schedulers to ride the run counterfactually (e.g. scan-edf,fcfs); reports divergence after the run")
	fs.StringVar(&o.telemetryOut, "telemetry", "", "write sim-time telemetry rows (queue depth, utilization, value spread, slack) as CSV to this file (- for stdout)")
	fs.DurationVar(&o.telemetryInterval, "telemetry-interval", 50*time.Millisecond, "sim-time sampling period for -telemetry")
	fs.IntVar(&o.arrayDisks, "array", 0, "simulate a RAID-5 array with this many disks (0 = single disk)")
	fs.Int64Var(&o.blockSize, "block", 64<<10, "array: logical block size, bytes")
	fs.Float64Var(&o.writeFrac, "write-frac", 0, "fraction of generated writes (open workload and -spec streams; on an array each is a read-modify-write)")

	fs.IntVar(&o.clusterNodes, "cluster", 0, "simulate a storage cluster with this many arrays (0 = single disk / -array)")
	fs.IntVar(&o.clusterDisks, "cluster-disks", 1, "cluster: striped member disks per array")
	fs.StringVar(&o.router, "router", "rr", "cluster: routing policy: rr, least, affinity")
	fs.StringVar(&o.admit, "admit", "always", "cluster: admission policy: always, token")
	fs.Int64Var(&o.admitRate, "admit-rate", 200, "cluster: token-bucket refill per SLO class, tokens/s")
	fs.Int64Var(&o.admitBurst, "admit-burst", 50, "cluster: token-bucket burst per SLO class, tokens")
	fs.IntVar(&o.tenants, "tenants", 0, "tag generated requests with this many zipf-popular tenants (0 = untagged)")
	fs.Float64Var(&o.tenantSkew, "tenant-skew", 1.2, "tenant popularity skew (zipf s, 0 = uniform)")
	fs.BoolVar(&o.tenantZones, "tenant-zones", false, "pin each tenant's requests to its own contiguous block zone")
	fs.IntVar(&o.classes, "classes", 1, "SLO classes; generated requests get class = tenant mod classes")

	fs.BoolVar(&o.serve, "serve", false, "calibrate the simulator against the live real-clock dispatcher on the same trace, both serving -sched")
	fs.Float64Var(&o.dilation, "dilation", 100, "serve: model seconds covered per wall-clock second")

	fs.Float64Var(&o.faultRate, "fault-rate", 0, "probability a completed dispatch hits a transient fault")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "fault injector seed (independent of the workload seed)")
	fs.IntVar(&o.retries, "retries", 3, "bounded retries per faulted request (0 drops on the first fault)")
	fs.DurationVar(&o.retryBase, "retry-base", 5*time.Millisecond, "first retry backoff; doubles per attempt")
	fs.IntVar(&o.failDisk, "fail-disk", -1, "array: fail this disk mid-run (-1 disables)")
	fs.DurationVar(&o.failAt, "fail-at", 2*time.Second, "array: simulated time of the disk failure")
	fs.BoolVar(&o.rebuild, "rebuild", false, "array: rebuild the failed disk through the foreground schedulers")
	fs.IntVar(&o.rebuildBlocks, "rebuild-blocks", 256, "array: per-disk blocks the rebuild reconstructs")
	fs.DurationVar(&o.rebuildInterval, "rebuild-interval", 5*time.Millisecond, "array: pacing gap between rebuild stripe reads")
}

// validate rejects inconsistent flag combinations, and values no
// constructor below checks, before any model or trace work begins. A rule
// about one flag's value belongs to the constructor that consumes it; the
// cheap ones are called here so their errors come early and carry the
// flag's name, the rest report from run.
func (o *options) validate() error {
	if o.replayFile != "" && o.specName != "" {
		return fmt.Errorf("-replay and -spec are mutually exclusive workload sources")
	}
	if o.replayFile == "" && o.specName == "" {
		// Open takes zero dimensions; the cascaded curve and the shadows
		// built from -dims do not.
		if o.dims < 1 {
			return fmt.Errorf("-dims must be at least 1, got %d", o.dims)
		}
		if o.deadlineMin < 0 {
			return fmt.Errorf("-deadline-min must not be negative, got %v", o.deadlineMin)
		}
	}
	// The cascade's curve side is uint32(o.levels) and its encapsulator
	// keeps a table word per level, so the bound is the encapsulator's.
	if o.levels > core.MaxLevels {
		return fmt.Errorf("-levels must be at most %d, got %d", core.MaxLevels, o.levels)
	}
	// The cascade reads a zero -r or -deadline-max as "skip the stage"; a
	// negative one is a mistake, not a way to say so.
	if o.r < 0 {
		return fmt.Errorf("-r must not be negative (0 disables the seek stage), got %d", o.r)
	}
	if o.deadlineMax < 0 {
		return fmt.Errorf("-deadline-max must not be negative, got %v", o.deadlineMax)
	}
	if !(0 <= o.window && o.window <= 1) {
		return fmt.Errorf("-window must be a fraction in [0, 1], got %v", o.window)
	}
	if o.sched != "all" {
		if err := knownScheduler(o.sched); err != nil {
			return fmt.Errorf("-sched: %w", err)
		}
	}
	for _, name := range o.shadowNames() {
		if err := knownScheduler(name); err != nil {
			return fmt.Errorf("-shadow: %w", err)
		}
	}
	if o.shadowList != "" && o.arrayDisks > 0 {
		return fmt.Errorf("-shadow works on single-disk runs; array stations would need per-disk shadow sets")
	}
	if o.sched == "all" {
		for flagName, v := range map[string]string{
			"-decision-trace": o.decisionOut, "-shadow": o.shadowList, "-telemetry": o.telemetryOut,
		} {
			if v != "" {
				return fmt.Errorf("%s needs a single scheduler, not -sched all (outputs would interleave)", flagName)
			}
		}
	}
	// Two streams written to one file would interleave or truncate each
	// other.
	writers := map[string]string{}
	for _, out := range []struct{ flag, path string }{
		{"-emit-trace", o.emitOut}, {"-dispatch-trace", o.dispatchOut},
		{"-decision-trace", o.decisionOut}, {"-telemetry", o.telemetryOut},
	} {
		if out.path == "" {
			continue
		}
		p := filepath.Clean(out.path)
		if prev, dup := writers[p]; dup {
			return fmt.Errorf("%s and %s both write to %s; give each stream its own file", prev, out.flag, out.path)
		}
		writers[p] = out.flag
	}
	if o.clusterNodes < 0 {
		return fmt.Errorf("-cluster must not be negative, got %d", o.clusterNodes)
	}
	if o.tenantZones && o.tenants == 0 {
		return fmt.Errorf("-tenant-zones requires -tenants: there are no tenants to zone")
	}
	if o.classes < 1 {
		return fmt.Errorf("-classes must be at least 1, got %d", o.classes)
	}
	if o.clusterNodes > 0 {
		if o.clusterDisks < 1 {
			return fmt.Errorf("-cluster-disks must be at least 1, got %d", o.clusterDisks)
		}
		if o.arrayDisks > 0 {
			return fmt.Errorf("-cluster and -array are mutually exclusive topologies")
		}
		if o.shadowList != "" {
			return fmt.Errorf("-shadow works on single-disk runs; cluster stations would need per-disk shadow sets")
		}
		if o.decisionOut != "" {
			return fmt.Errorf("-decision-trace works on single-disk runs, not -cluster")
		}
		if o.faultRate > 0 || o.failDisk >= 0 {
			return fmt.Errorf("fault injection is not wired into the cluster layer; drop the fault flags or -cluster")
		}
		if _, err := cluster.NewRouter(o.router); err != nil {
			return fmt.Errorf("-router: %w", err)
		}
		if _, err := cluster.NewAdmitter(o.admit, o.classes, o.admitRate, o.admitBurst); err != nil {
			return fmt.Errorf("-admit: %w", err)
		}
	}
	if _, err := serve.NewClock(o.dilation); err != nil {
		return fmt.Errorf("-dilation: %w", err)
	}
	if o.serve {
		if o.sched == "all" {
			return fmt.Errorf("-serve calibrates one scheduler per run; got -sched all")
		}
		if o.arrayDisks > 0 || o.clusterNodes > 0 {
			return fmt.Errorf("-serve runs the single-disk serving path; drop -array/-cluster")
		}
		if o.faultRate > 0 || o.failDisk >= 0 {
			return fmt.Errorf("fault injection is not wired into the serving path; drop the fault flags or -serve")
		}
		for flagName, v := range map[string]string{
			"-decision-trace": o.decisionOut, "-shadow": o.shadowList,
			"-telemetry": o.telemetryOut, "-dispatch-trace": o.dispatchOut,
		} {
			if v != "" {
				return fmt.Errorf("%s records the simulated run; it does not apply to -serve", flagName)
			}
		}
	}
	if o.telemetryOut != "" && o.telemetryInterval <= 0 {
		return fmt.Errorf("-telemetry-interval must be positive, got %v", o.telemetryInterval)
	}
	// The plan spells "no retries" and "no failure" as a negative count
	// and a zero time, so neither flag may carry those by accident.
	if o.retries < 0 {
		return fmt.Errorf("-retries must not be negative, got %d", o.retries)
	}
	if o.failDisk >= 0 && o.failAt <= 0 {
		return fmt.Errorf("-fail-at must be positive, got %v", o.failAt)
	}
	// Only an array loses a whole disk, and only one of its own; the
	// engine would reject either after the report header is printed.
	if o.failDisk >= 0 && o.arrayDisks == 0 {
		return fmt.Errorf("-fail-disk needs -array: only an array run can lose a whole disk")
	}
	if o.arrayDisks > 0 && o.failDisk >= o.arrayDisks {
		return fmt.Errorf("-fail-disk %d outside the %d-disk array (disks 0 to %d)", o.failDisk, o.arrayDisks, o.arrayDisks-1)
	}
	if o.arrayDisks != 0 && o.blockSize < 1 {
		return fmt.Errorf("-block must be at least 1 byte, got %d", o.blockSize)
	}
	if err := o.faultPlan().Validate(); err != nil {
		return fmt.Errorf("fault flags: %w", err)
	}
	return nil
}

// trace builds the run's workload over cylinders addressable blocks from
// the source the flags name: a replayed recording, the §6 stream mix, a
// scenario or the open Poisson workload. It fixes o.dims (and, for a
// scenario, o.levels) to the workload's priority shape, which the
// schedulers are built with and -emit-trace writes.
func (o *options) trace(cylinders int) ([]*core.Request, error) {
	switch {
	case o.replayFile != "":
		rec, err := workload.LoadReplayFile(o.replayFile)
		if err != nil {
			return nil, fmt.Errorf("-replay: %w", err)
		}
		// A same-build replay reproduces the recording byte for byte only
		// with the recorded dimensionality.
		o.dims = rec.Dims()
		return rec.Generate(), nil
	case o.specName == "streams":
		o.dims = 1
		trace, err := workload.Streams{
			Seed: o.seed, Users: 80, Duration: 40_000_000, BitRate: 420_000,
			BlockSize: 64 << 10, Burst: 3, Levels: o.levels, Cylinders: cylinders,
			DeadlineMin: o.deadlineMin.Microseconds(), DeadlineMax: o.deadlineMax.Microseconds(),
			WriteFrac: o.writeFrac,
		}.Generate()
		if err != nil {
			return nil, fmt.Errorf("-spec: %w", err)
		}
		return trace, nil
	case o.specName != "":
		spec, err := workload.ScenarioSpec(o.specName, o.seed, o.requests, cylinders)
		if err != nil {
			return nil, fmt.Errorf("-spec: %w", err)
		}
		// The scenarios fix their own priority shape.
		o.dims, o.levels = spec.Dims(), 8
		trace, err := spec.Generate()
		if err != nil {
			return nil, fmt.Errorf("-spec: %w", err)
		}
		return trace, nil
	}
	trace, err := workload.Open{
		Seed:             o.seed,
		Count:            o.requests,
		MeanInterarrival: o.interarrival.Microseconds(),
		Dims:             o.dims,
		Levels:           o.levels,
		DeadlineMin:      o.deadlineMin.Microseconds(),
		DeadlineMax:      o.deadlineMax.Microseconds(),
		Cylinders:        cylinders,
		SizeMin:          o.sizeMin,
		SizeMax:          o.sizeMax,
		WriteFrac:        o.writeFrac,
		Tenants:          o.tenants,
		TenantSkew:       o.tenantSkew,
		TenantZones:      o.tenantZones,
		Classes:          o.classes,
	}.Generate()
	if err != nil {
		return nil, fmt.Errorf("workload flags: %w", err)
	}
	return trace, nil
}

// knownScheduler rejects a name build does not know: the cascade or a row
// of sched's policy table.
func knownScheduler(name string) error {
	if name == "cascaded" || slices.Contains(sched.PolicyNames(), name) {
		return nil
	}
	return fmt.Errorf("unknown scheduler %q (known: cascaded, %s)", name, strings.Join(sched.PolicyNames(), ", "))
}

// shadowNames splits -shadow into its trimmed, non-empty entries.
func (o *options) shadowNames() []string {
	var names []string
	for _, name := range strings.Split(o.shadowList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// faultPlan translates the fault flags into a plan. With no fault source
// armed the plan is Zero, which run drops to keep fault-free runs on the
// nil-plan fast path.
func (o *options) faultPlan() *fault.Plan {
	plan := &fault.Plan{
		Seed:          o.faultSeed,
		TransientRate: o.faultRate,
		MaxRetries:    o.retries,
		RetryBase:     o.retryBase.Microseconds(),
	}
	if o.retries == 0 {
		plan.MaxRetries = -1 // flag 0 means "no retries", plan 0 means default
	}
	if o.failDisk >= 0 {
		plan.FailDisk = o.failDisk
		plan.FailAt = o.failAt.Microseconds()
	}
	if o.rebuild {
		plan.Rebuild = true
		plan.RebuildBlocks = o.rebuildBlocks
		plan.RebuildInterval = o.rebuildInterval.Microseconds()
	}
	return plan
}
