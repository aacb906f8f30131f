// Command schedsim runs a single disk-scheduling simulation and prints a
// metrics report. It is the exploratory companion of schedbench: pick any
// scheduler (baseline or Cascaded-SFC), any workload shape, and compare.
//
// Usage:
//
//	schedsim -sched cascaded -curve hilbert -f 1 -r 3 -window 0.02
//	schedsim -sched edf -requests 8000 -interarrival 10ms
//	schedsim -sched all                  # every scheduler over the same trace
//	schedsim -spec streams -emit-trace s.csv # §6 stream mix, saved as CSV
//	schedsim -replay s.csv -sched all        # replay a CSV or JSONL trace
//	schedsim -sched cascaded -dispatch-trace run.jsonl  # JSONL dispatch log
//	schedsim -sched all -fault-rate 0.01                # transient faults
//	schedsim -array 5 -fail-disk 2 -rebuild             # degraded RAID-5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"sfcsched/internal/cluster"
	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

func main() {
	var opt options
	opt.register(flag.CommandLine)
	flag.Parse()
	if err := run(opt); err != nil {
		fmt.Fprintf(os.Stderr, "schedsim: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command after flag parsing. Each constructor validates
// its own inputs; run adds the name of the flag that fed it.
func run(opt options) (runErr error) {
	if err := opt.validate(); err != nil {
		return err
	}
	m, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		return err
	}
	var array *disk.RAID5
	cylinders := m.Cylinders
	if opt.arrayDisks != 0 {
		array, err = disk.NewRAID5(opt.arrayDisks, opt.blockSize, m)
		if err != nil {
			return fmt.Errorf("-array: %w", err)
		}
		// Array workloads address logical blocks, not cylinders.
		cylinders = int(array.MaxBlocks())
	}
	if opt.clusterNodes > 0 {
		// Cluster workloads address the flat logical block space striped
		// over every member disk.
		cylinders = opt.clusterNodes * opt.clusterDisks * m.Cylinders
	}
	trace, err := opt.trace(cylinders)
	if err != nil {
		return err
	}

	names := []string{opt.sched}
	if opt.sched == "all" {
		names = append([]string{"cascaded"}, sched.PolicyNames()...)
	}
	// The cascade is the one scheduler whose flags build can still reject
	// (-curve, -dims, -f, -window), and -replay or -spec fix the dims only
	// above. Build it once now, so a bad value fails before anything is
	// printed; its curve table is then shared with every later build.
	if slices.Contains(names, "cascaded") || slices.Contains(opt.shadowNames(), "cascaded") {
		if _, err := opt.build("cascaded", m); err != nil {
			return err
		}
	}

	if opt.emitOut != "" {
		w, closeOut, err := outWriter(opt.emitOut)
		if err != nil {
			return err
		}
		err = workload.WriteCSV(w, trace, opt.dims)
		if cerr := closeOut(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("-emit-trace: %w", err)
		}
	}
	if opt.serve {
		return runServeCalib(os.Stdout, opt, m, trace)
	}
	var traceHook func(sim.TraceEvent)
	if opt.dispatchOut != "" {
		w, closeOut, err := outWriter(opt.dispatchOut)
		if err != nil {
			return err
		}
		defer closeInto(&runErr, "-dispatch-trace", closeOut)
		traceHook = sim.JSONLTrace(w)
	}
	var decisions *sim.DecisionTrace
	if opt.decisionOut != "" {
		w, closeOut, err := outWriter(opt.decisionOut)
		if err != nil {
			return err
		}
		defer closeInto(&runErr, "-decision-trace", closeOut)
		decisions = sim.NewDecisionTrace(0)
		decisions.OnRecord = sim.DecisionJSONL(w)
	}
	var telemetry *sim.Telemetry
	if opt.telemetryOut != "" {
		w, closeOut, err := outWriter(opt.telemetryOut)
		if err != nil {
			return err
		}
		defer closeInto(&runErr, "-telemetry", closeOut)
		telemetry = sim.NewTelemetry(opt.telemetryInterval.Microseconds())
		telemetry.OnRow = sim.TelemetryCSV(w)
	}
	plan := opt.faultPlan()
	if plan.Zero() {
		plan = nil
	}
	opts := sim.Options{
		DropLate: opt.drop,
		Dims:     opt.dims, Levels: opt.levels,
		Trace:     traceHook,
		Fault:     plan,
		Decisions: decisions,
		Telemetry: telemetry,
	}
	fmt.Printf("%-12s %8s %8s %8s %10s %10s %12s",
		"scheduler", "served", "dropped", "late", "seek(s)", "busy(s)", "inversions")
	if plan != nil {
		fmt.Printf(" %8s %8s", "faults", "fdrop")
	}
	fmt.Println()
	for _, name := range names {
		if opt.clusterNodes > 0 {
			res, err := runCluster(opt, m, name, trace, traceHook, telemetry)
			if err != nil {
				return err
			}
			var served, dropped, late uint64
			for _, cs := range res.PerClass {
				served += cs.Served
				dropped += cs.AdmitDropped + cs.DispatchDropped
				late += cs.Late
			}
			var seek, busy int64
			for _, ns := range res.PerNode {
				seek += ns.SeekTime
				busy += ns.BusyTime
			}
			var inv uint64
			for _, c := range res.PerDisk {
				inv += c.TotalInversions()
			}
			fmt.Printf("%-12s %8d %8d %8d %10.2f %10.2f %12d\n",
				name, served, dropped, late, float64(seek)/1e6, float64(busy)/1e6, inv)
			printClusterReport(res)
			continue
		}
		if array != nil {
			ar, err := sim.RunArray(sim.ArrayConfig{
				Array: array,
				NewScheduler: func(int) (sched.Scheduler, error) {
					return opt.build(name, m)
				},
				Options: opts,
			}, trace)
			if err != nil {
				return err
			}
			inv := uint64(0)
			for _, c := range ar.PerDisk {
				inv += c.TotalInversions()
			}
			fmt.Printf("%-12s %8d %8d %8d %10.2f %10.2f %12d",
				name, ar.Logical.Served, ar.Logical.Dropped, ar.Logical.Late,
				float64(ar.SeekTime)/1e6, float64(ar.BusyTime)/1e6, inv)
			printFaultCols(plan, ar.Faults, ar.PerDisk)
			fmt.Println()
			continue
		}
		s, err := opt.build(name, m)
		if err != nil {
			return err
		}
		runOpts := opts
		runOpts.Shadows, err = buildShadows(opt, m)
		if err != nil {
			return err
		}
		res, err := sim.Run(sim.Config{Disk: m, Scheduler: s, Options: runOpts}, trace)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %8d %8d %8d %10.2f %10.2f %12d",
			name, res.Served, res.Dropped, res.Late,
			float64(res.SeekTime)/1e6, float64(res.ServiceTime)/1e6, res.TotalInversions())
		printFaultCols(plan, res.Faults, []*metrics.Collector{res.Collector})
		fmt.Println()
		printShadowReports(res)
	}
	return nil
}

// runCluster simulates one scheduler across the -cluster topology: every
// member disk runs its own instance, requests route and admit per the
// -router and -admit policies.
func runCluster(opt options, m *disk.Model, name string, trace []*core.Request,
	traceHook func(sim.TraceEvent), telemetry *sim.Telemetry) (*cluster.Result, error) {
	cfg := cluster.Config{
		Nodes: opt.clusterNodes, DisksPerNode: opt.clusterDisks, Disk: m,
		NewScheduler: func(int, int) (sched.Scheduler, error) {
			return opt.build(name, m)
		},
		Classes:  opt.classes,
		DropLate: opt.drop,
		Dims:     opt.dims, Levels: opt.levels,
		Trace: traceHook, Telemetry: telemetry,
	}
	var err error
	if cfg.Router, err = cluster.NewRouter(opt.router); err != nil {
		return nil, err
	}
	if cfg.Admission, err = cluster.NewAdmitter(opt.admit, opt.classes, opt.admitRate, opt.admitBurst); err != nil {
		return nil, err
	}
	return cluster.Run(cfg, trace)
}

// printClusterReport renders the per-class SLO ledger, the per-node
// routing balance and the Jain fairness index of one cluster run.
func printClusterReport(res *cluster.Result) {
	fmt.Printf("  %-7s %8s %8s %8s %8s %8s %7s %9s %9s\n",
		"class", "arrived", "admitted", "a-drop", "d-drop", "served", "loss%", "p50(ms)", "p99(ms)")
	for _, cs := range res.PerClass {
		q := cs.Latency.Quantiles(0.5, 0.99)
		fmt.Printf("  %-7d %8d %8d %8d %8d %8d %7.2f %9.1f %9.1f\n",
			cs.Class, cs.Arrived, cs.Admitted, cs.AdmitDropped, cs.DispatchDropped,
			cs.Served, 100*cs.LossRate(), float64(q[0])/1e3, float64(q[1])/1e3)
	}
	fmt.Printf("  %-7s %8s %8s %8s %10s %10s\n",
		"node", "routed", "served", "dropped", "seek(s)", "busy(s)")
	for _, ns := range res.PerNode {
		fmt.Printf("  %-7d %8d %8d %8d %10.2f %10.2f\n",
			ns.Node, ns.Routed, ns.Served, ns.Dropped,
			float64(ns.SeekTime)/1e6, float64(ns.BusyTime)/1e6)
	}
	fmt.Printf("  router %s, admission %s; Jain fairness over %d tenants: %.3f\n",
		res.Router, res.Admission, len(res.Tenants), res.Jain())
}

// outWriter opens path for streaming output: "-" is stdout, anything else
// a buffered file. The returned func flushes and closes, and reports the
// first error of the stream: a bufio.Writer keeps the first write error,
// so a trace hook that went silent after a failed write still fails here.
func outWriter(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	bw := bufio.NewWriter(f)
	return bw, func() error {
		err := bw.Flush()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// closeInto runs closeOut and, unless *err already holds an error, stores
// its error there wrapped with the name of the flag that named the file.
func closeInto(err *error, flag string, closeOut func() error) {
	if cerr := closeOut(); cerr != nil && *err == nil {
		*err = fmt.Errorf("%s: %w", flag, cerr)
	}
}

// buildShadows constructs the counterfactual shadow schedulers of the
// -shadow flag, fresh per run (shadows are single-use).
func buildShadows(opt options, m *disk.Model) ([]*sim.Shadow, error) {
	var shadows []*sim.Shadow
	for _, name := range opt.shadowNames() {
		s, err := opt.build(name, m)
		if err != nil {
			return nil, fmt.Errorf("-shadow %s: %w", name, err)
		}
		shadows = append(shadows, sim.NewShadow(name, s))
	}
	return shadows, nil
}

// printShadowReports renders the divergence summary of each shadow that
// rode the run.
func printShadowReports(res *sim.Result) {
	if len(res.Shadows) == 0 {
		return
	}
	fmt.Printf("  %-12s %9s %7s %7s %7s %12s %9s\n",
		"shadow", "decisions", "agree%", "drops", "empty", "head-travel", "Δslack/ms")
	for _, rep := range res.Shadows {
		agree := 0.0
		if rep.Decisions > 0 {
			agree = 100 * float64(rep.Agreements) / float64(rep.Decisions)
		}
		slackMs := float64(rep.SlackDelta) / 1e3
		fmt.Printf("  %-12s %9d %7.2f %7d %7d %12d %9.1f\n",
			rep.Name, rep.Decisions, agree, rep.Drops, rep.Empty, rep.HeadTravel, slackMs)
	}
}

// printFaultCols appends the fault columns of one result row: total fault
// hits (transient + lost in flight) and fault-attributed
// drops summed over the physical collectors.
func printFaultCols(plan *fault.Plan, fs *fault.Stats, cols []*metrics.Collector) {
	if plan == nil {
		return
	}
	var hits, fdrop uint64
	if fs != nil {
		hits = fs.Transients + fs.LostInFlight
	}
	for _, c := range cols {
		fdrop += c.FaultDropped
	}
	fmt.Printf(" %8d %8d", hits, fdrop)
}

// build constructs the named scheduler: any name but cascaded from sched's
// policy table, the cascade as the core.Cascade the cascaded flags
// describe (-deadline-max 0 skips the deadline stage, -r 0 the seek
// stage). Every path goes through it — the simulated runs, the shadows,
// and both sides of a -serve calibration — so a flag means the same
// policy wherever it applies.
func (opt options) build(name string, m *disk.Model) (sched.Scheduler, error) {
	if name != "cascaded" {
		return sched.NewPolicy(name, m.ServiceTime, opt.levels)
	}
	return core.Cascade{
		Name: "cascaded", Curve: opt.curve, Dims: opt.dims, Levels: opt.levels,
		F: opt.f, Horizon: opt.deadlineMax.Microseconds(), Slack: true, R: opt.r,
		Mode: core.ConditionallyPreemptive, Window: opt.window, SP: true,
	}.Build(m.Cylinders)
}
