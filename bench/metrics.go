package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one measured number. Samples, Q1 and Q3 are present when the
// value is the median of repeated measurements.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
}

// metricSet maps metric name to value.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// setMedian stores the median of v with its quartiles and sample count.
func (m metricSet) setMedian(name string, v []float64, unit string) {
	q1, med, q3 := quartiles(v)
	m[name] = metric{Value: med, Unit: unit, Samples: len(v), Q1: q1, Q3: q3}
}

func (m metricSet) merge(o metricSet) {
	for k, v := range o {
		m[k] = v
	}
}

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// endToEnd describes one end-to-end metric: what a user of the system
// sees. Bound is the share of the reference median by which it may worsen
// before -compare (and the acceptance driver) call it a regression; it has
// to cover the spread between runs on different seeds, because that is how
// steadiness is judged. Exact marks the model metrics: on equal seeds they
// are functions of the input alone, and -compare demands equality.
type endToEnd struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
}

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", "lower", 0.25, false},
	{"req_per_s", "1/s", "higher", 0.25, false},
	{"peak_rss_mb", "MB", "lower", 0.25, false},
	{"rtt_p50_us", "us", "lower", 0.25, false},
	{"loss_pct", "%", "lower", 0.20, true},
	{"seek_ms_per_served", "ms", "lower", 0.05, true},
	{"inversions_per_dispatch", "count", "lower", 0.25, true},
}

func endToEndByName(name string) (endToEnd, bool) {
	for _, e := range endToEndMetrics {
		if e.Name == name {
			return e, true
		}
	}
	return endToEnd{}, false
}

// perLayer describes one per-layer metric of the cost ledger. Source says
// which pass produces it: "layer" (a tight loop over one layer's public
// functions) or the workload whose traced pass yields it. Exact marks
// counts that depend on the simulated trajectory alone.
type perLayer struct {
	Name   string
	Unit   string
	Better string
	Source string
	Exact  bool
}

const layerPass = "layer"

var perLayerMetrics = []perLayer{
	// sfc
	{"sfc.index_checked_ns", "ns", "lower", layerPass, false},
	{"sfc.index_fast_ns", "ns", "lower", layerPass, false},
	{"sfc.index_lut_ns", "ns", "lower", layerPass, false},
	{"sfc.index_fast_d12_ns", "ns", "lower", layerPass, false},
	// core
	{"core.encapsulate_ns", "ns", "lower", layerPass, false},
	{"core.encapsulate_d12_ns", "ns", "lower", layerPass, false},
	{"core.dispatcher.add_next_ns.full", "ns", "lower", layerPass, false},
	{"core.dispatcher.add_next_ns.cond", "ns", "lower", layerPass, false},
	{"core.dispatcher.add_next_ns.nonpre", "ns", "lower", layerPass, false},
	{"core.scheduler.addbatch_ns_per_req", "ns", "lower", layerPass, false},
	{"core.sched.add_ns", "ns", "lower", "sim-single", false},
	{"core.sched.next_ns", "ns", "lower", "sim-single", false},
	{"core.sched.calls_per_req", "count", "lower", "sim-single", true},
	// core (ingress)
	{"core.sharded.add_ns_p1", "ns", "lower", layerPass, false},
	{"core.sharded.add_ns_p2", "ns", "lower", layerPass, false},
	{"core.sharded.next_ns", "ns", "lower", layerPass, false},
	{"core.locked.add_ns_p2", "ns", "lower", layerPass, false},
	// sched
	{"sched.cscan.add_ns", "ns", "lower", "sim-single", false},
	{"sched.cscan.next_ns", "ns", "lower", "sim-single", false},
	{"sched.scanedf.add_ns", "ns", "lower", "sim-single", false},
	{"sched.scanedf.next_ns", "ns", "lower", "sim-single", false},
	{"sched.edf.add_ns", "ns", "lower", "sim-single", false},
	{"sched.edf.next_ns", "ns", "lower", "sim-single", false},
	{"sched.queue_depth_mean", "count", "lower", "sim-single", true},
	{"sched.queue_depth_max", "count", "lower", "sim-single", true},
	// disk
	{"disk.service_times_ns", "ns", "lower", layerPass, false},
	{"disk.raid5.read_map_ns", "ns", "lower", layerPass, false},
	{"disk.raid5.write_map_ns", "ns", "lower", layerPass, false},
	// metrics
	{"metrics.on_arrival_ns", "ns", "lower", layerPass, false},
	{"metrics.on_served_ns", "ns", "lower", layerPass, false},
	{"metrics.on_dispatch_ns", "ns", "lower", layerPass, false},
	{"metrics.pending_visited_per_dispatch", "count", "lower", "sim-single", true},
	{"metrics.each_ns_per_req", "ns", "lower", "sim-single", false},
	// sim engine
	{"sim.engine.event_ns", "ns", "lower", layerPass, false},
	{"sim.run.self_ns_per_req", "ns", "lower", "sim-single", false},
	{"sim.run.sched_share", "ratio", "lower", "sim-single", false},
	{"sim.reuse.allocs_per_run", "count", "lower", layerPass, false},
	{"sim.fresh.allocs_per_run", "count", "lower", layerPass, false},
	// sim observers
	{"sim.obs.trace_ns_per_req", "ns", "lower", layerPass, false},
	{"sim.obs.decisions_ns_per_req", "ns", "lower", layerPass, false},
	{"sim.obs.shadow_ns_per_req", "ns", "lower", layerPass, false},
	{"sim.obs.telemetry_ns_per_req", "ns", "lower", layerPass, false},
	{"sim.obs.disabled_ns_per_req", "ns", "lower", layerPass, false},
	// sim array
	{"sim.array.ns_per_logical", "ns", "lower", layerPass, false},
	{"sim.array.phys_ops_per_logical", "count", "lower", layerPass, true},
	{"sim.array.allocs_per_logical", "count", "lower", layerPass, false},
	{"sim.array.self_ns_per_logical", "ns", "lower", "sim-fleet", false},
	// cluster
	{"cluster.route_ns.least", "ns", "lower", "sim-fleet", false},
	{"cluster.admit_ns.token", "ns", "lower", "sim-fleet", false},
	{"cluster.route_ns.rr", "ns", "lower", layerPass, false},
	{"cluster.route_ns.affinity", "ns", "lower", layerPass, false},
	{"cluster.run.ns_per_req", "ns", "lower", layerPass, false},
	{"cluster.run.allocs_per_req", "count", "lower", layerPass, false},
	{"cluster.run.bytes_per_req", "B", "lower", layerPass, false},
	{"cluster.run.self_ns_per_req", "ns", "lower", "sim-fleet", false},
	// workload
	{"workload.open.gen_ns_per_req", "ns", "lower", layerPass, false},
	{"workload.open.arena_ns_per_req", "ns", "lower", layerPass, false},
	{"workload.streams.arena_ns_per_req", "ns", "lower", layerPass, false},
	{"workload.spec_mixed.arena_ns_per_req", "ns", "lower", layerPass, false},
	{"workload.replay.load_ns_per_req", "ns", "lower", layerPass, false},
	{"workload.csv.roundtrip_ns_per_req", "ns", "lower", layerPass, false},
	// serve
	{"serve.submit_ns", "ns", "lower", layerPass, false},
	{"serve.clock_now_ns", "ns", "lower", layerPass, false},
	{"serve.rtt_p99_us", "us", "lower", "serve-live", false},
	{"serve.rtt_p999_us", "us", "lower", "serve-live", false},
	{"serve.queue_wait_p50_us", "us", "lower", "serve-live", false},
	{"serve.queue_wait_p99_us", "us", "lower", "serve-live", false},
	{"serve.drain_ms", "ms", "lower", layerPass, false},
	{"serve.backpressure_waits", "count", "lower", "serve-live", false},
	{"serve.allocs_per_req", "count", "lower", "serve-live", false},
	{"serve.goroutines_peak", "count", "lower", "serve-live", false},
	// shared
	{"obs.counter_inc_ns", "ns", "lower", layerPass, false},
	{"obs.histogram_observe_ns", "ns", "lower", layerPass, false},
	{"fault.verdict_ns", "ns", "lower", layerPass, false},
	{"runner.map_us_per_cell", "us", "lower", layerPass, false},
	// tracing: the instrument's own error bars
	{"trace.span_cost_ns", "ns", "lower", layerPass, false},
	{"trace.overhead_pct.sched-churn", "%", "lower", "sched-churn", false},
	{"trace.overhead_pct.sim-single", "%", "lower", "sim-single", false},
	{"trace.overhead_pct.sim-observed", "%", "lower", "sim-observed", false},
	{"trace.overhead_pct.sim-fleet", "%", "lower", "sim-fleet", false},
	{"trace.overhead_pct.serve-live", "%", "lower", "serve-live", false},
}

// missing returns the names in want that m lacks or holds as a non-finite
// value: every pass must print every metric it owns.
func (m metricSet) missing(want []string) []string {
	var out []string
	for _, n := range want {
		v, ok := m[n]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out = append(out, n)
		}
	}
	return out
}

// perLayerNames lists the per-layer metrics a source produces.
func perLayerNames(source string) []string {
	var out []string
	for _, p := range perLayerMetrics {
		if p.Source == source {
			out = append(out, p.Name)
		}
	}
	return out
}

func endToEndNames() []string {
	out := make([]string, len(endToEndMetrics))
	for i, e := range endToEndMetrics {
		out[i] = e.Name
	}
	return out
}

// formatValue prints a measured value with all its digits but no noise: six
// significant figures.
func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }
