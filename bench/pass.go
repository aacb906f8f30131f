package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// result is what one pass over one workload reports. It is also the wire
// format between a parent run and the child process of each pass.
type result struct {
	Workload string `json:"workload,omitempty"`
	Pass     string `json:"pass"`
	// Correct is false when any output check failed. Attempted counts the
	// requests carried plus the checks made; Failed the host-level
	// failures among them — never a simulated deadline loss.
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	// Digests are the workload's reference digests, so a traced pass can be
	// compared with the measured one across processes.
	Digests []digest `json:"digests,omitempty"`
	Notes   []string `json:"notes,omitempty"`
}

const (
	setupRuns = 5 // set-ups timed per measured pass; setup_s is their median
	// minRepsPerRound is how many repetitions follow each set-up however
	// short the budget.
	minRepsPerRound = 1
	// maxTracedReps bounds the spans a traced pass keeps in memory, and
	// tracedSpanCap preallocates room for them: the busiest workload records
	// about 1.6 M spans per repetition.
	maxTracedReps = 2
	tracedSpanCap = 4 << 20
)

// finish folds a check ledger into the result.
func (r *result) finish(c *checks) {
	r.Failed += c.failed
	r.Attempted += c.failed
	r.Correct = r.Failed == 0
	r.Notes = append(r.Notes, c.notes...)
}

// measuredPass runs the workload with nothing attached and reports the
// end-to-end metrics. It measures for seconds; only the output checks run
// after that.
func measuredPass(name string, p params, seconds float64) (*result, error) {
	w, err := newWorkload(name, p)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &result{Workload: name, Pass: "measured", Metrics: metricSet{}}
	var c checks

	// The budget is cut into setupRuns rounds, each a set-up, then
	// repetitions, then a share of the round trips. Interleaving matters on
	// a shared box, where speed drifts by several percent over seconds:
	// every metric's samples see the same stretch of time, so a slow spell
	// cannot land on the set-ups alone or on the round trips alone.
	var setups, rates, rtts []float64
	var ref []digest
	start := time.Now()
	for round := 1; round <= setupRuns; round++ {
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ref == nil {
			ref = w.reference()
		} else {
			c.equalDigests(fmt.Sprintf("%s set-up %d", name, round), ref, w.reference())
		}
		roundEnd := start.Add(time.Duration(seconds * float64(round) / setupRuns * float64(time.Second)))
		for reps := 0; reps < minRepsPerRound || time.Now().Before(roundEnd); reps++ {
			rep, err := w.repeat(nil)
			if err != nil {
				return nil, fmt.Errorf("%s: repetition %d: %w", name, len(rates), err)
			}
			c.equalDigests(fmt.Sprintf("%s repetition %d", name, len(rates)), ref, rep.digests)
			res.Attempted += rep.ops
			rates = append(rates, float64(rep.ops)/rep.host.Seconds())
		}
		part, err := w.roundTrips(nil, setupRuns)
		if err != nil {
			return nil, fmt.Errorf("%s: round trips: %w", name, err)
		}
		rtts = append(rtts, part...)
	}
	res.Digests = ref
	res.Attempted += int64(len(rtts))
	sort.Float64s(rtts)
	p50, _ := percentile(rtts, 0.50)

	// The high-water mark is read before the output checks run: they build
	// fresh engines and collectors of their own, and their garbage is not
	// the workload's.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	w.verify(&c)
	mod := w.model()

	m := res.Metrics
	m.setMedian("setup_s", setups, "s")
	m.setMedian("req_per_s", rates, "1/s")
	m.set("peak_rss_mb", rss, "MB")
	m["rtt_p50_us"] = metric{Value: p50, Unit: "us", Samples: len(rtts)}
	m.set("loss_pct", mod.lossPct, "%")
	m.set("seek_ms_per_served", mod.seekMsPerServed, "ms")
	m.set("inversions_per_dispatch", mod.inversionsPerDispatch, "count")
	if miss := m.missing(endToEndNames()); len(miss) > 0 {
		c.fail("%s: measured pass did not produce %v", name, miss)
	}
	res.finish(&c)
	return res, nil
}

// tracedPass reruns the workload with the benchmark's decorators around
// every layer boundary, for about a quarter of the measured budget. The
// same repetitions are first run undecorated in the same process, so the
// difference between the two is the tracing overhead and nothing else.
func tracedPass(name string, p params, seconds float64, outDir string) (*result, error) {
	w, err := newWorkload(name, p)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &result{Workload: name, Pass: "traced", Metrics: metricSet{}}
	var c checks

	tr := newTracer(max(int(tracedSpanCap*p.scale), 1<<18))
	tr.rec.pretouch()
	root := tr.begin("pass")
	cost := measureSpanCost(tr.rec)
	setup := tr.begin("setup")
	if err := w.setup(tr); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	tr.end(setup)
	ref := w.reference()
	res.Digests = ref

	// Untraced repetitions: the base of trace.overhead_pct.
	var plain, traced []float64
	budget := time.Duration(seconds / 4 * float64(time.Second))
	plainSpan := tr.begin("untraced")
	deadline := time.Now().Add(budget)
	for len(plain) < 1 || (len(plain) < maxTracedReps && time.Now().Before(deadline)) {
		rep, err := w.repeat(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: untraced repetition: %w", name, err)
		}
		c.equalDigests(name+" untraced repetition", ref, rep.digests)
		res.Attempted += rep.ops
		plain = append(plain, rep.host.Seconds()/float64(rep.ops))
	}
	tr.end(plainSpan)

	for len(traced) < len(plain) {
		tr.rec.rep = uint16(len(traced) + 1)
		span := tr.begin("repetition")
		rep, err := w.repeat(tr)
		tr.end(span)
		if err != nil {
			return nil, fmt.Errorf("%s: traced repetition: %w", name, err)
		}
		// The decorated run must make the decisions the bare one made.
		c.equalDigests(name+" traced repetition", ref, rep.digests)
		res.Attempted += rep.ops
		traced = append(traced, rep.host.Seconds()/float64(rep.ops))
	}
	tr.rec.rep = 0
	rtt := tr.begin("round_trips")
	if _, err := w.roundTrips(tr, 4); err != nil {
		return nil, fmt.Errorf("%s: traced round trips: %w", name, err)
	}
	tr.end(rtt)
	w.verify(&c)
	tr.end(root)

	tracks := [][]spanStat{tr.rec.aggregate()}
	for _, x := range tr.extra {
		tracks = append(tracks, x.aggregate())
	}
	stats := mergeStats(tracks...)
	m := res.Metrics
	w.traced(tr, stats, cost, m)
	m.set("trace.overhead_pct."+name, 100*(median(traced)/median(plain)-1), "%")
	if miss := m.missing(perLayerNames(name)); len(miss) > 0 {
		c.fail("%s: traced pass did not produce %v", name, miss)
	}

	// Self times plus child spans must add up to the traced wall time: the
	// root's duration is, by construction, the sum of every main-track
	// span's self time, and a gap would mean spans were lost or misnested.
	var selfSum int64
	for _, s := range tracks[0] {
		selfSum += s.SelfNs
	}
	wall := stats["pass"].TotalNs
	if gap := float64(selfSum-wall) / float64(wall); gap > 0.02 || gap < -0.02 {
		c.fail("%s: span self times sum to %d ns, traced wall time is %d ns", name, selfSum, wall)
	}
	res.Notes = append(res.Notes, separation(name, stats, cost)...)
	res.Notes = append(res.Notes, fmt.Sprintf("%s: self times sum to %.4f of the traced wall time (%d spans, span cost %.1f ns, %.1f ns inside)",
		name, float64(selfSum)/float64(wall), len(tr.rec.spans), cost.total, cost.inner))

	if err := writeTrace(outDir, name, p.seed, cost, stats, tr.counts); err != nil {
		return nil, err
	}
	res.finish(&c)
	return res, nil
}

// separation reports, per workload, how the traced time splits between the
// scheduler spans and everything else — the evidence that each workload
// isolates the layers it claims to (README, "Layer separation").
func separation(name string, stats map[string]spanStat, cost spanCost) []string {
	share := func(parent string, parts ...string) (float64, bool) {
		p, ok := stats[parent]
		if !ok || p.net(cost) <= 0 {
			return 0, false
		}
		var sum float64
		for _, n := range parts {
			sum += stats[n].net(cost)
		}
		return sum / p.net(cost), true
	}
	var out []string
	switch name {
	case "sched-churn":
		if s, ok := share("churn.loop", "core.sched.add", "core.sched.next"); ok {
			out = append(out, fmt.Sprintf("sched-churn: core.sched.* spans are %.1f%% of the loop's traced time (want >= 90%%)", 100*s))
		}
	case "sim-single":
		for _, arm := range simArms {
			pre := armPrefix(arm.name)
			if s, ok := share("sim.run."+arm.name, pre+".add", pre+".next"); ok {
				out = append(out, fmt.Sprintf("sim-single %s: %s.* spans are %.1f%% of sim.Run's traced time (want <= 45%%)", arm.name, pre, 100*s))
			}
		}
	}
	var foreign []string
	for n := range stats {
		inFleet := strings.HasPrefix(n, "cluster.") || strings.HasPrefix(n, "sim.array.") || n == "sim.run_array"
		if inFleet && name != "sim-fleet" || strings.HasPrefix(n, "sim.") && name == "serve-live" {
			foreign = append(foreign, n)
		}
	}
	sort.Strings(foreign)
	if len(foreign) > 0 {
		out = append(out, fmt.Sprintf("%s: spans that belong to another workload's layers: %v", name, foreign))
	}
	return out
}

// traceFile is the aggregated traced pass of one workload as written to
// the output directory.
type traceFile struct {
	Workload    string                  `json:"workload"`
	Seed        uint64                  `json:"seed"`
	SpanCostNs  float64                 `json:"span_cost_ns"`
	SpanInnerNs float64                 `json:"span_inner_ns"`
	Spans       []spanStat              `json:"spans"`
	Counts      map[string]*schedCounts `json:"scheduler_counts"`
}

func writeTrace(dir, name string, seed uint64, cost spanCost, stats map[string]spanStat, counts map[string]*schedCounts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating the output directory: %w", err)
	}
	data, err := json.MarshalIndent(traceFile{
		Workload: name, Seed: seed, SpanCostNs: cost.total, SpanInnerNs: cost.inner,
		Spans: sortedStats(stats), Counts: counts,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing the aggregated trace: %w", err)
	}
	return nil
}

// peakRSSMB returns VmHWM of this process in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
