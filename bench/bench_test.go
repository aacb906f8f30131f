package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"sfcsched/internal/sim"
)

// testParams runs every workload at 1/100 of the benchmark's size.
var testParams = params{seed: 1, scale: 0.01}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(v, n=4) of these inputs, computed with CPython.
	for _, tc := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5}, // the exclusive method extrapolates
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(tc.v)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n     int
		p     float64
		value float64
		eff   float64
	}{
		{1000, 0.50, 500, 0.5},
		{1000, 0.99, 990, 0.99},  // exactly ten beyond: allowed
		{1000, 0.999, 990, 0.99}, // would leave one beyond: lowered
		{100, 0.99, 90, 0.9},     // p99 of 100 samples is reported as p90
		{20000, 0.999, 19980, 0.999},
		{10, 0.99, 5, 0.5},      // no defensible tail at all
		{11, 0.99, 1, 1.0 / 11}, // one rank has ten beyond it
	} {
		v, eff := percentile(seq(tc.n), tc.p)
		if v != tc.value || math.Abs(eff-tc.eff) > 1e-12 {
			t.Errorf("percentile(n=%d, p=%v) = %v (eff %v), want %v (eff %v)", tc.n, tc.p, v, eff, tc.value, tc.eff)
		}
	}
	if v, eff := percentile(nil, 0.5); v != 0 || eff != 0 {
		t.Errorf("percentile of nothing = %v, %v", v, eff)
	}
}

// put records a closed span with explicit times under parent.
func put(r *recorder, name string, parent int32, start, end int64) int32 {
	r.spans = append(r.spans, span{name: r.id(name), parent: parent, start: start, end: end})
	return int32(len(r.spans) - 1)
}

func TestSpanSelfTimeArithmetic(t *testing.T) {
	r := newRecorder(16)
	root := put(r, "root", -1, 0, 1000)
	// Nested: a covers 100..400, and its own child 150..250.
	a := put(r, "a", root, 100, 400)
	put(r, "leaf", a, 150, 250)
	// Overlapping siblings: 500..700 and 600..800 cover 300 ns, not 400.
	put(r, "b", root, 500, 700)
	put(r, "b", root, 600, 800)
	// Contained in an earlier sibling: adds nothing.
	put(r, "b", root, 650, 680)
	// Empty span, and one sticking out past the parent (clipped to 50).
	put(r, "empty", root, 900, 900)
	put(r, "late", root, 950, 1200)
	// Never ended: ignored.
	r.spans = append(r.spans, span{name: r.id("open"), parent: root, start: 10, end: -1})

	got := map[string]spanStat{}
	for _, s := range r.aggregate() {
		got[s.Name] = s
	}
	want := map[string]spanStat{
		// 1000 - (300 [a] + 300 [b union] + 0 [empty] + 50 [late, clipped]).
		"root":  {Count: 1, Children: 6, Descendants: 7, TotalNs: 1000, SelfNs: 350},
		"a":     {Count: 1, Children: 1, Descendants: 1, TotalNs: 300, SelfNs: 200},
		"leaf":  {Count: 1, TotalNs: 100, SelfNs: 100},
		"b":     {Count: 3, TotalNs: 430, SelfNs: 430},
		"empty": {Count: 1},
		"late":  {Count: 1, TotalNs: 250, SelfNs: 250},
		"open":  {},
	}
	for name, w := range want {
		w.Name = name
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}

	// Recording cost: a span loses its inside cost, a parent additionally the
	// whole cost of everything beneath it.
	c := spanCost{inner: 10, total: 30}
	if n := got["root"].net(c); n != 1000-10-7*30 {
		t.Errorf("root net = %v", n)
	}
	if n := got["root"].netSelf(c); n != 350-10-6*20 {
		t.Errorf("root net self = %v", n)
	}
	if n := perCall(got, c, "b"); math.Abs(n-(430.0-30)/3) > 1e-9 {
		t.Errorf("per-call net of b = %v", n)
	}
}

func TestRecorderNestsAndSumsToWallTime(t *testing.T) {
	r := newRecorder(64)
	root := r.begin(r.id("root"))
	for i := 0; i < 10; i++ {
		outer := r.begin(r.id("outer"))
		r.end(r.begin(r.id("inner")))
		r.end(outer)
	}
	r.end(root)
	var self, wall int64
	for _, s := range r.aggregate() {
		self += s.SelfNs
		if s.Name == "root" {
			wall = s.TotalNs
			if s.Children != 10 || s.Descendants != 20 {
				t.Errorf("root has %d children, %d descendants", s.Children, s.Descendants)
			}
		}
	}
	if self != wall || wall <= 0 {
		t.Errorf("self times sum to %d, wall time is %d", self, wall)
	}
	if c := measureSpanCost(r); !(c.inner > 0 && c.total > c.inner) {
		t.Errorf("span cost %+v", c)
	}
}

func TestDigestAndChecks(t *testing.T) {
	if mixOrder(mixOrder(0, 1), 2) == mixOrder(mixOrder(0, 2), 1) {
		t.Error("order hash does not depend on order")
	}
	a := []digest{{Served: 1}, {Served: 2, Late: 1}}
	var c checks
	c.equalDigests("same", a, slices.Clone(a))
	if c.failed != 0 {
		t.Fatalf("equal digests failed: %v", c.notes)
	}
	c.equalDigests("one differs", a, []digest{{Served: 1}, {Served: 2, Late: 2}})
	c.equalDigests("length", a, a[:1])
	if c.failed != 2 {
		t.Errorf("failed = %d, want 2 (%v)", c.failed, c.notes)
	}
	res := &result{Attempted: 10}
	res.finish(&c)
	if res.Correct || res.Failed != 2 || res.Attempted != 12 {
		t.Errorf("result %+v", res)
	}
}

// A decorated scheduler must leave the simulated outcome untouched and keep
// the capabilities observers look for.
func TestDecoratedSchedulerKeepsDigestAndCapabilities(t *testing.T) {
	w := &simSingle{p: testParams}
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1 << 12)
	rep, err := w.repeat(tr)
	if err != nil {
		t.Fatal(err)
	}
	var c checks
	c.equalDigests("decorated", w.reference(), rep.digests)
	w.verify(&c)
	if c.failed != 0 {
		t.Fatalf("decorated run diverged: %v", c.notes)
	}
	if n := tr.counts["core.sched"]; n.Adds != int64(len(w.trace)) || n.Dispatches == 0 || n.Visited == 0 {
		t.Errorf("counts %+v for %d requests", n, len(w.trace))
	}

	var n schedCounts
	cascade := traceSched(mustArm(simArms[0].mk(w.disk.Cylinders)), tr.rec, "x", "x.each", &n)
	if _, ok := cascade.(sim.ValueRanker); !ok {
		t.Error("decorated core.Scheduler lost ValueRanker")
	}
	if _, ok := cascade.(sim.WindowStater); !ok {
		t.Error("decorated core.Scheduler lost WindowStater")
	}
	plain := traceSched(mustArm(simArms[1].mk(w.disk.Cylinders)), tr.rec, "y", "y.each", &n)
	if _, ok := plain.(sim.ValueRanker); ok {
		t.Error("decorated C-SCAN gained ValueRanker")
	}
}

// Every workload, at 1/100 scale, produces every metric it owns, finite,
// with no failed operation — in every pass.
func TestEveryPassProducesEveryMetric(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			measured, err := measuredPass(name, testParams, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertPass(t, measured, endToEndNames())
			for _, e := range endToEndMetrics {
				// The model metrics may be zero on a trace this short; what
				// the host did may not.
				if v := measured.Metrics[e.Name].Value; v < 0 || v == 0 && !e.Exact {
					t.Errorf("%s = %v", e.Name, v)
				}
			}
			traced, err := tracedPass(name, testParams, 0, out)
			if err != nil {
				t.Fatal(err)
			}
			assertPass(t, traced, perLayerNames(name))
			if !slices.Equal(measured.Digests, traced.Digests) {
				t.Errorf("traced digests %+v, measured %+v", traced.Digests, measured.Digests)
			}
			if _, err := os.Stat(out + "/trace-" + name + "-seed1.json"); err != nil {
				t.Errorf("aggregated trace not written: %v", err)
			}
		})
	}
	t.Run(layerPass, func(t *testing.T) {
		res, err := layerPassRun(testParams)
		if err != nil {
			t.Fatal(err)
		}
		assertPass(t, res, perLayerNames(layerPass))
	})
}

func assertPass(t *testing.T, res *result, want []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s %s: correct=%v attempted=%d failed=%d notes=%v",
			res.Workload, res.Pass, res.Correct, res.Attempted, res.Failed, res.Notes)
	}
	if miss := res.Metrics.missing(want); len(miss) > 0 {
		t.Errorf("%s %s: missing or non-finite metrics %v", res.Workload, res.Pass, miss)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s %s: %d metrics %v, want exactly %v", res.Workload, res.Pass, len(res.Metrics), res.Metrics.names(), want)
	}
}

func TestLayerSeparationNotes(t *testing.T) {
	stats := map[string]spanStat{
		"churn.loop":     {Name: "churn.loop", Count: 1, Descendants: 2, TotalNs: 1000},
		"core.sched.add": {Name: "core.sched.add", Count: 1, TotalNs: 400},
		"cluster.run":    {Name: "cluster.run", Count: 1, TotalNs: 5},
	}
	notes := separation("sched-churn", stats, spanCost{})
	if len(notes) != 2 || !strings.Contains(notes[0], "40.0%") || !strings.Contains(notes[1], "cluster.run") {
		t.Errorf("notes %q", notes)
	}
	if notes := separation("sim-fleet", stats, spanCost{}); len(notes) != 0 {
		t.Errorf("sim-fleet owns cluster spans, got %q", notes)
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(seed uint64, rate, loss, calls float64) *resultFile {
		return &resultFile{Stamp: stamp{Seed: seed}, Workloads: map[string]*workloadResult{
			"sim-single": {Metrics: metricSet{
				"req_per_s":                {Value: rate, Unit: "1/s", Samples: 9, Q1: rate * 0.99, Q3: rate * 1.01},
				"loss_pct":                 {Value: loss, Unit: "%"},
				"core.sched.calls_per_req": {Value: calls, Unit: "count"},
				"core.sched.add_ns":        {Value: 100 * calls, Unit: "ns"},
			}},
		}}
	}
	base := mk(1, 1000, 8, 3)
	rate, _ := endToEndByName("req_per_s")
	loss, _ := endToEndByName("loss_pct")
	for _, tc := range []struct {
		name      string
		b         *resultFile
		symmetric bool
		ok        bool
	}{
		{"identical", mk(1, 1000, 8, 3), false, true},
		{"slower within the bound", mk(1, 1000*(1-rate.Bound/2), 8, 3), false, true},
		{"slower beyond the bound", mk(1, 1000*(1-2*rate.Bound), 8, 3), false, false},
		{"much faster is no regression", mk(1, 1500, 8, 3), false, true},
		{"much faster is a disagreement between two sets", mk(1, 1500, 8, 3), true, false},
		{"model metric differs on equal seeds", mk(1, 1000, 8.001, 3), false, false},
		{"model metric within its bound across seeds", mk(2, 1000, 8*(1+loss.Bound/2), 3), false, true},
		{"exact count differs", mk(1, 1000, 8, 3.01), false, false},
		{"per-layer timing carries no bound", mk(1, 1000, 8, 3), false, true},
	} {
		var out bytes.Buffer
		if got := compareResults(&out, base, tc.b, tc.symmetric); got != tc.ok {
			t.Errorf("%s: ok=%v, want %v\n%s", tc.name, got, tc.ok, out.String())
		}
	}
	missing := mk(1, 1000, 8, 3)
	delete(missing.Workloads["sim-single"].Metrics, "loss_pct")
	if compareResults(io.Discard, base, missing, false) {
		t.Error("a metric present in one file only must fail the comparison")
	}
	failed := mk(1, 1000, 8, 3)
	failed.Workloads["sim-single"].OpsFailed = 1
	if compareResults(io.Discard, base, failed, false) {
		t.Error("failed operations must fail the comparison")
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/out/result.json"
	rf := &resultFile{Stamp: newStamp(&options{seed: 7, seconds: 3}), Workloads: map[string]*workloadResult{
		layerPass: {OpsAttempted: 2, Metrics: metricSet{"sfc.index_lut_ns": {Value: 5.25, Unit: "ns"}}},
	}}
	if rf.Stamp.NProc < 1 || rf.Stamp.Go == "" || rf.Stamp.Seed != 7 {
		t.Errorf("stamp %+v", rf.Stamp)
	}
	if err := writeResultFile(path, rf); err != nil {
		t.Fatal(err)
	}
	ok, err := compareFiles(io.Discard, path, path)
	if err != nil || !ok {
		t.Errorf("a file compared with itself: ok=%v err=%v", ok, err)
	}
	if _, err := compareFiles(io.Discard, path, path+".absent"); err == nil {
		t.Error("missing file must be an error")
	}
}

func TestFlagsAcceptTheDriversForm(t *testing.T) {
	o, _, err := parseFlags(strings.Fields("--workload sim-fleet --seed 3 --seconds 10 --trace 1"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "sim-fleet" || o.seed != 3 || o.seconds != 10 || o.trace != 1 {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range []string{
		"-workload nope", "-trace 0", "-trace 2 -workload sim-single", "-pass measured",
		"-pass traced -trace 1 -workload sim-single", "-compare one.json", "-repeat 0", "stray",
	} {
		if _, _, err := parseFlags(strings.Fields(bad), io.Discard); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if code := run([]string{"-workload", "nope"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("exit code %d for a usage error", code)
	}
}

// BENCHMARK.json, which the acceptance driver reads, must name exactly the
// workloads and metrics this package defines.
func TestBenchmarkJSONMatchesThePackage(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("paths %v", b.Paths)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %+v, want %s: %q", i, w, workloadNames[i], workloadWhy[workloadNames[i]])
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, e := range b.EndToEnd {
		w := endToEndMetrics[i]
		if e.Name != w.Name || e.Unit != w.Unit || e.Better != w.Better || e.Bound != w.Bound {
			t.Errorf("end-to-end %d: %+v, want %+v", i, e, w)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, p := range b.PerLayer {
		w := perLayerMetrics[i]
		if p.Name != w.Name || p.Unit != w.Unit || p.Better != w.Better {
			t.Errorf("per-layer %d: %+v, want %+v", i, p, w)
		}
	}
}
