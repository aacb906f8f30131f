package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sfcsched/internal/obs"
)

// serveRegistry runs a short -serve pass of 20 requests with its sinks
// registered in a fresh registry, as main does for -serve -http.
func serveRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	o := testOptions(func(o *options) {
		o.serve = true
		o.requests = 20
		o.dilation = 5_000
	})
	if err := runServe(io.Discard, o, reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

// get serves one GET of path from h.
func get(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

func TestObsEndpoints(t *testing.T) {
	mux := newObsMux(serveRegistry(t))

	code, body := get(mux, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE sfcsched_adds_total counter",
		"sfcsched_adds_total 20\n",
		"sfcsched_dispatches_total 20\n",
		"# TYPE sfcsched_dispatch_wait_us histogram",
		"sfcsched_dispatch_wait_us_count 20\n",
		"# TYPE sfcsched_serve_completed_total counter",
		"sfcsched_serve_submitted_total 20\n",
		"sfcsched_serve_model_latency_us_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// A -serve run owns a scheduler and a dispatcher, nothing else.
	for _, family := range []string{"sfcsched_decision_", "sfcsched_cluster_", "sfcsched_fault_", "sfcsched_calib_"} {
		if strings.Contains(body, family) {
			t.Errorf("/metrics lists %s* samples no -serve run owns:\n%s", family, body)
		}
	}
	// An experiment owns no sink, so its endpoint lists nothing.
	if code, body := get(newObsMux(obs.NewRegistry()), "/metrics"); code != http.StatusOK || body != "" {
		t.Errorf("/metrics of an empty registry: status %d, body %q", code, body)
	}

	code, body = get(mux, "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

// A registry built for a -serve run reports that run only: an experiment
// row in the same process moves none of its samples.
func TestExperimentLeavesServeRegistryAlone(t *testing.T) {
	reg := serveRegistry(t)
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	before := scrape()
	if !strings.Contains(before, "sfcsched_adds_total 20\n") || !strings.Contains(before, "sfcsched_serve_completed_total") {
		t.Fatalf("serve registry lacks the run's samples:\n%s", before)
	}
	if err := run(io.Discard, "fig5", testOptions(func(o *options) { o.requests = 600 })); err != nil {
		t.Fatal(err)
	}
	if after := scrape(); after != before {
		t.Errorf("an experiment row moved the serve run's samples:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

func TestServeObsBindsAndServes(t *testing.T) {
	ln, err := serveObs("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics over -http listener: status %d", resp.StatusCode)
	}
}
