package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/obs"
)

// testOptions returns an options value with the flag defaults, tweaked by
// fn.
func testOptions(fn func(*options)) *options {
	o := &options{exp: "all", seed: 1, dilation: 100}
	if fn != nil {
		fn(o)
	}
	return o
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1", testOptions(nil)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3832") {
		t.Errorf("table1 output missing cylinder count:\n%s", buf.String())
	}
}

func TestRunEveryExperimentReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep")
	}
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		var buf bytes.Buffer
		if err := run(&buf, id, testOptions(func(o *options) { o.requests = 600 })); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "== "+id) {
			t.Errorf("%s: output missing header:\n%s", id, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := run(&buf, "fig11", testOptions(func(o *options) {
		o.asCSV = true
		o.workers = 2
	})); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# fig11") || !strings.Contains(out, "users,fcfs") {
		t.Errorf("fig11 CSV output wrong:\n%s", out)
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig99", testOptions(nil)); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestRunServeOnePass(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	var buf bytes.Buffer
	o := testOptions(func(o *options) {
		o.serve = true
		o.requests = 60
		o.dilation = 5_000 // compress hard; accuracy is not under test here
	})
	if err := runServe(&buf, o, obs.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "submitted 60 served 60") {
		t.Errorf("serve summary missing counts:\n%s", out)
	}
	if !strings.Contains(out, "1 cycles") {
		t.Errorf("serve summary should report one cycle without -serve-for:\n%s", out)
	}
}

func TestRunServeRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	var buf bytes.Buffer
	o := testOptions(func(o *options) {
		o.serve = true
		o.requests = 40
		o.dilation = 10_000
		o.serveFor = 300 * time.Millisecond
	})
	if err := runServe(&buf, o, obs.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, " 1 cycles") || strings.Contains(out, " 0 cycles") {
		t.Errorf("serve with -serve-for should complete several cycles:\n%s", out)
	}
	if !strings.Contains(out, "rejected 0 abandoned 0") {
		t.Errorf("drain after feeding should lose nothing:\n%s", out)
	}
}

// TestServeSchedulerHonorsDeadlines: two requests at one priority level
// and one cylinder differ only in deadline, and the serve cascade must
// dispatch the earlier one first whichever arrived first. With the
// deadline stage at F = 0 and no tie-break both got one v_c and left in
// arrival order.
func TestServeSchedulerHonorsDeadlines(t *testing.T) {
	s, err := serveScheduler(3832)
	if err != nil {
		t.Fatal(err)
	}
	late := &core.Request{ID: 1, Priorities: []int{3}, Deadline: 690_000, Cylinder: 1000}
	early := &core.Request{ID: 2, Priorities: []int{3}, Deadline: 400_000, Cylinder: 1000}
	s.Add(late, 0, 0)
	s.Add(early, 0, 0)
	if got := s.Next(0, 0); got != early {
		t.Errorf("first dispatch is request %d (deadline %d), want %d (deadline %d)",
			got.ID, got.Deadline, early.ID, early.Deadline)
	}
}
