package main

import (
	"flag"
	"strings"
	"testing"
	"time"
)

// parse runs args through a fresh FlagSet and returns the options with
// defaults applied, exactly as main sees them.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("schedsim", flag.ContinueOnError)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse failed: %v", err)
	}
	return &o
}

func TestValidateRejectsBadFlagCombinations(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the validation error
	}{
		{"fail-disk without array", []string{"-fail-disk", "0"}, "requires -array"},
		{"fail-disk out of range", []string{"-array", "5", "-fail-disk", "5"}, "out of range"},
		{"fail-disk negative fail-at", []string{"-array", "5", "-fail-disk", "1", "-fail-at", "-1s"}, "-fail-at"},
		{"rebuild without fail-disk", []string{"-rebuild"}, "requires -fail-disk"},
		{"rebuild without blocks", []string{"-array", "5", "-fail-disk", "1", "-rebuild", "-rebuild-blocks", "0"}, "-rebuild-blocks"},
		{"rebuild negative interval", []string{"-array", "5", "-fail-disk", "1", "-rebuild", "-rebuild-interval", "-1ms"}, "-rebuild-interval"},
		{"write-frac above one", []string{"-write-frac", "1.5"}, "-write-frac"},
		{"write-frac negative", []string{"-write-frac", "-0.1"}, "-write-frac"},
		{"fault-rate above one", []string{"-fault-rate", "2"}, "-fault-rate"},
		{"fault-rate negative", []string{"-fault-rate", "-0.5"}, "-fault-rate"},
		{"negative retries", []string{"-retries", "-1"}, "-retries"},
		{"negative retry base", []string{"-retry-base", "-5ms"}, "-retry-base"},
		{"two-disk array", []string{"-array", "2"}, "at least 3 disks"},
		{"negative array", []string{"-array", "-1"}, "-array"},
		{"array zero block size", []string{"-array", "5", "-block", "0"}, "-block"},
		{"zero requests", []string{"-requests", "0"}, "-requests"},
		{"zero interarrival", []string{"-interarrival", "0"}, "-interarrival"},
		{"zero dims", []string{"-dims", "0"}, "-dims"},
		{"deadline max below min", []string{"-deadline-min", "1s", "-deadline-max", "500ms"}, "-deadline-max"},
		{"negative deadline min", []string{"-deadline-min", "-1s"}, "-deadline-min"},
		{"size max below min", []string{"-size-min", "8192", "-size-max", "4096"}, "-size-min"},
		{"negative cluster", []string{"-cluster", "-1"}, "-cluster"},
		{"cluster zero disks", []string{"-cluster", "4", "-cluster-disks", "0"}, "-cluster-disks"},
		{"cluster with array", []string{"-cluster", "4", "-array", "5"}, "mutually exclusive"},
		{"cluster with shadow", []string{"-cluster", "4", "-shadow", "fcfs"}, "-shadow"},
		{"cluster with decision trace", []string{"-cluster", "4", "-decision-trace", "-"}, "-decision-trace"},
		{"cluster with fault rate", []string{"-cluster", "4", "-fault-rate", "0.1"}, "fault injection"},
		{"cluster unknown router", []string{"-cluster", "4", "-router", "random"}, "-router"},
		{"cluster unknown admit", []string{"-cluster", "4", "-admit", "priority"}, "-admit"},
		{"cluster zero admit rate", []string{"-cluster", "4", "-admit", "token", "-admit-rate", "0"}, "-admit-rate"},
		{"negative tenants", []string{"-tenants", "-2"}, "-tenants"},
		{"negative tenant skew", []string{"-tenants", "4", "-tenant-skew", "-1"}, "-tenant-skew"},
		{"zones without tenants", []string{"-tenant-zones"}, "-tenant-zones"},
		{"zero classes", []string{"-classes", "0"}, "-classes"},
		{"zero dilation", []string{"-serve", "-dilation", "0"}, "-dilation"},
		{"negative dilation", []string{"-dilation", "-5"}, "-dilation"},
		{"zero inflight", []string{"-inflight", "0"}, "-inflight"},
		{"serve with all", []string{"-serve", "-sched", "all"}, "-sched all"},
		{"serve with array", []string{"-serve", "-array", "5"}, "-array"},
		{"serve with cluster", []string{"-serve", "-cluster", "4"}, "-cluster"},
		{"serve with fault rate", []string{"-serve", "-fault-rate", "0.1"}, "fault injection"},
		{"serve with shadow", []string{"-serve", "-shadow", "fcfs"}, "-shadow"},
		{"serve with decision trace", []string{"-serve", "-decision-trace", "-"}, "-decision-trace"},
		{"serve with telemetry", []string{"-serve", "-telemetry", "-"}, "-telemetry"},
		{"serve with dispatch trace", []string{"-serve", "-dispatch-trace", "-"}, "-dispatch-trace"},
		{"trace with replay", []string{"-trace", "run.csv", "-replay", "run.jsonl"}, "mutually exclusive"},
		{"replay with spec", []string{"-replay", "run.jsonl", "-spec", "mixed"}, "mutually exclusive"},
		{"unknown spec", []string{"-spec", "tsunami"}, "-spec"},
		{"spec zero requests", []string{"-spec", "flash", "-requests", "0"}, "-requests"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := parse(t, tc.args...).validate()
			if err == nil {
				t.Fatalf("validate(%v) accepted, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%v) = %q, want substring %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestValidateAcceptsGoodFlagCombinations(t *testing.T) {
	cases := [][]string{
		nil, // all defaults
		{"-sched", "all", "-fault-rate", "0.05", "-retries", "0"},
		{"-array", "5", "-fail-disk", "4", "-rebuild", "-write-frac", "1"},
		{"-fault-rate", "1", "-retry-base", "0"},
		// Trace replay skips the workload-shape checks entirely.
		{"-trace", "run.csv", "-requests", "0", "-dims", "0"},
		{"-replay", "run.jsonl", "-requests", "0", "-dims", "0"},
		{"-spec", "mixed", "-sched", "all"},
		{"-spec", "diurnal", "-requests", "2000", "-cluster", "2"},
		{"-cluster", "4", "-router", "least", "-admit", "token", "-tenants", "8", "-tenant-zones", "-classes", "3"},
		{"-cluster", "2", "-cluster-disks", "3", "-router", "affinity", "-telemetry", "t.csv"},
		{"-tenants", "5", "-tenant-skew", "0"},
		{"-serve"},
		{"-serve", "-dilation", "0.5", "-inflight", "4", "-drop=false"},
		{"-serve", "-curve", "zorder", "-r", "0", "-deadline-min", "0"},
		{"-serve", "-sched", "scan"},
		{"-serve", "-sched", "cascaded", "-window", "0.9"},
	}
	for _, args := range cases {
		if err := parse(t, args...).validate(); err != nil {
			t.Errorf("validate(%v) = %v, want nil", args, err)
		}
	}
}

func TestFaultPlanTranslation(t *testing.T) {
	if plan := parse(t).faultPlan(); plan != nil {
		t.Fatalf("default flags built a fault plan: %+v", plan)
	}

	o := parse(t, "-fault-rate", "0.02", "-fault-seed", "7", "-retries", "2", "-retry-base", "3ms")
	plan := o.faultPlan()
	if plan == nil {
		t.Fatal("fault-rate flags produced no plan")
	}
	if plan.TransientRate != 0.02 || plan.Seed != 7 || plan.MaxRetries != 2 || plan.RetryBase != 3000 {
		t.Errorf("transient plan = %+v", plan)
	}
	if plan.FailAt != 0 || plan.Rebuild {
		t.Errorf("transient plan armed a disk failure: %+v", plan)
	}
	if err := plan.Validate(); err != nil {
		t.Errorf("translated plan does not validate: %v", err)
	}

	// Flag -retries 0 means "no retries", which the plan spells negative
	// (plan 0 selects the default retry budget).
	if p := parse(t, "-fault-rate", "0.5", "-retries", "0").faultPlan(); p.MaxRetries >= 0 {
		t.Errorf("-retries 0 translated to MaxRetries %d, want negative", p.MaxRetries)
	}

	o = parse(t, "-array", "5", "-fail-disk", "2", "-fail-at", "1s",
		"-rebuild", "-rebuild-blocks", "64", "-rebuild-interval", "2ms")
	if err := o.validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	plan = o.faultPlan()
	if plan == nil || plan.FailDisk != 2 || plan.FailAt != 1_000_000 ||
		!plan.Rebuild || plan.RebuildBlocks != 64 || plan.RebuildInterval != 2_000 {
		t.Errorf("failure plan = %+v", plan)
	}
	if err := plan.Validate(); err != nil {
		t.Errorf("translated failure plan does not validate: %v", err)
	}
}

func TestDefaultsValidateAndStayFaultFree(t *testing.T) {
	o := parse(t)
	if err := o.validate(); err != nil {
		t.Fatalf("default flags do not validate: %v", err)
	}
	if o.failDisk != -1 {
		t.Errorf("default -fail-disk = %d, want -1 (disabled)", o.failDisk)
	}
	if o.retryBase != 5*time.Millisecond {
		t.Errorf("default -retry-base = %v", o.retryBase)
	}
}
