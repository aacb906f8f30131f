package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sfcsched/internal/sched"
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

// Every bad flag value or combination is reported before the first
// simulated event. Rules about one flag's value live in the constructor
// that consumes it, so most rows assert on that owner's error under the
// flag name run wraps it in.
func TestValidateRejectsBadFlagCombinations(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of the error
	}{
		{"fail-disk without array", []string{"-fail-disk", "0"}, "sim: whole-disk failure requires an array run"},
		{"fail-disk out of range", []string{"-array", "5", "-fail-disk", "5"}, "sim: FailDisk 5 outside array of 5 disks"},
		{"fail-disk negative fail-at", []string{"-array", "5", "-fail-disk", "1", "-fail-at", "-1s"}, "-fail-at"},
		{"rebuild without fail-disk", []string{"-rebuild"}, "fault flags: fault: Rebuild requires a planned disk failure"},
		{"rebuild without blocks", []string{"-array", "5", "-fail-disk", "1", "-rebuild", "-rebuild-blocks", "0"}, "fault flags: fault: Rebuild requires RebuildBlocks > 0"},
		{"rebuild negative interval", []string{"-array", "5", "-fail-disk", "1", "-rebuild", "-rebuild-interval", "-1ms"}, "fault flags: fault: negative RebuildInterval"},
		{"write-frac above one", []string{"-write-frac", "1.5"}, "workload flags: workload: WriteFrac 1.5 outside [0,1]"},
		{"write-frac negative", []string{"-write-frac", "-0.1"}, "workload flags: workload: WriteFrac -0.1 outside [0,1]"},
		{"fault-rate above one", []string{"-fault-rate", "2"}, "fault flags: fault: TransientRate 2 outside [0,1]"},
		{"fault-rate negative", []string{"-fault-rate", "-0.5"}, "fault flags: fault: TransientRate -0.5 outside [0,1]"},
		{"negative retries", []string{"-retries", "-1"}, "-retries"},
		{"negative retry base", []string{"-retry-base", "-5ms"}, "fault flags: fault: negative RetryBase"},
		{"two-disk array", []string{"-array", "2"}, "-array: disk: RAID-5 needs at least 3 disks, got 2"},
		{"negative array", []string{"-array", "-1"}, "-array: disk: RAID-5 needs at least 3 disks, got -1"},
		{"array zero block size", []string{"-array", "5", "-block", "0"}, "-array: disk: invalid block size 0"},
		{"zero requests", []string{"-requests", "0"}, "workload flags: workload: Count must be positive"},
		{"zero interarrival", []string{"-interarrival", "0"}, "workload flags: workload: MeanInterarrival must be positive"},
		{"zero dims", []string{"-dims", "0"}, "-dims"},
		{"zero levels", []string{"-levels", "0"}, "workload flags: workload: invalid priority shape"},
		{"deadline max below min", []string{"-deadline-min", "1s", "-deadline-max", "500ms"}, "workload flags: workload: DeadlineMax < DeadlineMin"},
		{"negative deadline min", []string{"-deadline-min", "-1s"}, "-deadline-min"},
		{"size max below min", []string{"-size-min", "8192", "-size-max", "4096"}, "workload flags: workload: sizes must satisfy 1 <= SizeMin <= SizeMax"},
		{"zero size min", []string{"-size-min", "0"}, "workload flags: workload: sizes must satisfy 1 <= SizeMin <= SizeMax"},
		{"negative cluster", []string{"-cluster", "-1"}, "-cluster"},
		{"cluster zero disks", []string{"-cluster", "4", "-cluster-disks", "0"}, "-cluster-disks"},
		{"cluster with array", []string{"-cluster", "4", "-array", "5"}, "mutually exclusive"},
		{"cluster with shadow", []string{"-cluster", "4", "-shadow", "fcfs"}, "-shadow"},
		{"cluster with decision trace", []string{"-cluster", "4", "-decision-trace", "-"}, "-decision-trace"},
		{"cluster with fault rate", []string{"-cluster", "4", "-fault-rate", "0.1"}, "fault injection"},
		{"cluster unknown router", []string{"-cluster", "4", "-router", "random"}, "-router: cluster: unknown router"},
		{"cluster unknown admit", []string{"-cluster", "4", "-admit", "priority"}, "-admit: cluster: unknown admission policy"},
		{"cluster zero admit rate", []string{"-cluster", "4", "-admit", "token", "-admit-rate", "0"}, "-admit: cluster: token bucket rate and burst must be positive"},
		{"negative tenants", []string{"-tenants", "-2"}, "workload flags: workload: Tenants and TenantSkew must be non-negative"},
		{"negative tenant skew", []string{"-tenants", "4", "-tenant-skew", "-1"}, "workload flags: workload: Tenants and TenantSkew must be non-negative"},
		{"zones without tenants", []string{"-tenant-zones"}, "-tenant-zones"},
		{"zero classes", []string{"-classes", "0"}, "-classes"},
		{"zero dilation", []string{"-serve", "-dilation", "0"}, "-dilation: serve: dilation factor must be positive"},
		{"negative dilation", []string{"-dilation", "-5"}, "-dilation: serve: dilation factor must be positive"},
		{"zero inflight", []string{"-inflight", "0"}, "-inflight"},
		{"serve with all", []string{"-serve", "-sched", "all"}, "-sched all"},
		{"serve with array", []string{"-serve", "-array", "5"}, "-array"},
		{"serve with cluster", []string{"-serve", "-cluster", "4"}, "-cluster"},
		{"serve with fault rate", []string{"-serve", "-fault-rate", "0.1"}, "fault injection"},
		{"serve with shadow", []string{"-serve", "-shadow", "fcfs"}, "-shadow"},
		{"serve with decision trace", []string{"-serve", "-decision-trace", "-"}, "-decision-trace"},
		{"serve with telemetry", []string{"-serve", "-telemetry", "-"}, "-telemetry"},
		{"serve with dispatch trace", []string{"-serve", "-dispatch-trace", "-"}, "-dispatch-trace"},
		{"replay with spec", []string{"-replay", "run.jsonl", "-spec", "mixed"}, "mutually exclusive"},
		{"replay missing file", []string{"-replay", filepath.Join(t.TempDir(), "none.jsonl")}, "-replay: workload: opening replay trace"},
		{"unknown spec", []string{"-spec", "tsunami"}, "-spec: workload: unknown scenario"},
		{"spec zero requests", []string{"-spec", "flash", "-requests", "0"}, "-spec: workload: scenario \"flash\" needs at least 4 requests"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(*parse(t, tc.args...))
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%v) = %q, want substring %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// An unknown policy name is a flag error, caught before the disk model or
// the trace is built, and the message lists every name build knows.
func TestValidateRejectsUnknownSchedulers(t *testing.T) {
	known := "(known: cascaded, " + strings.Join(sched.PolicyNames(), ", ") + ")"
	for _, args := range [][]string{{"-sched", "bogus"}, {"-serve", "-sched", "bogus"}, {"-shadow", "scan-edf, bogus"}} {
		want := args[len(args)-2] + `: unknown scheduler "bogus" ` + known
		if err := parse(t, args...).validate(); err == nil || err.Error() != want {
			t.Errorf("validate(%v) = %v, want %s", args, err, want)
		}
	}
}

func TestValidateAcceptsGoodFlagCombinations(t *testing.T) {
	cases := [][]string{
		nil, // all defaults
		{"-sched", "all", "-fault-rate", "0.05", "-retries", "0"},
		{"-array", "5", "-fail-disk", "4", "-rebuild", "-write-frac", "1"},
		{"-fault-rate", "1", "-retry-base", "0"},
		// Trace replay skips the workload-shape checks entirely.
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
		{"-shadow", " cascaded,kamel, "},
	}
	for _, args := range cases {
		if err := parse(t, args...).validate(); err != nil {
			t.Errorf("validate(%v) = %v, want nil", args, err)
		}
	}
}

func TestFaultPlanTranslation(t *testing.T) {
	if plan := parse(t).faultPlan(); !plan.Zero() {
		t.Fatalf("default flags armed a fault source: %+v", plan)
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
