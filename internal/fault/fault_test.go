package fault

import (
	"math"
	"strings"
	"testing"

	"sfcsched/internal/core"
)

func newInjector(t *testing.T, plan Plan, cylinders int) *Injector {
	t.Helper()
	in, err := New(plan, cylinders)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPlanZero(t *testing.T) {
	var nilPlan *Plan
	cases := []struct {
		name string
		plan *Plan
		want bool
	}{
		{"nil plan", nilPlan, true},
		{"empty plan", &Plan{}, true},
		{"seed and retry policy only", &Plan{Seed: 7, MaxRetries: 5, RetryBase: 100}, true},
		{"transient rate", &Plan{TransientRate: 0.1}, false},
		{"disk failure", &Plan{FailDisk: 1, FailAt: 5}, false},
	}
	for _, tc := range cases {
		if got := tc.plan.Zero(); got != tc.want {
			t.Errorf("%s: Zero() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name    string
		plan    Plan
		wantErr string // empty = valid
	}{
		{"zero plan", Plan{}, ""},
		{"full valid plan", Plan{
			TransientRate: 0.5,
			FailDisk:      2, FailAt: 100,
			Rebuild: true, RebuildBlocks: 4, RebuildInterval: 50,
		}, ""},
		{"rate above one", Plan{TransientRate: 1.5}, "TransientRate"},
		{"rate negative", Plan{TransientRate: -0.1}, "TransientRate"},
		{"negative retry base", Plan{RetryBase: -1}, "RetryBase"},
		{"rate NaN", Plan{TransientRate: math.NaN()}, "TransientRate"},
		// Backoffs total RetryBase·(2^MaxRetries − 1) µs, defaults applied.
		{"default base, 62 retries", Plan{MaxRetries: 62}, "RetryBase of 5000"},
		{"backoff one past int64", Plan{MaxRetries: 62, RetryBase: 3}, "62 retries"},
		{"backoff filling int64", Plan{MaxRetries: 62, RetryBase: 2}, ""},
		{"63 unit backoffs", Plan{MaxRetries: 63, RetryBase: 1}, ""},
		{"64 retries", Plan{MaxRetries: 64, RetryBase: 1}, "64 retries"},
		{"no retries, any base", Plan{MaxRetries: -1, RetryBase: math.MaxInt64}, ""},
		{"negative fail time", Plan{FailAt: -1}, "FailAt"},
		{"fail time without disk", Plan{FailDisk: -1, FailAt: 10}, "FailDisk"},
		{"rebuild without failure", Plan{Rebuild: true, RebuildBlocks: 4}, "Rebuild"},
		{"rebuild without blocks", Plan{Rebuild: true, FailDisk: 0, FailAt: 10}, "RebuildBlocks"},
		{"negative rebuild interval", Plan{RebuildInterval: -1}, "RebuildInterval"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestNewAppliesDefaults(t *testing.T) {
	in := newInjector(t, Plan{TransientRate: 0.1}, 100)
	if p := in.plan; p.MaxRetries != DefaultMaxRetries || p.RetryBase != DefaultRetryBase {
		t.Errorf("defaults not applied: MaxRetries=%d RetryBase=%d", p.MaxRetries, p.RetryBase)
	}
	// Negative MaxRetries means "no retries at all".
	in = newInjector(t, Plan{TransientRate: 1, MaxRetries: -1}, 100)
	if got := in.plan.MaxRetries; got != 0 {
		t.Errorf("MaxRetries -1 normalized to %d, want 0", got)
	}
	r := &core.Request{ID: 1}
	if v, _ := in.Outcome(0, 10, r, 0); v != Exhausted {
		t.Errorf("no-retry plan ruled %v on a guaranteed fault, want Exhausted", v)
	}
	if _, err := New(Plan{TransientRate: 2}, 100); err == nil {
		t.Error("New accepted an invalid plan")
	}
}

func TestBackoffDoublesPerAttempt(t *testing.T) {
	in := newInjector(t, Plan{TransientRate: 1, MaxRetries: 4, RetryBase: 1_000}, 100)
	r := &core.Request{ID: 1}
	want := []int64{1_000, 2_000, 4_000, 8_000}
	for i, w := range want {
		v, delay := in.Outcome(0, 10, r, int64(i))
		if v != Retry || delay != w {
			t.Fatalf("attempt %d: (%v, %d), want (Retry, %d)", i+1, v, delay, w)
		}
		if !in.Attempted(r) {
			t.Fatalf("attempt %d: Attempted(r) = false mid-retry", i+1)
		}
	}
	if v, _ := in.Outcome(0, 10, r, 99); v != Exhausted {
		t.Fatalf("attempt %d did not exhaust", len(want)+1)
	}
	if in.Attempted(r) {
		t.Error("Attempted(r) still true after exhaustion")
	}
	s := in.Stats()
	if s.Transients != 5 || s.Retries != 4 || s.Exhausted != 1 {
		t.Errorf("stats = %+v, want 5 transients, 4 retries, 1 exhausted", s)
	}
}

func TestOKClearsAttempts(t *testing.T) {
	// Seed 3's first two draws are 0.13 and 0.72: one fault, then none.
	in := newInjector(t, Plan{Seed: 3, TransientRate: 0.5}, 100)
	r := &core.Request{ID: 1}
	if v, _ := in.Outcome(0, 10, r, 5); v != Retry {
		t.Fatal("first completion did not fault")
	}
	if v, _ := in.Outcome(0, 10, r, 6); v != OK {
		t.Fatal("second completion not OK")
	}
	if in.Attempted(r) {
		t.Error("attempt bookkeeping survived an OK completion")
	}
}

func TestDiskFailureLifecycle(t *testing.T) {
	in := newInjector(t, Plan{FailDisk: 2, FailAt: 1_000}, 100)
	if in.Down(2) {
		t.Fatal("disk down before FailNow")
	}
	if _, ok := in.DownDisk(); ok {
		t.Fatal("DownDisk reported a failure before FailNow")
	}
	in.FailNow(1_000)
	if !in.Down(2) || in.Down(1) {
		t.Fatal("Down() wrong after FailNow")
	}
	if d, ok := in.DownDisk(); !ok || d != 2 {
		t.Fatalf("DownDisk = (%d, %v), want (2, true)", d, ok)
	}
	// In-flight completions on the dead disk are lost and forgotten.
	r := &core.Request{ID: 1}
	if v, _ := in.Outcome(2, 10, r, 1_100); v != Lost {
		t.Fatal("completion on the dead disk not ruled Lost")
	}
	if in.Attempted(r) {
		t.Error("lost request kept attempt bookkeeping")
	}
	// Survivors keep serving.
	if v, _ := in.Outcome(1, 10, r, 1_200); v != OK {
		t.Fatal("survivor completion not OK")
	}
	in.MarkRebuilt(5_000)
	if in.Down(2) {
		t.Fatal("disk still down after MarkRebuilt")
	}
	s := in.Stats()
	if s.FailedAt != 1_000 || s.RebuiltAt != 5_000 || s.LostInFlight != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// The degraded window, failure to rebuild completion, is reported through
// the degraded_window_us gauge once the rebuild completes.
func TestDegradedWindow(t *testing.T) {
	in := newInjector(t, Plan{FailDisk: 1, FailAt: 2_000, Rebuild: true, RebuildBlocks: 10, Metrics: &Metrics{}}, 100)
	in.FailNow(2_000)
	if got := in.Metrics().DegradedWindowUs.Load(); got != 0 {
		t.Errorf("degraded window %d before the rebuild completed, want 0", got)
	}
	in.MarkRebuilt(7_000)
	if got := in.Metrics().DegradedWindowUs.Load(); got != 5_000 {
		t.Errorf("degraded window %d, want 5000", got)
	}
}

func TestProbabilisticTransientsDeterministic(t *testing.T) {
	run := func() []Verdict {
		in := newInjector(t, Plan{Seed: 42, TransientRate: 0.3, MaxRetries: 1}, 100)
		var out []Verdict
		for i := 0; i < 200; i++ {
			r := &core.Request{ID: uint64(i)}
			v, _ := in.Outcome(0, i%100, r, int64(i))
			out = append(out, v)
		}
		return out
	}
	a, b := run(), run()
	var faults int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged between identical injectors: %v vs %v", i, a[i], b[i])
		}
		if a[i] != OK {
			faults++
		}
	}
	// With rate 0.3 over 200 draws, some but not all must fault.
	if faults == 0 || faults == len(a) {
		t.Errorf("implausible fault count %d/200 at rate 0.3", faults)
	}
}

func TestForgetDropsBookkeeping(t *testing.T) {
	in := newInjector(t, Plan{TransientRate: 1, MaxRetries: 3}, 100)
	r := &core.Request{ID: 1}
	if v, _ := in.Outcome(0, 10, r, 0); v != Retry {
		t.Fatal("guaranteed fault did not retry")
	}
	in.Forget(r)
	if in.Attempted(r) {
		t.Error("Attempted(r) true after Forget")
	}
}
