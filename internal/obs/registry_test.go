package obs

import (
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("ok_name", "", &Counter{}); err != nil {
		t.Fatalf("valid register failed: %v", err)
	}
	if err := r.Register("ok_name", "", &Counter{}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := r.Register("bad name", "", &Counter{}); err == nil {
		t.Error("malformed name accepted")
	}
	if err := r.Register("bad_type", "", 42); err == nil {
		t.Error("unsupported type accepted")
	}
	// RegisterAll prefixes every row and stops at the first bad one.
	err := r.RegisterAll("set", []Entry{
		{Name: "a", Help: "first", V: &Counter{}},
		{Name: "bad name", V: &Counter{}},
		{Name: "never", V: &Counter{}},
	})
	if err == nil || !strings.Contains(err.Error(), "set_bad name") {
		t.Errorf("RegisterAll error = %v, want the malformed set_bad name", err)
	}
	if names := strings.Join(r.names(), " "); names != "ok_name set_a" {
		t.Errorf("registered names = %q, want ok_name set_a", names)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(7)
	var g Gauge
	g.Set(-2)
	var m MaxGauge
	m.Observe(31)
	var h Histogram
	h.Observe(0)
	h.Observe(5)
	h.Observe(5)
	mustRegister(t, r, "events", "number of events", &c)
	mustRegister(t, r, "depth", "current depth", &g)
	mustRegister(t, r, "depth_hiwater", "", &m)
	mustRegister(t, r, "wait_us", "dispatch wait", &h)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP events_total number of events",
		"# TYPE events_total counter",
		"events_total 7",
		"# TYPE depth gauge",
		"depth -2",
		"depth_hiwater 31",
		"# TYPE wait_us histogram",
		`wait_us_bucket{le="0"} 1`,
		`wait_us_bucket{le="7"} 3`, // cumulative: bucket 3 covers [4,8)
		`wait_us_bucket{le="+Inf"} 3`,
		"wait_us_sum 10",
		"wait_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(3)
	var h Histogram
	h.Observe(9)
	mustRegister(t, r, "c", "", &c)
	mustRegister(t, r, "h", "", &h)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "c_total 3") {
		t.Errorf("handler body missing counter:\n%s", rec.Body.String())
	}

	// Snapshot must be JSON-serializable (it backs the expvar export).
	snap := r.Snapshot()
	bs, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
	var back map[string]any
	if err := json.Unmarshal(bs, &back); err != nil {
		t.Fatal(err)
	}
	if back["c"].(float64) != 3 {
		t.Errorf("snapshot counter = %v", back["c"])
	}
	hm := back["h"].(map[string]any)
	if hm["count"].(float64) != 1 || hm["sum"].(float64) != 9 {
		t.Errorf("snapshot histogram = %v", hm)
	}
}

// A histogram's _count must equal its le="+Inf" bucket in every scrape,
// also while writers observe: the exposition format requires it, so both
// have to come from one snapshot of the buckets.
func TestScrapeCountMatchesInfBucket(t *testing.T) {
	r := NewRegistry()
	var h Histogram
	mustRegister(t, r, "wait_us", "", &h)
	inf := regexp.MustCompile(`wait_us_bucket\{le="\+Inf"\} (\d+)\n`)
	count := regexp.MustCompile(`wait_us_count (\d+)\n`)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint64(w); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				for range 64 {
					h.Observe(v & 1023)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	var b strings.Builder
	for i := range 500 {
		b.Reset()
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		bucket, total := inf.FindStringSubmatch(out), count.FindStringSubmatch(out)
		if bucket == nil || total == nil {
			t.Fatalf("scrape %d lacks the +Inf bucket or the count:\n%s", i, out)
		}
		if bucket[1] != total[1] {
			t.Fatalf("scrape %d: wait_us_count %s, le=\"+Inf\" bucket %s", i, total[1], bucket[1])
		}
	}
}

func mustRegister(t *testing.T, r *Registry, name, help string, v any) {
	t.Helper()
	if err := r.Register(name, help, v); err != nil {
		t.Fatal(err)
	}
}
