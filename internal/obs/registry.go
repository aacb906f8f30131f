package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

// Registry is a named collection of metrics with snapshot exporters.
// Registration is cheap but takes a lock; do it at construction time, not
// on hot paths. Reading (WritePrometheus, Snapshot) may run concurrently
// with metric writers.
type Registry struct {
	mu   sync.RWMutex
	vars map[string]metricVar
}

// metricVar is one registered metric with its help string.
type metricVar struct {
	help string
	v    any // *Counter, *Gauge, *MaxGauge or *Histogram
}

// metricName constrains registered names to the Prometheus charset.
var metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{vars: make(map[string]metricVar)}
}

// Register adds metric v under name. v must be a *Counter, *Gauge,
// *MaxGauge or *Histogram. Registering a duplicate or malformed name, or
// an unsupported type, is an error.
func (r *Registry) Register(name, help string, v any) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("obs: invalid metric name %q", name)
	}
	switch v.(type) {
	case *Counter, *Gauge, *MaxGauge, *Histogram:
	default:
		return fmt.Errorf("obs: unsupported metric type %T for %q", v, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.vars[name]; dup {
		return fmt.Errorf("obs: duplicate metric %q", name)
	}
	r.vars[name] = metricVar{help: help, v: v}
	return nil
}

// Entry is one row of a metric set's registration table: the metric's
// name below the set's prefix, its help string, and the metric.
type Entry struct {
	Name, Help string
	V          any
}

// RegisterAll registers every entry under prefix_Name, stopping at the
// first error. It is the loop behind each package's Metrics.Register.
func (r *Registry) RegisterAll(prefix string, entries []Entry) error {
	for _, e := range entries {
		if err := r.Register(prefix+"_"+e.Name, e.Help, e.V); err != nil {
			return err
		}
	}
	return nil
}

// names returns the registered names in sorted order.
func (r *Registry) names() []string {
	ns := make([]string, 0, len(r.vars))
	for n := range r.vars {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4). Counters gain the conventional _total
// suffix; histograms emit cumulative _bucket/_sum/_count series with
// power-of-two le bounds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.names() {
		mv := r.vars[name]
		if err := writeProm(w, name, mv); err != nil {
			return err
		}
	}
	return nil
}

// promQuantiles is the fixed quantile set exported for every histogram:
// the operational p50/p95/p99 trio.
var promQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.95", 0.95},
	{"0.99", 0.99},
}

func writeProm(w io.Writer, name string, mv metricVar) error {
	var err error
	header := func(n, typ string) {
		if err != nil {
			return
		}
		if mv.help != "" {
			_, err = fmt.Fprintf(w, "# HELP %s %s\n", n, mv.help)
		}
		if err == nil {
			_, err = fmt.Fprintf(w, "# TYPE %s %s\n", n, typ)
		}
	}
	switch v := mv.v.(type) {
	case *Counter:
		n := name + "_total"
		header(n, "counter")
		if err == nil {
			_, err = fmt.Fprintf(w, "%s %d\n", n, v.Load())
		}
	case *Gauge:
		header(name, "gauge")
		if err == nil {
			_, err = fmt.Fprintf(w, "%s %d\n", name, v.Load())
		}
	case *MaxGauge:
		header(name, "gauge")
		if err == nil {
			_, err = fmt.Fprintf(w, "%s %d\n", name, v.Load())
		}
	case *Histogram:
		header(name, "histogram")
		if err != nil {
			return err
		}
		s := v.Snapshot()
		var cum uint64
		for k, c := range s {
			cum += c
			if c == 0 && k != histBuckets-1 {
				continue // sparse: only non-empty buckets, plus +Inf
			}
			le := strconv.FormatUint(BucketBound(k), 10)
			if k == histBuckets-1 {
				le = "+Inf"
			}
			if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		if _, err = fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, v.Sum(), name, v.Count()); err != nil {
			return err
		}
		// Quantile estimates from the same snapshot, as a sibling gauge
		// family (mixing summary-style quantile lines into a histogram
		// family would be invalid exposition format).
		if _, err = fmt.Fprintf(w, "# TYPE %s_quantile gauge\n", name); err != nil {
			return err
		}
		for _, q := range promQuantiles {
			if _, err = fmt.Fprintf(w, "%s_quantile{quantile=%q} %d\n", name, q.label, quantileOf(&s, q.q)); err != nil {
				return err
			}
		}
	}
	return err
}

// Handler returns an http.Handler serving WritePrometheus — mount it at
// /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Snapshot returns the current value of every metric as a plain map:
// counters and gauges as integers, histograms as {count, sum, mean, p50,
// p95, p99}.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.vars))
	for name, mv := range r.vars {
		switch v := mv.v.(type) {
		case *Counter:
			out[name] = v.Load()
		case *Gauge:
			out[name] = v.Load()
		case *MaxGauge:
			out[name] = v.Load()
		case *Histogram:
			qs := v.Quantiles(0.50, 0.95, 0.99)
			out[name] = map[string]any{
				"count": v.Count(),
				"sum":   v.Sum(),
				"mean":  v.Mean(),
				"p50":   qs[0],
				"p95":   qs[1],
				"p99":   qs[2],
			}
		}
	}
	return out
}

// PublishExpvar publishes the registry's Snapshot under the given expvar
// name, so /debug/vars includes it. Panics (from expvar) if the name is
// already published; call once per process per name.
func (r *Registry) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
