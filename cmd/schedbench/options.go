package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sfcsched/internal/experiments"
)

// options collects every schedbench flag so the flag surface can be
// validated (and unit-tested) before any experiment or serving work
// starts — the same pattern as cmd/schedsim.
type options struct {
	exp      string
	seed     uint64
	requests int
	users    string
	asCSV    bool
	workers  int
	httpAddr string

	// Serving layer (PR 9): serve the workload live on the wall clock
	// instead of running experiments, and the calibrate sweep override.
	serve     bool
	dilation  float64
	inflight  int
	serveFor  time.Duration
	dilations string
}

// register binds every option to fs with its default.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.exp, "exp", "all", "experiment id: "+strings.Join(experiments.All(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.requests, "requests", 0, "override request count (0 = experiment default)")
	fs.StringVar(&o.users, "users", "", "fig11 only: comma-separated user counts")
	fs.BoolVar(&o.asCSV, "csv", false, "emit CSV instead of aligned tables")
	fs.IntVar(&o.workers, "workers", 0, "parallel simulation workers for sweep experiments (0 = GOMAXPROCS); output is identical for any value")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics (Prometheus), /debug/vars (expvar) and /debug/pprof/ on this address, and stay alive after the work finishes (e.g. :9090)")

	fs.BoolVar(&o.serve, "serve", false, "serve the generated workload live through the real-clock dispatcher (emulated disk) instead of running experiments")
	fs.Float64Var(&o.dilation, "dilation", 100, "serve: model seconds covered per wall-clock second")
	fs.IntVar(&o.inflight, "inflight", 1, "serve: concurrent backend services (1 = single-arm semantics)")
	fs.DurationVar(&o.serveFor, "serve-for", 0, "serve: repeat the workload until this wall-clock duration elapses (0 = one pass)")
	fs.StringVar(&o.dilations, "dilations", "", "calibrate experiment: comma-separated dilation-factor sweep override (e.g. 10,50,250)")
}

// validate rejects inconsistent flag combinations with a specific error
// before any work begins.
func (o *options) validate() error {
	if o.requests < 0 {
		return fmt.Errorf("-requests must not be negative, got %d", o.requests)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must not be negative, got %d", o.workers)
	}
	if o.serve && o.exp != "all" {
		return fmt.Errorf("-serve and -exp are mutually exclusive: serving replaces the experiment run")
	}
	if !(o.dilation > 0) {
		return fmt.Errorf("-dilation must be positive, got %v", o.dilation)
	}
	if o.inflight < 1 {
		return fmt.Errorf("-inflight must be at least 1, got %d", o.inflight)
	}
	if o.serveFor < 0 {
		return fmt.Errorf("-serve-for must not be negative, got %v", o.serveFor)
	}
	if o.serveFor > 0 && !o.serve {
		return fmt.Errorf("-serve-for requires -serve")
	}
	if o.dilations != "" {
		if o.serve {
			return fmt.Errorf("-dilations drives the calibrate experiment, not -serve (use -dilation)")
		}
		if _, err := o.parseDilations(); err != nil {
			return err
		}
	}
	return nil
}

// parseUsers parses the -users list; empty means "use the experiment
// default".
func (o *options) parseUsers() ([]int, error) {
	if o.users == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(o.users, ",") {
		var u int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &u); err != nil {
			return nil, fmt.Errorf("bad user count %q: %v", f, err)
		}
		out = append(out, u)
	}
	return out, nil
}

// parseDilations parses the -dilations sweep list; empty means "use the
// experiment default".
func (o *options) parseDilations() ([]float64, error) {
	if o.dilations == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(o.dilations, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -dilations entry %q: %v", f, err)
		}
		if !(v > 0) {
			return nil, fmt.Errorf("-dilations entries must be positive, got %v", v)
		}
		out = append(out, v)
	}
	return out, nil
}
