package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sfcsched/internal/experiments"
	"sfcsched/internal/serve"
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

	// Serving layer: serve the workload live on the wall clock instead of
	// running experiments.
	serve    bool
	dilation float64
	inflight int
	serveFor time.Duration
}

// register binds every option to fs with its default.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.exp, "exp", "all", "experiment id: "+strings.Join(experiments.All(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.requests, "requests", 0, "override request count (0 = experiment default)")
	fs.StringVar(&o.users, "users", "", "fig11 and fig11raid only: comma-separated user counts")
	fs.BoolVar(&o.asCSV, "csv", false, "emit CSV instead of aligned tables")
	fs.IntVar(&o.workers, "workers", 0, "parallel simulation workers for sweep experiments (0 = GOMAXPROCS); output is identical for any value")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics (Prometheus) and /debug/pprof/ on this address, and stay alive after the work finishes (e.g. :9090)")

	fs.BoolVar(&o.serve, "serve", false, "serve the generated workload live through the real-clock dispatcher (emulated disk) instead of running experiments")
	fs.Float64Var(&o.dilation, "dilation", 100, "serve: model seconds covered per wall-clock second")
	fs.IntVar(&o.inflight, "inflight", 1, "serve: concurrent backend services (1 = single-arm semantics)")
	fs.DurationVar(&o.serveFor, "serve-for", 0, "serve: repeat the workload until this wall-clock duration elapses (0 = one pass)")
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
	if _, err := serve.NewClock(o.dilation); err != nil {
		return fmt.Errorf("-dilation: %w", err)
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
	if _, err := o.parseUsers(); err != nil {
		return fmt.Errorf("-users: %w", err)
	}
	if o.users != "" && (o.serve || !o.sweepsUsers()) {
		return fmt.Errorf("-users sets the fig11 and fig11raid stream counts: -exp must name one of them or be all, without -serve")
	}
	return nil
}

// sweepsUsers reports whether -exp runs a row that reads -users: fig11,
// fig11raid, or every row.
func (o *options) sweepsUsers() bool {
	if o.exp == "all" {
		return true
	}
	for _, id := range strings.Split(o.exp, ",") {
		if id = strings.TrimSpace(id); id == "fig11" || id == "fig11raid" {
			return true
		}
	}
	return false
}

// parseUsers parses the -users list; empty means "use the experiment
// default".
func (o *options) parseUsers() ([]int, error) {
	if o.users == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(o.users, ",") {
		u, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || u < 1 {
			return nil, fmt.Errorf("user count %q is not a positive integer", f)
		}
		out = append(out, u)
	}
	return out, nil
}
