package main

import (
	"flag"
	"fmt"
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
	asCSV    bool
	workers  int
	httpAddr string

	// Serving layer: serve the workload live on the wall clock instead of
	// running experiments.
	serve    bool
	dilation float64
	serveFor time.Duration
}

// register binds every option to fs with its default.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.exp, "exp", "all", "experiment id: "+strings.Join(experiments.All(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.requests, "requests", 0, "override request count (0 = experiment default)")
	fs.BoolVar(&o.asCSV, "csv", false, "emit CSV instead of aligned tables")
	fs.IntVar(&o.workers, "workers", 0, "parallel simulation workers for sweep experiments (0 = GOMAXPROCS); output is identical for any value")
	fs.StringVar(&o.httpAddr, "http", "", "serve /metrics (Prometheus) and /debug/pprof/ on this address, and stay alive after the work finishes (e.g. :9090)")

	fs.BoolVar(&o.serve, "serve", false, "serve the generated workload live through the real-clock dispatcher (emulated disk) instead of running experiments")
	fs.Float64Var(&o.dilation, "dilation", 100, "serve: model seconds covered per wall-clock second")
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
	if o.serveFor < 0 {
		return fmt.Errorf("-serve-for must not be negative, got %v", o.serveFor)
	}
	if o.serveFor > 0 && !o.serve {
		return fmt.Errorf("-serve-for requires -serve")
	}
	return nil
}
