// Command schedbench regenerates the paper's tables and figures, and —
// with -serve — lifts the scheduler out of the simulator onto a
// real-clock serving path against an emulated disk.
//
// Usage:
//
//	schedbench -exp all                # run every experiment
//	schedbench -exp fig5               # one experiment
//	schedbench -exp fig10 -requests 8000 -seed 7
//	schedbench -serve -dilation 100 -serve-for 2s -http :9090
//
// Output is a text table per figure: the shared x-axis followed by one
// column per series, matching the series of the corresponding plot in the
// paper. EXPERIMENTS.md records the expected shapes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sfcsched/internal/experiments"
	"sfcsched/internal/obs"
)

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "schedbench: %v\n", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	if o.httpAddr != "" {
		ln, err := serveObs(o.httpAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "schedbench: observability on http://%s/metrics (pprof at /debug/pprof/)\n", ln.Addr())
		defer func() {
			fmt.Fprintf(os.Stderr, "schedbench: work done; serving http://%s until interrupted\n", ln.Addr())
			select {}
		}()
	}

	if o.serve {
		if err := runServe(os.Stdout, &o, reg); err != nil {
			fmt.Fprintf(os.Stderr, "schedbench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	ids := experiments.All()
	if o.exp != "all" {
		ids = strings.Split(o.exp, ",")
	}
	for _, id := range ids {
		if err := run(os.Stdout, strings.TrimSpace(id), &o); err != nil {
			fmt.Fprintf(os.Stderr, "schedbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// run executes one experiment with the flag overrides of o.
func run(out io.Writer, id string, o *options) error {
	p := experiments.Params{Seed: o.seed, Requests: o.requests, Workers: o.workers}
	return experiments.Run(out, id, p, o.asCSV)
}
