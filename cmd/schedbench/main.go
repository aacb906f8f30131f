// Command schedbench regenerates the paper's tables and figures, and —
// with -serve — lifts the scheduler out of the simulator onto a
// real-clock serving path against an emulated disk.
//
// Usage:
//
//	schedbench -exp all                # run every experiment
//	schedbench -exp fig5               # one experiment
//	schedbench -exp fig10 -requests 8000 -seed 7
//	schedbench -exp calibrate -dilations 10,50,250
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
)

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "schedbench: %v\n", err)
		os.Exit(2)
	}

	if o.httpAddr != "" {
		ln, err := serveObs(o.httpAddr)
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
		if err := runServe(os.Stdout, &o); err != nil {
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

func run(out io.Writer, id string, o *options) error {
	render := func(r *experiments.Result) {
		if o.asCSV {
			r.RenderCSV(out)
		} else {
			r.Render(out)
		}
	}
	switch id {
	case "table1":
		return experiments.Table1(out)
	case "ablations":
		return experiments.Ablations(out, o.seed, o.workers)
	case "fig5":
		cfg := experiments.DefaultSFC1Config()
		cfg.Seed = o.seed
		cfg.Workers = o.workers
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		res, err := experiments.Fig5(cfg, nil)
		if err != nil {
			return err
		}
		render(res)
	case "fig6":
		cfg := experiments.DefaultSFC1Config()
		cfg.Seed = o.seed
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		res, err := experiments.Fig6(cfg, nil, 0.05)
		if err != nil {
			return err
		}
		render(res)
	case "fig7":
		cfg := experiments.DefaultSFC1Config()
		cfg.Seed = o.seed
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		a, b, err := experiments.Fig7(cfg, nil)
		if err != nil {
			return err
		}
		render(a)
		render(b)
	case "fig8":
		cfg := experiments.DefaultSFC2Config()
		cfg.Seed = o.seed
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		a, b, err := experiments.Fig8(cfg, nil)
		if err != nil {
			return err
		}
		render(a)
		render(b)
	case "fig9":
		cfg := experiments.DefaultSFC2Config()
		cfg.Seed = o.seed
		cfg.Service = 26_000 // overload so every scheduler must sacrifice
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		rs, err := experiments.Fig9(cfg, 1)
		if err != nil {
			return err
		}
		for _, r := range rs {
			render(r)
		}
	case "fig10":
		cfg := experiments.DefaultSFC3Config()
		cfg.Seed = o.seed
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		a, b, c, err := experiments.Fig10(cfg, nil)
		if err != nil {
			return err
		}
		render(a)
		render(b)
		render(c)
	case "faultsweep":
		cfg := experiments.DefaultFaultSweepConfig()
		cfg.Seed = o.seed
		cfg.Workers = o.workers
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		a, b, err := experiments.FaultSweep(cfg)
		if err != nil {
			return err
		}
		render(a)
		render(b)
	case "divergence":
		cfg := experiments.DefaultDivergenceConfig()
		cfg.Seed = o.seed
		cfg.Workers = o.workers
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		a, b, err := experiments.Divergence(cfg)
		if err != nil {
			return err
		}
		render(a)
		render(b)
	case "cluster":
		cfg := experiments.DefaultClusterConfig()
		cfg.Seed = o.seed
		cfg.Workers = o.workers
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		a, b, c, err := experiments.Cluster(cfg)
		if err != nil {
			return err
		}
		render(a)
		render(b)
		render(c)
	case "replaydiff":
		cfg := experiments.DefaultReplayDiffConfig()
		cfg.Seed = o.seed
		cfg.Workers = o.workers
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		a, b, err := experiments.ReplayDiff(cfg)
		if err != nil {
			return err
		}
		render(a)
		render(b)
	case "calibrate":
		cfg := experiments.DefaultCalibrateConfig()
		cfg.Seed = o.seed
		if o.requests > 0 {
			cfg.Requests = o.requests
		}
		if dils, err := o.parseDilations(); err != nil {
			return err
		} else if len(dils) > 0 {
			cfg.Dilations = dils
		}
		res, err := experiments.Calibrate(cfg)
		if err != nil {
			return err
		}
		render(res)
	case "fig11", "fig11raid":
		cfg := experiments.DefaultFig11Config()
		cfg.Seed = o.seed
		cfg.Workers = o.workers
		if o.users != "" {
			cfg.Users = nil
			for _, f := range strings.Split(o.users, ",") {
				var u int
				if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &u); err != nil {
					return fmt.Errorf("bad user count %q: %v", f, err)
				}
				cfg.Users = append(cfg.Users, u)
			}
		}
		runner := experiments.Fig11
		if id == "fig11raid" {
			runner = experiments.Fig11RAID
		}
		res, err := runner(cfg)
		if err != nil {
			return err
		}
		render(res)
	default:
		return fmt.Errorf("unknown experiment (known: %s, ablations)", strings.Join(experiments.All(), ", "))
	}
	return nil
}
