// Command bench is the repository's benchmark: five workloads, seven
// end-to-end metrics, a per-layer cost ledger and a traced run. README.md
// in this directory names every workload and metric and says how to run it.
//
//	go run ./bench                      # full set: three passes, every workload
//	go run ./bench -repeat 2            # two sets back to back, then compared
//	go run ./bench -compare a.json b.json
//	go run ./bench -workload sim-single -trace 0 -seed 1 -seconds 15
//
// The last form is the acceptance driver's: one workload, one pass family,
// and a single JSON object on the last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int    // -1 unset, 0 measured pass, 1 traced + layer passes
	pass     string // one pass in this process; how parents run children
	compare  bool
	repeat   int
	outDir   string
}

func parseFlags(args []string, stderr io.Writer) (*options, []string, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+fmt.Sprint(workloadNames)+" (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; 1 for development, 2 is held out")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long one measured pass measures; a traced pass takes about a quarter")
	fs.IntVar(&o.trace, "trace", -1, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics, as one JSON line")
	fs.StringVar(&o.pass, "pass", "", "run a single pass in this process: measured, traced (both need -workload) or layer")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	fs.IntVar(&o.repeat, "repeat", 1, "run the full set this many times and compare consecutive sets")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for result files and aggregated traces")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	switch {
	case o.compare && fs.NArg() != 2:
		return nil, nil, errors.New("-compare needs exactly two result files")
	case !o.compare && fs.NArg() != 0:
		return nil, nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	case o.seconds < 0 || o.repeat < 1:
		return nil, nil, errors.New("-seconds must be non-negative and -repeat at least 1")
	case o.trace < -1 || o.trace > 1:
		return nil, nil, errors.New("-trace is 0 or 1")
	case o.trace >= 0 && o.pass != "":
		return nil, nil, errors.New("-trace and -pass are mutually exclusive")
	case o.pass != "" && !slices.Contains([]string{"measured", "traced", layerPass}, o.pass):
		return nil, nil, fmt.Errorf("unknown pass %q", o.pass)
	case o.workload != "" && !slices.Contains(workloadNames, o.workload):
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	case o.workload == "" && (o.trace >= 0 || o.pass == "measured" || o.pass == "traced"):
		return nil, nil, errors.New("-trace and -pass measured|traced need -workload")
	}
	return o, fs.Args(), nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, rest, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var ok bool
	switch {
	case o.compare:
		ok, err = compareFiles(stdout, rest[0], rest[1])
	case o.pass != "":
		ok, err = runOnePass(o, stdout)
	case o.trace >= 0:
		ok, err = runDriver(o, stdout, stderr)
	default:
		ok, err = runSets(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnePass runs one pass in this process and prints its full result as
// one JSON line: the interface between a parent run and its children.
func runOnePass(o *options, stdout io.Writer) (bool, error) {
	p := params{seed: o.seed, scale: 1}
	var res *result
	var err error
	switch o.pass {
	case "measured":
		res, err = measuredPass(o.workload, p, o.seconds)
	case "traced":
		res, err = tracedPass(o.workload, p, o.seconds, o.outDir)
	default:
		res, err = layerPassRun(p)
	}
	if err != nil {
		return false, err
	}
	return res.Correct, json.NewEncoder(stdout).Encode(res)
}

// child runs one pass in a process of its own, so that peak memory and
// garbage-collector state cannot leak from one workload into the next.
func child(o *options, pass, workload string, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	args := []string{"-pass", pass, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir}
	if workload != "" {
		args = append(args, "-workload", workload)
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run() // waits for the child to exit
	res := &result{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s pass of %q: %w", pass, workload, runErr)
		}
		return nil, fmt.Errorf("%s pass of %q: decoding its result: %w", pass, workload, err)
	}
	return res, nil // a failed check exits 1 but still reports
}

// driverLine is the acceptance contract's output: exactly these keys, each
// metric exactly a value and a unit (a metric's other fields are left zero
// and therefore omitted).
type driverLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runDriver serves the acceptance driver. -trace 0 runs the workload's
// measured pass in this process (which is already the workload's own) and
// prints every end-to-end metric. -trace 1 prints every per-layer metric:
// the layer pass plus the traced pass of every workload, each in a child
// process, because the ledger's traced entries come from different
// workloads and the contract wants all of them on every run.
func runDriver(o *options, stdout, stderr io.Writer) (bool, error) {
	line := driverLine{Correct: true, Metrics: metricSet{}}
	var want []string
	take := func(res *result) {
		printResult(stderr, res)
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for name, m := range res.Metrics {
			line.Metrics.set(name, m.Value, m.Unit)
		}
	}
	if o.trace == 0 {
		res, err := measuredPass(o.workload, params{seed: o.seed, scale: 1}, o.seconds)
		if err != nil {
			return false, err
		}
		take(res)
		want = endToEndNames()
	} else {
		for _, w := range workloadNames {
			res, err := child(o, "traced", w, stderr)
			if err != nil {
				return false, err
			}
			take(res)
		}
		res, err := child(o, layerPass, "", stderr)
		if err != nil {
			return false, err
		}
		take(res)
		for _, p := range perLayerMetrics {
			want = append(want, p.Name)
		}
	}
	if len(line.Metrics) != len(want) || len(line.Metrics.missing(want)) > 0 {
		return false, fmt.Errorf("produced %d metrics, the contract names %d", len(line.Metrics), len(want))
	}
	return line.Correct, json.NewEncoder(stdout).Encode(line)
}

// printResult writes one pass's metrics for a human reader.
func printResult(w io.Writer, res *result) {
	title := res.Pass + " pass"
	if res.Workload != "" {
		title = res.Workload + ": " + title
	}
	fmt.Fprintf(w, "== %s  ops_attempted=%d ops_failed=%d\n", title, res.Attempted, res.Failed)
	for _, name := range res.Metrics.names() {
		m := res.Metrics[name]
		fmt.Fprintf(w, "   %-40s %14s %-6s", name, formatValue(m.Value), m.Unit)
		switch {
		case m.Q1 != 0 || m.Q3 != 0:
			fmt.Fprintf(w, " n=%d q1=%s q3=%s", m.Samples, formatValue(m.Q1), formatValue(m.Q3))
		case m.Samples > 0:
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "   note:", n)
	}
}
