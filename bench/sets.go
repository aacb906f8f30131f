package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// resultFile is one full set of runs as written to the output directory:
// machine-written, never edited, stamped with what it ran on.
type resultFile struct {
	Stamp stamp `json:"stamp"`
	// Workloads has one object per workload, plus layerPass for the layer
	// pass, which belongs to no workload.
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	OpsAttempted int64     `json:"ops_attempted"`
	OpsFailed    int64     `json:"ops_failed"`
	Metrics      metricSet `json:"metrics"`
}

type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	Time       string  `json:"time"`
}

func newStamp(o *options) stamp {
	return stamp{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		CPU: cpuModel(), Seed: o.seed, Seconds: o.seconds, Commit: commit(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit asks plain git for the checked-out commit; a tree that is not a
// repository (the acceptance driver's checkout) is stamped "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSets runs the full set -repeat times: the measured and traced pass of
// every workload and the layer pass, each in a child process. Every set is
// written to the output directory; consecutive sets are compared, and the
// command fails when they disagree by more than the benchmark's own bounds.
func runSets(o *options, stdout, stderr io.Writer) (bool, error) {
	ok := true
	var prev *resultFile
	for set := 1; set <= o.repeat; set++ {
		rf, setOK, err := runSet(o, stdout, stderr)
		if err != nil {
			return false, err
		}
		ok = ok && setOK
		path := filepath.Join(o.outDir, fmt.Sprintf("result-seed%d-set%d.json", o.seed, set))
		if err := writeResultFile(path, rf); err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
		if prev != nil {
			fmt.Fprintf(stdout, "\n== set %d against set %d\n", set, set-1)
			ok = compareResults(stdout, prev, rf, true) && ok
		}
		prev = rf
	}
	return ok, nil
}

func runSet(o *options, stdout, stderr io.Writer) (*resultFile, bool, error) {
	rf := &resultFile{Stamp: newStamp(o), Workloads: map[string]*workloadResult{}}
	ok := true
	take := func(key string, res *result) {
		printResult(stdout, res)
		wr := rf.Workloads[key]
		if wr == nil {
			wr = &workloadResult{Metrics: metricSet{}}
			rf.Workloads[key] = wr
		}
		wr.OpsAttempted += res.Attempted
		wr.OpsFailed += res.Failed
		wr.Metrics.merge(res.Metrics)
		ok = ok && res.Correct
	}
	for _, w := range workloadNames {
		measured, err := child(o, "measured", w, stderr)
		if err != nil {
			return nil, false, err
		}
		take(w, measured)
		traced, err := child(o, "traced", w, stderr)
		if err != nil {
			return nil, false, err
		}
		// The decorated pass, in another process, reproduced the digests.
		var c checks
		c.equalDigests(w+": traced pass against measured pass", measured.Digests, traced.Digests)
		traced.finish(&c)
		take(w, traced)
	}
	layer, err := child(o, layerPass, "", stderr)
	if err != nil {
		return nil, false, err
	}
	take(layerPass, layer)
	return rf, ok, nil
}

func writeResultFile(path string, rf *resultFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating the output directory: %w", err)
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing the result file: %w", err)
	}
	return nil
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading a result file: %w", err)
	}
	rf := &resultFile{}
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return rf, nil
}

func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b, false), nil
}

// compareResults prints, per (metric, workload), both medians with their
// quartiles and the relative gap b against a, and reports whether b is
// acceptable: no end-to-end metric worse than a by more than its bound
// (symmetric: not different by more than it, for two sets of one commit),
// no exact metric different at all, nothing missing. Per-layer timings
// carry no bound; their gaps are printed for the reader.
//
// Exactness holds for equal seeds only: across seeds the model metrics are
// held to their bounds like any other.
func compareResults(w io.Writer, a, b *resultFile, symmetric bool) bool {
	sameSeed := a.Stamp.Seed == b.Stamp.Seed
	if !sameSeed {
		fmt.Fprintf(w, "seeds differ (%d, %d): exact metrics are compared by their bounds\n", a.Stamp.Seed, b.Stamp.Seed)
	}
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta [q1..q3]\tb [q1..q3]\tgap\tverdict")
	layer := map[string]perLayer{}
	for _, p := range perLayerMetrics {
		layer[p.Name] = p
	}
	for _, key := range append(append([]string(nil), workloadNames...), layerPass) {
		wa, wb := a.Workloads[key], b.Workloads[key]
		if wa == nil || wb == nil {
			if wa != wb {
				fmt.Fprintf(tw, "%s\t\t\t\t\tFAIL: present in one file only\n", key)
				ok = false
			}
			continue
		}
		names := wa.Metrics.names()
		for _, n := range wb.Metrics.names() {
			if _, both := wa.Metrics[n]; !both {
				names = append(names, n)
			}
		}
		for _, name := range names {
			ma, inA := wa.Metrics[name]
			mb, inB := wb.Metrics[name]
			if !inA || !inB {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\tFAIL: present in one file only\n", key, name)
				ok = false
				continue
			}
			gap := math.NaN()
			if ma.Value != 0 {
				gap = (mb.Value - ma.Value) / math.Abs(ma.Value)
			} else if mb.Value == 0 {
				gap = 0
			}
			verdict := "-"
			if e, isE2E := endToEndByName(name); isE2E {
				verdict = judge(e.Better, e.Bound, e.Exact && sameSeed, symmetric, ma.Value, mb.Value, gap)
			} else if p := layer[name]; p.Exact && sameSeed && ma.Value != mb.Value {
				verdict = "FAIL: exact count differs"
			} else if p.Exact && sameSeed {
				verdict = "ok (exact)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%s\n", key, name, cell(ma), cell(mb), 100*gap, verdict)
		}
		if wb.OpsFailed > 0 {
			fmt.Fprintf(tw, "%s\tops_failed\t%d\t%d\t\tFAIL: failed operations\n", key, wa.OpsFailed, wb.OpsFailed)
			ok = false
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(w, "compare:", err)
		return false
	}
	if ok {
		fmt.Fprintln(w, "compare: within bounds")
	} else {
		fmt.Fprintln(w, "compare: FAILED")
	}
	return ok
}

// judge rules on one end-to-end metric.
func judge(better string, bound float64, exact, symmetric bool, a, b, gap float64) string {
	if exact {
		if a != b {
			return "FAIL: exact metric differs"
		}
		return "ok (exact)"
	}
	if math.IsNaN(gap) {
		return "FAIL: no base to compare against"
	}
	worse := gap
	if better == "higher" {
		worse = -gap
	}
	if symmetric {
		worse = math.Abs(gap)
	}
	if worse > bound {
		return fmt.Sprintf("FAIL: beyond the %.0f%% bound", 100*bound)
	}
	return fmt.Sprintf("ok (bound %.0f%%)", 100*bound)
}

func cell(m metric) string {
	if m.Q1 != 0 || m.Q3 != 0 {
		return fmt.Sprintf("%s [%s..%s]", formatValue(m.Value), formatValue(m.Q1), formatValue(m.Q3))
	}
	return formatValue(m.Value)
}
