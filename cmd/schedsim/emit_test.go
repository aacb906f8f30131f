package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// -emit-trace writes the workload a run serves, whatever its source:
// replaying the CSV with the same scheduler and topology flags prints the
// same report and records the same dispatch stream, byte for byte, as the
// run that wrote it. The CSV carries the tenant and class tags, so a
// cluster that routes by tenant and admits by class replays too.
func TestEmittedTraceReplaysTheRun(t *testing.T) {
	dir := t.TempDir()
	recording := filepath.Join(dir, "recording.jsonl")
	stdout(t, "-requests", "500", "-dispatch-trace", recording)
	cluster := []string{"-sched", "edf", "-cluster", "2", "-cluster-disks", "2",
		"-router", "affinity", "-classes", "3", "-admit", "token"}
	for _, tc := range []struct {
		name   string
		source []string // the workload flags, given to the direct run only
		run    []string // the flags both runs share
	}{
		{"open", []string{"-requests", "500"}, nil},
		{"mixed", []string{"-spec", "mixed", "-requests", "500"}, nil},
		{"streams", []string{"-spec", "streams", "-write-frac", "0.2"}, nil},
		{"replay", []string{"-replay", recording}, nil},
		{"mixed-cluster", []string{"-spec", "mixed", "-requests", "2000"}, cluster},
	} {
		t.Run(tc.name, func(t *testing.T) {
			csv := filepath.Join(dir, tc.name+".csv")
			a, b := filepath.Join(dir, tc.name+".a.jsonl"), filepath.Join(dir, tc.name+".b.jsonl")
			args := slices.Concat(tc.run, tc.source, []string{"-emit-trace", csv, "-dispatch-trace", a})
			direct := stdout(t, args...)
			replayed := stdout(t, slices.Concat(tc.run, []string{"-replay", csv, "-dispatch-trace", b})...)
			if !bytes.Equal(direct, replayed) {
				t.Errorf("report differs:\n%s\nreplayed:\n%s", direct, replayed)
			}
			want, err := os.ReadFile(a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(b)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(want, []byte("\n")); n < 400 {
				t.Errorf("%v recorded %d dispatches, want at least 400", args, n)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("replayed dispatch stream differs at line %d", firstDiffLine(got, want))
			}
		})
	}
}
