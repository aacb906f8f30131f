package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// untagged drops the tenant and class tags from a dispatch stream. The
// request CSV has no columns for them, and on one disk nothing reads them:
// only cluster routing and admission do.
var untagged = regexp.MustCompile(`,"(tenant|class)":\d+`)

// -emit-trace writes the workload a run serves, whatever its source:
// replaying the CSV with the same scheduler flags prints the same report
// and records the same dispatch stream as the run that wrote it, up to the
// tags the mixed scenario's clients set.
func TestEmittedTraceReplaysTheRun(t *testing.T) {
	dir := t.TempDir()
	recording := filepath.Join(dir, "recording.jsonl")
	stdout(t, "-requests", "500", "-dispatch-trace", recording)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"open", []string{"-requests", "500"}},
		{"mixed", []string{"-spec", "mixed", "-requests", "500"}},
		{"streams", []string{"-spec", "streams", "-write-frac", "0.2"}},
		{"replay", []string{"-replay", recording}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			csv := filepath.Join(dir, tc.name+".csv")
			a, b := filepath.Join(dir, tc.name+".a.jsonl"), filepath.Join(dir, tc.name+".b.jsonl")
			direct := stdout(t, append(tc.args, "-emit-trace", csv, "-dispatch-trace", a)...)
			replayed := stdout(t, "-replay", csv, "-dispatch-trace", b)
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
				t.Errorf("%v recorded %d dispatches, want at least 400", tc.args, n)
			}
			if want = untagged.ReplaceAll(want, nil); !bytes.Equal(got, want) {
				t.Errorf("replayed dispatch stream differs at line %d", firstDiffLine(got, want))
			}
		})
	}
}
