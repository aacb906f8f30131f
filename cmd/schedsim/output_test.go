package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A stream that cannot be written must fail the run. Each observer hook
// stops writing after its first error so it never perturbs the simulation,
// which leaves the file's flush and close as the only place the failure
// can surface; /dev/full rejects every write with ENOSPC.
func TestOutputWriteFailureFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, flag := range []string{"-dispatch-trace", "-decision-trace", "-telemetry"} {
		t.Run(flag, func(t *testing.T) {
			err := run(*parse(t, "-requests", "300", flag, "/dev/full"))
			if err == nil {
				t.Fatalf("run with %s /dev/full succeeded", flag)
			}
			if !strings.HasPrefix(err.Error(), flag+": ") {
				t.Errorf("error %q does not name %s", err, flag)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.txt from the code")

// The -sched all report is every policy over one trace; these goldens pin
// it byte for byte. -update rewrites them, only for an intended change.
func TestSchedAllGolden(t *testing.T) {
	for file, args := range map[string][]string{
		"sched-all.txt":       {"-sched", "all", "-requests", "3000"},
		"sched-all-mixed.txt": {"-sched", "all", "-spec", "mixed"},
	} {
		got := stdout(t, args...)
		path := filepath.Join("testdata", file)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("schedsim %v differs from %s (%v):\n%s", args, path, err, got)
		}
	}
}

// stdout runs schedsim with args and returns what it printed; "-" output
// flags print there too.
func stdout(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = out
	err = run(*parse(t, args...))
	os.Stdout = saved
	out.Close()
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return printed
}
