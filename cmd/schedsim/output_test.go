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
// can surface; /dev/full rejects every write with ENOSPC. -emit-trace
// writes before the run and must fail it too.
func TestOutputWriteFailureFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	for _, flag := range []string{"-dispatch-trace", "-decision-trace", "-telemetry", "-emit-trace"} {
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

// A flag value the cascade cannot be built with fails the run (exit 1)
// before the report header or any row is printed, including when the
// cascade is one of -sched all or a shadow.
func TestBadCascadeFlagsPrintNothing(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-curve", "bogus"}, `sfc: unknown curve "bogus"`},
		{[]string{"-curve", "moore"}, "sfc: moore curve is 2-dimensional, got 3 dims"},
		{[]string{"-window", "2"}, "core: window fraction 2 outside [0,1]"},
		{[]string{"-window", "-1"}, "core: window fraction -1 outside [0,1]"},
		{[]string{"-f", "-1"}, "core: F must be >= 0, got -1"},
		{[]string{"-dims", "40"}, "sfc: dims*bits = 120 exceeds 64"},
		{[]string{"-sched", "all", "-curve", "bogus"}, `sfc: unknown curve "bogus"`},
		{[]string{"-sched", "fcfs", "-shadow", "cascaded", "-f", "-1"}, "core: F must be >= 0, got -1"},
		{[]string{"-spec", "mixed", "-window", "2"}, "core: window fraction 2 outside [0,1]"},
	} {
		args := append([]string{"-sched", "cascaded", "-requests", "200"}, tc.args...)
		printed, err := capture(t, args...)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("schedsim %v: error %v, want %q", args, err, tc.wantErr)
		}
		if len(printed) != 0 {
			t.Errorf("schedsim %v printed before failing:\n%s", args, printed)
		}
	}
	// The check runs after the workload has fixed the dims: the mixed
	// scenario's two dimensions take the 2-D Moore curve whatever -dims says.
	if printed := stdout(t, "-spec", "mixed", "-requests", "200", "-dims", "40", "-curve", "moore"); len(printed) == 0 {
		t.Error("-spec mixed -dims 40 -curve moore printed nothing")
	}
}

// stdout runs schedsim with args and returns what it printed; "-" output
// flags print there too.
func stdout(t *testing.T, args ...string) []byte {
	t.Helper()
	printed, err := capture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	return printed
}

// capture runs schedsim with args and returns what it printed and the
// error that makes main exit 1.
func capture(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = out
	runErr := run(*parse(t, args...))
	os.Stdout = saved
	out.Close()
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return printed, runErr
}

// The observer streams are pinned byte for byte with the report they ride
// along: a single-disk cascade with a shadow and all three streams, a
// faulty RAID-5 array with decisions and telemetry, and a 3×2 cluster with
// telemetry. Each run writes its streams to files named by the flag;
// -update rewrites testdata/observers-<run>.*, only for an intended change.
// A decision record is about 600 bytes, so the runs that trace decisions
// are short.
func TestObserverStreamsGolden(t *testing.T) {
	streams := map[string]string{
		"-dispatch-trace": "dispatch.jsonl",
		"-decision-trace": "decisions.jsonl",
		"-telemetry":      "telemetry.csv",
	}
	for _, tc := range []struct {
		name  string
		args  []string
		flags []string
	}{
		{"single", []string{"-sched", "cascaded", "-shadow", "edf", "-requests", "60"},
			[]string{"-dispatch-trace", "-decision-trace", "-telemetry"}},
		{"array", []string{"-array", "5", "-write-frac", "0.3", "-fault-rate", "0.01", "-sched", "cascaded", "-requests", "60"},
			[]string{"-decision-trace", "-telemetry"}},
		{"cluster", []string{"-cluster", "3", "-cluster-disks", "2", "-sched", "scan-edf", "-requests", "300"},
			[]string{"-telemetry"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := tc.args
			files := map[string]string{"txt": filepath.Join(dir, "stdout")}
			for _, f := range tc.flags {
				files[streams[f]] = filepath.Join(dir, streams[f])
				args = append(args, f, files[streams[f]])
			}
			if err := os.WriteFile(files["txt"], stdout(t, args...), 0o644); err != nil {
				t.Fatal(err)
			}
			for ext, path := range files {
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				golden := filepath.Join("testdata", "observers-"+tc.name+"."+ext)
				if *update {
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("schedsim %v: %s differs from %s at line %d", args, ext, golden, firstDiffLine(got, want))
				}
			}
		})
	}
}

// firstDiffLine returns the 1-based number of the first line where a and b
// differ.
func firstDiffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range min(len(la), len(lb)) {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return min(len(la), len(lb)) + 1
}
