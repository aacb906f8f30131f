package main

import (
	"os"
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
