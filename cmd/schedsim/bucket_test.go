package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// No generator a flag reaches sets Request.Value, so every request lands in
// BUCKET's one zero-value bucket, which is deadline-ordered: -sched bucket
// dispatches exactly as -sched edf. The -sched help text and the README say
// so. Whoever gives generated workloads values must see this test fail and
// update that note.
func TestBucketEqualsEDFOnGeneratedWorkloads(t *testing.T) {
	for _, workload := range [][]string{{"-requests", "3000"}, {"-spec", "mixed"}} {
		var streams [2][]byte
		for i, name := range []string{"edf", "bucket"} {
			out := filepath.Join(t.TempDir(), name+".jsonl")
			args := append([]string{"-sched", name, "-dispatch-trace", out}, workload...)
			if err := run(*parse(t, args...)); err != nil {
				t.Fatal(err)
			}
			var err error
			if streams[i], err = os.ReadFile(out); err != nil {
				t.Fatal(err)
			}
		}
		if len(streams[0]) == 0 || !bytes.Equal(streams[0], streams[1]) {
			t.Errorf("%v: bucket's dispatch stream differs from edf's", workload)
		}
	}
}
