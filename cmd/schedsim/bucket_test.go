package main

import (
	"bytes"
	"testing"
)

// No generator a flag reaches sets Request.Value, so every request lands in
// BUCKET's one zero-value bucket, which is deadline-ordered: -sched bucket
// dispatches exactly as -sched edf. The -sched help text and the README say
// so. Whoever gives generated workloads values must see this test fail and
// update that note.
func TestBucketEqualsEDFOnGeneratedWorkloads(t *testing.T) {
	for _, workload := range [][]string{{"-requests", "3000"}, {"-spec", "mixed"}} {
		edf := stdout(t, append([]string{"-sched", "edf", "-dispatch-trace", "-"}, workload...)...)
		bucket := stdout(t, append([]string{"-sched", "bucket", "-dispatch-trace", "-"}, workload...)...)
		// Header, dispatch stream, then the results row, whose name alone
		// may differ.
		bucket = bytes.Replace(bucket, []byte("\nbucket   "), []byte("\nedf      "), 1)
		if bytes.Count(edf, []byte("\n")) < 1000 || !bytes.Equal(edf, bucket) {
			t.Errorf("%v: bucket's dispatch stream differs from edf's", workload)
		}
	}
}
