package main

import (
	"strings"
	"testing"
)

func runDiff(t *testing.T, a, b string, context int) (bool, string) {
	t.Helper()
	var out strings.Builder
	same, err := diff(strings.NewReader(a), strings.NewReader(b), &out, context)
	if err != nil {
		t.Fatal(err)
	}
	return same, out.String()
}

func TestDiffIdentical(t *testing.T) {
	trace := "{\"seq\":0}\n{\"seq\":1}\n{\"seq\":2}\n"
	same, out := runDiff(t, trace, trace, 3)
	if !same {
		t.Fatalf("identical traces reported divergent:\n%s", out)
	}
	if !strings.Contains(out, "identical (3 lines)") {
		t.Fatalf("missing line count: %q", out)
	}
}

func TestDiffEmpty(t *testing.T) {
	if same, out := runDiff(t, "", "", 3); !same {
		t.Fatalf("two empty traces reported divergent:\n%s", out)
	}
}

func TestDiffFirstDivergence(t *testing.T) {
	a := "l1\nl2\nl3\nl4-a\nl5-a\n"
	b := "l1\nl2\nl3\nl4-b\nl5-b\n"
	same, out := runDiff(t, a, b, 2)
	if same {
		t.Fatal("divergent traces reported identical")
	}
	if !strings.Contains(out, "diverge at line 4") {
		t.Fatalf("wrong divergence line:\n%s", out)
	}
	// Only the first divergence is reported, with the requested context.
	if strings.Contains(out, "l5") {
		t.Fatalf("report continued past the first divergence:\n%s", out)
	}
	if !strings.Contains(out, "l2") || !strings.Contains(out, "l3") {
		t.Fatalf("missing context lines:\n%s", out)
	}
	if strings.Contains(out, "l1") {
		t.Fatalf("context exceeded -context 2:\n%s", out)
	}
	if !strings.Contains(out, "- l4-a") || !strings.Contains(out, "+ l4-b") {
		t.Fatalf("differing lines not tagged:\n%s", out)
	}
}

func TestDiffLengthMismatch(t *testing.T) {
	a := "l1\nl2\n"
	b := "l1\nl2\nl3\n"
	same, out := runDiff(t, a, b, 3)
	if same {
		t.Fatal("prefix trace reported identical to longer trace")
	}
	if !strings.Contains(out, "diverge at line 3") {
		t.Fatalf("wrong divergence line:\n%s", out)
	}
	if !strings.Contains(out, "- <end of trace>") || !strings.Contains(out, "+ l3") {
		t.Fatalf("length mismatch not reported:\n%s", out)
	}
}

func TestDiffZeroContext(t *testing.T) {
	same, out := runDiff(t, "x\ny-a\n", "x\ny-b\n", 0)
	if same {
		t.Fatal("divergent traces reported identical")
	}
	if strings.Contains(out, "  ") && strings.Contains(out, "\n  ") {
		t.Fatalf("context printed despite -context 0:\n%s", out)
	}
}

// Lines compare with their terminators: a CRLF line and a last line without
// a newline differ from their LF twins, and the report shows which.
func TestDiffLineTerminators(t *testing.T) {
	for _, tc := range []struct {
		name, a, b string
		line       string
		la, lb     string
	}{
		{"crlf", "{\"a\":1}\n{\"b\":2}\n", "{\"a\":1}\r\n{\"b\":2}\n", "line 1",
			"- {\"a\":1}\n", "+ {\"a\":1}\\r\n"},
		{"no final newline", "{\"a\":1}\n{\"b\":2}\n", "{\"a\":1}\n{\"b\":2}", "line 2",
			"- {\"b\":2}\n", "+ {\"b\":2} <no newline at end>\n"},
		{"both", "{\"a\":1}\n{\"b\":2}\n", "{\"a\":1}\r\n{\"b\":2}", "line 1",
			"- {\"a\":1}\n", "+ {\"a\":1}\\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			same, out := runDiff(t, tc.a, tc.b, 3)
			if same {
				t.Fatalf("traces that differ in their line ends reported identical:\n%s", out)
			}
			for _, want := range []string{"diverge at " + tc.line + "\n", tc.la, tc.lb} {
				if !strings.Contains(out, want) {
					t.Errorf("report lacks %q:\n%s", want, out)
				}
			}
		})
	}
	if same, out := runDiff(t, "x\r\ny", "x\r\ny", 3); !same || !strings.Contains(out, "identical (2 lines)") {
		t.Errorf("identical CRLF traces without a final newline: same=%v\n%s", same, out)
	}
}
