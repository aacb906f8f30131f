// Command tracediff compares two JSONL dispatch traces (schedsim
// -dispatch-trace or -decision-trace output) line by line and reports the
// first divergence with surrounding context. Two runs that should be
// deterministic twins — same seed across machines, a run with shadows
// attached versus one without — can be checked in one command:
//
//	tracediff golden.jsonl candidate.jsonl
//	tracediff -context 5 a.jsonl b.jsonl
//
// Exit status is 0 when the traces are identical, 1 at the first
// divergence, 2 on usage or I/O errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	context := flag.Int("context", 3, "matching lines to print before the divergence")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracediff [-context n] a.jsonl b.jsonl\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 || *context < 0 {
		flag.Usage()
		os.Exit(2)
	}
	a, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer a.Close()
	b, err := os.Open(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	defer b.Close()
	same, err := diff(a, b, os.Stdout, *context)
	if err != nil {
		fatal(err)
	}
	if !same {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tracediff: %v\n", err)
	os.Exit(2)
}

// diff streams both readers line by line and writes a report of the first
// divergence to w: up to context preceding common lines, then the two
// differing lines tagged with their source. Lines are compared with their
// terminators, so it returns true only when the streams are byte-identical:
// a "\r\n" against a "\n", or a missing final newline, is a divergence. A
// stream ending early is a divergence; the longer side's next line is
// reported against "<end of trace>".
func diff(a, b io.Reader, w io.Writer, context int) (bool, error) {
	ra, rb := bufio.NewReader(a), bufio.NewReader(b)
	var recent []string // ring of the last `context` common lines
	line := 0
	for {
		la, err := ra.ReadString('\n')
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("reading first trace: %w", err)
		}
		lb, err := rb.ReadString('\n')
		if err != nil && err != io.EOF {
			return false, fmt.Errorf("reading second trace: %w", err)
		}
		if la == "" && lb == "" {
			fmt.Fprintf(w, "traces identical (%d lines)\n", line)
			return true, nil
		}
		line++
		if la == lb {
			if context > 0 {
				if len(recent) == context {
					recent = append(recent[:0], recent[1:]...)
				}
				recent = append(recent, la)
			}
			continue
		}
		fmt.Fprintf(w, "traces diverge at line %d\n", line)
		for i, l := range recent {
			fmt.Fprintf(w, "  %6d   %s\n", line-len(recent)+i, show(l))
		}
		fmt.Fprintf(w, "a %6d - %s\nb %6d + %s\n", line, show(la), line, show(lb))
		return false, nil
	}
}

// show renders a line, read with its terminator, for the report: the "\n"
// is dropped, a "\r" is spelled out, a last line without a newline says
// so, and the missing line of the shorter trace reads "<end of trace>".
func show(l string) string {
	if l == "" {
		return "<end of trace>"
	}
	body, nl := strings.CutSuffix(l, "\n")
	body = strings.ReplaceAll(body, "\r", `\r`)
	if !nl {
		body += " <no newline at end>"
	}
	return body
}
