package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseBench parses args through a fresh FlagSet, returning the options
// and the combined parse/validate error.
func parseBench(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return &o, o.validate()
}

func TestOptionsDefaultsValid(t *testing.T) {
	o, err := parseBench(t)
	if err != nil {
		t.Fatalf("defaults should validate: %v", err)
	}
	if o.exp != "all" || o.dilation != 100 || o.inflight != 1 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestOptionsRejects(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative requests", []string{"-requests", "-5"}, "-requests"},
		{"negative workers", []string{"-workers", "-1"}, "-workers"},
		{"serve with exp", []string{"-serve", "-exp", "fig5"}, "mutually exclusive"},
		{"zero dilation", []string{"-serve", "-dilation", "0"}, "-dilation: serve: dilation factor must be positive"},
		{"negative dilation", []string{"-dilation", "-3"}, "-dilation: serve: dilation factor must be positive"},
		{"infinite dilation", []string{"-serve", "-dilation", "+Inf"}, "-dilation: serve: dilation factor must be positive and finite"},
		{"zero inflight", []string{"-inflight", "0"}, "-inflight"},
		{"negative serve-for", []string{"-serve", "-serve-for", "-1s"}, "-serve-for"},
		{"serve-for without serve", []string{"-serve-for", "2s"}, "requires -serve"},
		{"dilations with serve", []string{"-serve", "-dilations", "10,20"}, "-dilations"},
		{"malformed dilations", []string{"-dilations", "10,abc"}, "bad -dilations"},
		{"nonpositive dilations", []string{"-dilations", "10,0"}, "-dilations: serve: dilation factor must be positive"},
		{"infinite dilations entry", []string{"-exp", "calibrate", "-dilations", "10,Inf"}, "-dilations: serve: dilation factor must be positive and finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseBench(t, tc.args...)
			if err == nil {
				t.Fatalf("args %v should be rejected", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestOptionsAccepts(t *testing.T) {
	cases := [][]string{
		{"-exp", "calibrate", "-dilations", " 10 , 50 ,250"},
		{"-serve", "-dilation", "0.5", "-inflight", "4"},
		{"-serve", "-serve-for", "2s", "-http", ":0"},
		{"-exp", "fig5", "-requests", "100", "-workers", "3", "-csv"},
	}
	for _, args := range cases {
		if _, err := parseBench(t, args...); err != nil {
			t.Errorf("args %v should be accepted: %v", args, err)
		}
	}
}

func TestParseDilations(t *testing.T) {
	o, err := parseBench(t, "-dilations", " 10 , 50 ,250")
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.parseDilations()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 50, 250}
	if len(got) != len(want) {
		t.Fatalf("parseDilations = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseDilations = %v, want %v", got, want)
		}
	}
	empty, err := parseBench(t)
	if err != nil {
		t.Fatal(err)
	}
	if dils, err := empty.parseDilations(); err != nil || dils != nil {
		t.Errorf("empty -dilations should parse to nil, got %v, %v", dils, err)
	}
}
