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
	if o.exp != "all" || o.dilation != 100 {
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
		{"negative serve-for", []string{"-serve", "-serve-for", "-1s"}, "-serve-for"},
		{"serve-for without serve", []string{"-serve-for", "2s"}, "requires -serve"},
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
		{"-serve", "-dilation", "0.5"},
		{"-serve", "-serve-for", "2s", "-http", ":0"},
		{"-exp", "fig5", "-requests", "100", "-workers", "3", "-csv"},
	}
	for _, args := range cases {
		if _, err := parseBench(t, args...); err != nil {
			t.Errorf("args %v should be accepted: %v", args, err)
		}
	}
}
