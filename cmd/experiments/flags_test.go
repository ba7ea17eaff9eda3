package main

import (
	"flag"
	"io"
	"testing"
)

// TestParseCommand pins the subcommand/flag interleavings the tool
// accepts: flags before the subcommand, after it, both, neither.
func TestParseCommand(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		wantCmd   string
		wantScale float64
		wantOut   string
		wantRules string
		wantErr   bool
	}{
		{name: "no args", args: nil, wantCmd: "all", wantScale: 0.5},
		{name: "bare subcommand", args: []string{"fig8"}, wantCmd: "fig8", wantScale: 0.5},
		{name: "flags before", args: []string{"-scale", "0.1", "serve"}, wantCmd: "serve", wantScale: 0.1},
		{name: "flags after", args: []string{"serve", "-scale", "0.1"}, wantCmd: "serve", wantScale: 0.1},
		{name: "flags both sides", args: []string{"-scale", "0.2", "tuners", "-out", "x.json"},
			wantCmd: "tuners", wantScale: 0.2, wantOut: "x.json"},
		{name: "only flags", args: []string{"-out", "y.json"}, wantCmd: "all", wantScale: 0.5, wantOut: "y.json"},
		{name: "rules flag after subcommand", args: []string{"rules", "-rules", "topn"},
			wantCmd: "rules", wantScale: 0.5, wantRules: "topn"},
		{name: "rules flag before subcommand", args: []string{"-rules", "none", "fig8"},
			wantCmd: "fig8", wantScale: 0.5, wantRules: "none"},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: true},
		{name: "unknown flag after subcommand", args: []string{"serve", "-bogus"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			scale := fs.Float64("scale", 0.5, "")
			out := fs.String("out", "", "")
			rules := fs.String("rules", "", "")
			cmd, err := parseCommand(fs, tc.args, "all")
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseCommand(%v) accepted, want error", tc.args)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseCommand(%v): %v", tc.args, err)
			}
			if cmd != tc.wantCmd {
				t.Errorf("cmd = %q, want %q", cmd, tc.wantCmd)
			}
			if *scale != tc.wantScale {
				t.Errorf("scale = %v, want %v", *scale, tc.wantScale)
			}
			if *out != tc.wantOut {
				t.Errorf("out = %q, want %q", *out, tc.wantOut)
			}
			if *rules != tc.wantRules {
				t.Errorf("rules = %q, want %q", *rules, tc.wantRules)
			}
		})
	}
}
