package main

import (
	"flag"
	"fmt"
	"os"
)

// parseCommand splits an argument list into its subcommand and applies
// flags from either side of it: "experiments -scale 0.1 fig8" and
// "experiments fig8 -scale 0.1" both work, because the flag package
// stops at the first positional argument and whatever follows the
// subcommand is re-parsed. Returns def when no subcommand is present.
// Every subcommand used to inline this dance; keep it here, in one
// place.
func parseCommand(fs *flag.FlagSet, args []string, def string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() == 0 {
		return def, nil
	}
	cmd := fs.Arg(0)
	if fs.NArg() > 1 {
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return "", err
		}
	}
	return cmd, nil
}

// jsonReport is any benchmark report that serializes itself; every
// BENCH_*.json artifact flows through writeReportJSON.
type jsonReport interface {
	JSON() ([]byte, error)
}

// writeReportJSON writes rep to out as JSON (a no-op when out is
// empty), replacing the write-epilogue every report subcommand used to
// copy.
func writeReportJSON(out string, rep jsonReport) error {
	if out == "" {
		return nil
	}
	js, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(js, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}
