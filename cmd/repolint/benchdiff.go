// benchdiff.go implements the `repolint benchdiff` subcommand: the
// benchmark-regression gate over the NDJSON archive `make bench`
// writes. See internal/lint/benchdiff for the comparison semantics
// (allocs/op and B/op exact at a zero baseline and within a fixed 2%
// of a nonzero one, ns/op within the -band percentage, minimum over
// -count repetitions) and the Makefile's benchdiff/bench-baseline
// targets for how CI drives it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint/benchdiff"
)

// benchdiffMain runs the subcommand and returns the process exit code:
// 0 clean (or baseline updated), 1 operational error, 2 regression.
func benchdiffMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline file to gate against (or rewrite with -update)")
	band := fs.Float64("band", 25, "tolerance band in percent for ns/op; allocs/op and B/op are always gated exactly at a zero baseline and within 2% of a nonzero one")
	update := fs.Bool("update", false, "rewrite the baseline from the stream (normalized: sorted, timestamps stripped) instead of comparing")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: repolint benchdiff [-baseline file] [-band pct] [-update] [stream.json]\n\n"+
			"Gates the `go test -json` benchmark stream (default bin/BENCH_sim.json) against\n"+
			"the committed baseline. Exit 0 clean, 1 error, 2 regression.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	streamPath := "bin/BENCH_sim.json"
	switch fs.NArg() {
	case 0:
	case 1:
		streamPath = fs.Arg(0)
	default:
		fs.Usage()
		return 1
	}

	sf, err := os.Open(streamPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}
	defer sf.Close()
	current, err := benchdiff.ParseStream(sf)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %s: %v\n", streamPath, err)
		return 1
	}
	if len(current) == 0 {
		fmt.Fprintf(stderr, "benchdiff: %s: no benchmark results in stream\n", streamPath)
		return 1
	}

	if *update {
		f, err := os.Create(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		if err := benchdiff.WriteBaseline(f, current); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 1
		}
		fmt.Fprintf(stdout, "benchdiff: wrote %s (%d benchmarks, timestamps stripped)\n", *baselinePath, len(current))
		return 0
	}

	bf, err := os.Open(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v (create it with `make bench-baseline`)\n", err)
		return 1
	}
	defer bf.Close()
	baseline, err := benchdiff.ReadBaseline(bf)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %s: %v\n", *baselinePath, err)
		return 1
	}

	deltas, failures := benchdiff.Compare(baseline, current, *band)
	for _, d := range deltas {
		fmt.Fprintf(stdout, "%-10s %s  %s\n", d.Verdict, d.Key, d.Detail)
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) against %s (band %.0f%%); "+
			"if intentional, refresh with `make bench-baseline` and commit the diff\n",
			failures, *baselinePath, *band)
		return 2
	}
	return 0
}
