// Command repolint runs the repository's analyzer suite (floateq,
// unitsafety, panicfree, erraudit, detflow, hotalloc, shardown,
// typestate, rangecheck — see internal/lint) against package
// patterns, loading and type-checking the module itself:
//
//	go run ./cmd/repolint ./...
//	repolint -list         # print every registered analyzer with its one-line doc
//	repolint -only detflow,panicfree ./internal/...
//	repolint -json ./...   # one JSON object per line, suppressions and timing included
//	repolint -timing ./... # per-analyzer wall-time table on stderr
//
// It also hosts the benchmark-regression gate as a subcommand (see
// internal/lint/benchdiff):
//
//	repolint benchdiff bin/BENCH_sim.json             # compare against BENCH_baseline.json
//	repolint benchdiff -band 10 bin/BENCH_sim.json    # tighter ns/op band
//	repolint benchdiff -update bin/BENCH_sim.json     # refresh the baseline
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics/regressions
// reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/lint/repolint"
)

func main() {
	// Subcommand dispatch happens before flag.Parse so benchdiff can
	// own its flag set.
	if len(os.Args) > 1 && os.Args[1] == "benchdiff" {
		os.Exit(benchdiffMain(os.Args[2:], os.Stdout, os.Stderr))
	}

	list := flag.Bool("list", false, "print every registered analyzer with its one-line doc and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	jsonOut := flag.Bool("json", false,
		"print one JSON object per diagnostic (including suppressed ones) to stdout")
	timing := flag.Bool("timing", false,
		"print a per-analyzer wall-time table to stderr (-json always carries timing records)")
	budget := flag.String("budget", "",
		"JSON file of per-analyzer wall-time ceilings in ms (see LINT_BUDGET.json); any exceeded ceiling fails the run")
	flag.Usage = usage
	flag.Parse()

	if *list {
		listAnalyzers(os.Stdout)
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(1)
	}
	os.Exit(runStandalone(flag.Args(), analyzers, *jsonOut, *timing, *budget, ".", os.Stdout, os.Stderr))
}

// listAnalyzers prints the registered suite, one analyzer per line
// with its one-line doc, in reporting order — the -list inventory that
// the README sync test and operators both read.
func listAnalyzers(w io.Writer) {
	for _, a := range repolint.All() {
		fmt.Fprintf(w, "%-12s %s\n", a.Name, a.Doc)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: repolint [-only a,b] [package pattern ...]\n"+
		"       repolint benchdiff [-baseline file] [-band pct] [-update] [stream.json]\n\nanalyzers:\n")
	for _, a := range repolint.All() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	flag.PrintDefaults()
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return repolint.All(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := repolint.ByName(strings.TrimSpace(name))
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// jsonDiagnostic is the -json wire format: one object per line, stable
// field set, so CI can diff lint state between commits. Suppressed
// findings appear with Suppressed=true (and do not affect the exit
// status) — the diff then shows suppressions being added or retired.
type jsonDiagnostic struct {
	Analyzer   string `json:"analyzer"`
	Pos        string `json:"pos"` // file:line:col
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// jsonTiming is the -json per-analyzer wall-time record, one per
// analyzer after the diagnostics, so CI can watch lint cost alongside
// lint state between commits.
type jsonTiming struct {
	Analyzer  string  `json:"analyzer"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// runStandalone loads packages with the module-aware loader (rooted at
// dir) and runs every analyzer over every package. budgetFile, if
// non-empty, names the per-analyzer wall-time ceiling table checked
// after the run (the `make lint` budget gate).
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, jsonOut, timing bool, budgetFile, dir string, stdout, stderr io.Writer) int {
	fset := token.NewFileSet()
	pkgs, err := loader.Load(fset, dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	found := 0
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := analysis.NewPass(a, fset, pkg.Files, pkg.Types, pkg.Info)
			start := time.Now()
			err := a.Run(pass)
			elapsed[a.Name] += time.Since(start)
			if err != nil {
				fmt.Fprintf(stderr, "repolint: %s: %s: %v\n", a.Name, pkg.ImportPath, err)
				return 1
			}
			for _, d := range pass.Diagnostics() {
				if jsonOut {
					if err := enc.Encode(jsonDiagnostic{
						Analyzer: d.Analyzer,
						Pos:      fset.Position(d.Pos).String(),
						Message:  d.Message,
					}); err != nil {
						fmt.Fprintln(stderr, "repolint:", err)
						return 1
					}
				} else {
					fmt.Fprintf(stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
				}
				found++
			}
			if jsonOut {
				for _, s := range pass.Suppressed() {
					if err := enc.Encode(jsonDiagnostic{
						Analyzer:   s.Analyzer,
						Pos:        fset.Position(s.Pos).String(),
						Message:    s.Message,
						Suppressed: true,
					}); err != nil {
						fmt.Fprintln(stderr, "repolint:", err)
						return 1
					}
				}
			}
		}
	}
	if jsonOut {
		// Timing records ride in the same stream after the diagnostics;
		// wall times are measurements, not simulation outputs, so the
		// determinism discipline does not apply to them.
		for _, a := range analyzers {
			if err := enc.Encode(jsonTiming{ //lint:allow detflow (per-analyzer wall time is a measurement; the lint wire format is not a deterministic simulation artifact)
				Analyzer:  a.Name,
				ElapsedMs: float64(elapsed[a.Name].Microseconds()) / 1e3,
			}); err != nil {
				//lint:allow detflow (the encode error string inherits the wall-time taint; it is operator diagnostics, not simulation output)
				fmt.Fprintln(stderr, "repolint:", err)
				return 1
			}
		}
	}
	if timing && !jsonOut {
		order := make([]*analysis.Analyzer, len(analyzers))
		copy(order, analyzers)
		sort.SliceStable(order, func(i, j int) bool {
			return elapsed[order[i].Name] > elapsed[order[j].Name]
		})
		fmt.Fprintf(stderr, "repolint: per-analyzer wall time over %d package(s):\n", len(pkgs))
		for _, a := range order {
			//lint:allow detflow (the -timing table prints measured wall time by design; it is operator diagnostics, not simulation output)
			fmt.Fprintf(stderr, "  %-12s %8.1fms\n", a.Name, float64(elapsed[a.Name].Microseconds())/1e3)
		}
	}
	if found > 0 {
		if !jsonOut {
			fmt.Fprintf(stderr, "repolint: %d diagnostic(s)\n", found)
		}
		return 2
	}
	if budgetFile != "" {
		return checkBudget(budgetFile, analyzers, elapsed, stderr)
	}
	return 0
}
