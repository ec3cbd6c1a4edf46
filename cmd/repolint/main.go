// Command repolint runs the repository's analyzer suite (floateq,
// unitsafety, panicfree, erraudit, detflow, hotalloc, profgate,
// shardown, typestate, rangecheck — see internal/lint) in two modes:
//
// Standalone, against package patterns, loading and type-checking the
// module itself:
//
//	go run ./cmd/repolint ./...
//	repolint -list         # print every registered analyzer with its one-line doc
//	repolint -only detflow,panicfree ./internal/...
//	repolint -json ./...   # one JSON object per line, suppressions and timing included
//	repolint -timing ./... # per-analyzer wall-time table on stderr
//
// And as a vet tool, speaking the go vet driver protocol (the -V=full
// handshake, the -flags query, and the JSON .cfg package description
// with pre-built export data), which lets the go tool own package
// loading, caching, and parallelism:
//
//	go build -o bin/repolint ./cmd/repolint
//	go vet -vettool=bin/repolint ./...
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
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
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

	versionFlag := flag.String("V", "", "print version and exit (go vet handshake)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (go vet handshake)")
	list := flag.Bool("list", false, "print every registered analyzer with its one-line doc and exit")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	jsonOut := flag.Bool("json", false,
		"standalone mode: print one JSON object per diagnostic (including suppressed ones) to stdout")
	timing := flag.Bool("timing", false,
		"standalone mode: print a per-analyzer wall-time table to stderr (-json always carries timing records)")
	budget := flag.String("budget", "",
		"standalone mode: JSON file of per-analyzer wall-time ceilings in ms (see LINT_BUDGET.json); any exceeded ceiling fails the run")
	flag.Usage = usage
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion(*versionFlag)
		return
	case *flagsFlag:
		fmt.Println("[]") // no pass-through flags beyond the handshake
		return
	case *list:
		listAnalyzers(os.Stdout)
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(1)
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetUnit(args[0], analyzers))
	}
	os.Exit(runStandalone(args, analyzers, *jsonOut, *timing, *budget, ".", os.Stdout, os.Stderr))
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
		"       repolint benchdiff [-baseline file] [-band pct] [-update] [stream.json]\n"+
		"       go vet -vettool=$(command -v repolint) ./...\n\nanalyzers:\n")
	for _, a := range repolint.All() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	flag.PrintDefaults()
}

// printVersion answers go vet's tool-identity handshake. The go tool
// folds the line into its build cache key, so it must change when the
// binary does: we hash the executable itself, as x/tools' unitchecker
// does.
func printVersion(mode string) {
	if mode != "full" {
		fmt.Fprintf(os.Stderr, "repolint: unsupported -V mode %q\n", mode)
		os.Exit(1)
	}
	progname := filepath.Base(os.Args[0])
	self, err := os.Open(os.Args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(1)
	}
	defer self.Close()
	h := sha256.New()
	if _, err := io.Copy(h, self); err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(1)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)))
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

// vetConfig is the JSON package description the go vet driver hands to
// a -vettool for each package unit (see x/tools unitchecker for the
// reference decoder of the same schema).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes the single package unit described by cfgFile,
// type-checking against the export data the go tool already built.
func runVetUnit(cfgFile string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "repolint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The driver always expects the facts output file; the suite uses
	// no cross-package facts, so it is empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "repolint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency visited only for facts, of which we have none
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "repolint:", err)
			return 1
		}
		files = append(files, f)
	}

	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	// Test variants arrive as "path [path.test]"; analyzers scope by
	// the real import path.
	importPath := cfg.ImportPath
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		importPath = importPath[:i]
	}
	info := loader.NewInfo()
	conf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "repolint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	found := 0
	for _, a := range analyzers {
		pass := analysis.NewPass(a, fset, files, tpkg, info)
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "repolint: %s: %s: %v\n", a.Name, cfg.ImportPath, err)
			return 1
		}
		for _, d := range pass.Diagnostics() {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
			found++
		}
	}
	if found > 0 {
		return 2
	}
	return 0
}
