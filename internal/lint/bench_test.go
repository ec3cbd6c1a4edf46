package lint

import (
	"go/token"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/lint/repolint"
)

// BenchmarkRepolintModule measures one full lint pass — module load,
// parse, type-check, and every registered analyzer over every package —
// which is what `make lint` and the clean-lint meta-test pay on every
// run. `make bench` appends this to bin/BENCH_sim.json so lint wall-time
// regressions are tracked alongside simulator throughput.
func BenchmarkRepolintModule(b *testing.B) {
	benchModule(b)
}

// BenchmarkDetflowModule isolates the interprocedural layer: module load
// plus only the detflow and hotalloc analyzers over every package.
// detflow runs the taint domain of internal/lint/dataflow with
// per-function summaries; hotalloc walks the internal/lint/callgraph
// reachability from //lint:hotpath roots. Tracking this next to
// BenchmarkRepolintModule in bin/BENCH_sim.json shows how much of the
// whole-suite cost the two account for as they grow.
func BenchmarkDetflowModule(b *testing.B) {
	benchModule(b, "detflow", "hotalloc")
}

// BenchmarkNumericModule isolates the v6 numeric layer: module load
// plus only rangecheck — both of its domains run on the
// internal/lint/dataflow interval domain (RunIntervals) — over every
// package. Tracked in bin/BENCH_sim.json next to the whole-suite and
// detflow figures, it shows what the interval domain costs as its
// contract inventory grows.
func BenchmarkNumericModule(b *testing.B) {
	benchModule(b, "rangecheck")
}

// benchModule loads the module and runs the named analyzers (all of
// them when none are named) over every package, b.N times; the tree
// must stay lint-clean throughout.
func benchModule(b *testing.B, names ...string) {
	root := moduleRoot(b)
	suite := repolint.All()
	if len(names) > 0 {
		suite = suite[:0]
		for _, name := range names {
			a := repolint.ByName(name)
			if a == nil {
				b.Fatalf("analyzer %s is not registered", name)
			}
			suite = append(suite, a)
		}
	}
	for i := 0; i < b.N; i++ {
		fset := token.NewFileSet()
		pkgs, err := loader.Load(fset, root, "./...")
		if err != nil {
			b.Fatalf("loading module packages: %v", err)
		}
		if len(pkgs) == 0 {
			b.Fatal("loader returned no packages")
		}
		diags := 0
		for _, pkg := range pkgs {
			for _, a := range suite {
				pass := analysis.NewPass(a, fset, pkg.Files, pkg.Types, pkg.Info)
				if err := a.Run(pass); err != nil {
					b.Fatalf("%s: %s: %v", a.Name, pkg.ImportPath, err)
				}
				diags += len(pass.Diagnostics())
			}
		}
		if diags != 0 {
			b.Fatalf("module not lint-clean during benchmark: %d diagnostics", diags)
		}
	}
}
