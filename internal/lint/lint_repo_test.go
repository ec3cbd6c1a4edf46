// Package lint holds the repo-wide clean-lint meta-tests: every
// repolint analyzer runs over every package in the module, and any
// diagnostic — a regression against the determinism, shard-ownership,
// float-equality, unit-safety, panic-discipline, allocation, protocol,
// range, or error-audit gates — fails the build's test tier, not just
// the lint tier. A second meta-test holds the suppression inventory to the
// directive grammar: every "//lint:allow" must be well-formed, name
// registered analyzers, and still silence at least one diagnostic.
package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/lint/repolint"
)

// TestRepoIsLintClean type-checks the whole module and requires zero
// diagnostics from the full analyzer suite. New code that wants an
// exemption must carry an explicit "//lint:allow <analyzer> (reason)"
// so the debt stays greppable.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is not short")
	}
	m := lintModule(t)
	// Dogfooding: the sweep must cover the linters themselves. If the
	// loader ever skipped internal/lint (or the v5 analyzer packages),
	// the clean-tree invariant would silently stop policing the code
	// that enforces it.
	covered := make(map[string]bool, len(m.pkgs))
	for _, pkg := range m.pkgs {
		covered[pkg.ImportPath] = true
	}
	// (internal/lint itself is all _test.go files, which the loader
	// skips by design — the analyzers do not police tests.)
	for _, path := range []string{
		"repro/internal/lint/analysis",
		"repro/internal/lint/dataflow",
		"repro/internal/lint/shardown",
		"repro/internal/lint/typestate",
		"repro/internal/lint/repolint",
		"repro/cmd/repolint",
	} {
		if !covered[path] {
			t.Errorf("lint sweep does not load %s: repolint must self-lint", path)
		}
	}
	for _, r := range m.runs {
		if r.err != nil {
			t.Errorf("%s: %s: %v", r.pass.Analyzer.Name, r.pkg.ImportPath, r.err)
			continue
		}
		for _, d := range r.pass.Diagnostics() {
			t.Errorf("%s: %s: %s", m.fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}

// lintedModule is the whole module loaded once and linted once by the
// full suite, shared by TestRepoIsLintClean and
// TestSuppressionInventory.
type lintedModule struct {
	fset *token.FileSet
	pkgs []*loader.Package
	runs []analyzerRun // every repolint.All() analyzer over every package
	err  error         // from loader.Load
}

type analyzerRun struct {
	pkg  *loader.Package
	pass *analysis.Pass
	err  error
}

var linted struct {
	once sync.Once
	m    lintedModule
}

// lintModule returns the shared lint run, failing t when the module
// does not load.
func lintModule(t *testing.T) *lintedModule {
	t.Helper()
	root := moduleRoot(t)
	linted.once.Do(func() {
		m := &linted.m
		m.fset = token.NewFileSet()
		if m.pkgs, m.err = loader.Load(m.fset, root, "./..."); m.err != nil {
			return
		}
		for _, pkg := range m.pkgs {
			for _, a := range repolint.All() {
				pass := analysis.NewPass(a, m.fset, pkg.Files, pkg.Types, pkg.Info)
				m.runs = append(m.runs, analyzerRun{pkg: pkg, pass: pass, err: a.Run(pass)})
			}
		}
	})
	if linted.m.err != nil {
		t.Fatalf("loading module packages: %v", linted.m.err)
	}
	if len(linted.m.pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	return &linted.m
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}
