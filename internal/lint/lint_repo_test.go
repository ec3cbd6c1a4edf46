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
	root := moduleRoot(t)
	// Run profgate against the committed benchmark profiles (it is a
	// no-op without them), so the profile<->annotation join is part of
	// the clean-tree invariant: a hot function losing its root, or a
	// root going cold in every committed profile, fails here — not only
	// in the `make profgate` CI step.
	t.Setenv("REPOLINT_PROFILES", filepath.Join(root, "profiles"))
	fset := token.NewFileSet()
	pkgs, err := loader.Load(fset, root, "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	// Dogfooding: the sweep must cover the linters themselves. If the
	// loader ever skipped internal/lint (or the v5 analyzer packages),
	// the clean-tree invariant would silently stop policing the code
	// that enforces it.
	covered := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
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
	for _, a := range repolint.All() {
		for _, pkg := range pkgs {
			pass := analysis.NewPass(a, fset, pkg.Files, pkg.Types, pkg.Info)
			if err := a.Run(pass); err != nil {
				t.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
				continue
			}
			for _, d := range pass.Diagnostics() {
				t.Errorf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
			}
		}
	}
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
