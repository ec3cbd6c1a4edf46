package main

import (
	"fmt"
	"go/token"
	"path/filepath"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
	"repro/internal/lint/repolint"
)

// TestLintClean holds this module to the gates the repository's
// TestRepoIsLintClean and TestSuppressionInventory apply, which stop at
// the module boundary: no diagnostic from any repolint analyzer, and
// every //lint:allow directive well-formed, naming registered
// analyzers, and silencing something.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	profiles, err := filepath.Abs(filepath.Join("..", "profiles"))
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("REPOLINT_PROFILES", profiles)
	fset := token.NewFileSet()
	// repro/... loads the simulator from source for the type checker.
	pkgs, err := loader.Load(fset, ".", "./...", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, a := range repolint.All() {
		registered[a.Name] = true
	}
	checked := 0
	for _, pkg := range pkgs {
		if pkg.ImportPath != "repro/bench" {
			continue
		}
		checked++
		used := map[string]bool{}
		for _, a := range repolint.All() {
			pass := analysis.NewPass(a, fset, pkg.Files, pkg.Types, pkg.Info)
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			for _, d := range pass.Diagnostics() {
				t.Errorf("%s: %s: %s", fset.Position(d.Pos), d.Analyzer, d.Message)
			}
			for _, s := range pass.Suppressed() {
				used[fmt.Sprintf("%s:%d", s.DirectiveFile, s.DirectiveLine)] = true
			}
		}
		for _, d := range analysis.ParseDirectives(fset, pkg.Files) {
			site := fmt.Sprintf("%s:%d", d.File, d.Line)
			if d.Problem != "" {
				t.Errorf("%s: %s", site, d.Problem)
				continue
			}
			for _, name := range d.Analyzers {
				if !registered[name] {
					t.Errorf("%s: directive names unregistered analyzer %q", site, name)
				}
			}
			if !used[site] {
				t.Errorf("%s: //lint:allow %v silences nothing", site, d.Analyzers)
			}
		}
	}
	if checked != 1 {
		t.Fatalf("loaded repro/bench %d times, want once", checked)
	}
}
