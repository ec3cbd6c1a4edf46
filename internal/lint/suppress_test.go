package lint

import (
	"fmt"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/repolint"
)

// TestSuppressionInventory holds every "//lint:allow" directive in the
// module to the grammar and to usefulness:
//
//   - it must be well-formed: "//lint:allow <analyzer>[,...] (<reason>)"
//     with a non-empty reason (a malformed directive still suppresses,
//     so a typo never un-gates a build silently — this test is where
//     malformedness fails instead);
//   - every analyzer it names must be registered in the repolint suite;
//   - it must still silence at least one diagnostic from at least one
//     of the analyzers it names. A directive that suppresses nothing is
//     debt pretending to be load-bearing, and goes stale the moment the
//     code it excused is fixed or deleted.
//
// The inventory covers production files only: the loader skips _test.go
// files, matching the analyzers, which do not police tests.
func TestSuppressionInventory(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is not short")
	}
	m := lintModule(t)

	// One shared registry: the same repolint.All() slice cmd/repolint
	// runs, so an analyzer cannot be "registered" for the
	// directive-grammar check yet missing from the load-bearing check.
	registered := make(map[string]bool)
	for _, a := range repolint.All() {
		registered[a.Name] = true
	}

	// Which (file, line) directive sites actually silenced a diagnostic,
	// according to the full suite.
	used := make(map[string]bool)
	for _, r := range m.runs {
		if r.err != nil {
			t.Fatalf("%s: %s: %v", r.pass.Analyzer.Name, r.pkg.ImportPath, r.err)
		}
		for _, s := range r.pass.Suppressed() {
			used[fmt.Sprintf("%s:%d", s.DirectiveFile, s.DirectiveLine)] = true
		}
	}

	total := 0
	for _, pkg := range m.pkgs {
		for _, d := range analysis.ParseDirectives(m.fset, pkg.Files) {
			total++
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
				t.Errorf("%s: unused suppression: //lint:allow %v no longer silences any diagnostic",
					site, d.Analyzers)
			}
		}
	}
	if total == 0 {
		t.Error("found no //lint:allow directives; the inventory walk is broken " +
			"(the panicfree allows in internal/ should be visible)")
	}
	t.Logf("suppression inventory: %d directives, all well-formed, registered, and load-bearing", total)
}
