package lint

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/repolint"
)

// TestFixtureCrossMatrix measures each analyzer's marginal value: it
// runs every registered analyzer over every fixture package and fails
// when
//
//   - a seeded violation (a "// want" line) is reported by no analyzer,
//     or
//   - a registered analyzer has no seeded violation that only it
//     reports — no other analyzer has any diagnostic on that line.
//
// An analyzer whose every catch another analyzer also makes adds cost
// without coverage; fold it into the one that subsumes it.
//
// The per-analyzer unique-catch counts are pinned in uniqueCatches, so
// a change that moves a catch from one analyzer to another, or adds or
// drops a seeded violation, shows up as an edit to that map.
func TestFixtureCrossMatrix(t *testing.T) {
	dir := filepath.Join(moduleRoot(t), "internal", "lint", "testdata")
	suite := repolint.All()
	unique := make(map[string]int) // analyzer -> seeded violations only it reports
	for _, path := range fixturePackages(t, filepath.Join(dir, "src")) {
		pkg, err := analysistest.Load(dir, path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		reporters := make(map[string]map[string]bool) // "file:line" -> analyzers with a diagnostic there
		matchedBy := make([]string, len(pkg.Wants))
		for _, a := range suite {
			pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s: %s: %v", a.Name, path, err)
			}
			for _, d := range pass.Diagnostics() {
				p := pkg.Fset.Position(d.Pos)
				site := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				if reporters[site] == nil {
					reporters[site] = make(map[string]bool)
				}
				reporters[site][a.Name] = true
				for i, w := range pkg.Wants {
					if w.Matches(p, d.Message) {
						matchedBy[i] = a.Name
					}
				}
			}
		}
		for i, w := range pkg.Wants {
			site := fmt.Sprintf("%s:%d", w.File, w.Line)
			switch {
			case matchedBy[i] == "":
				t.Errorf("%s: want %q is reported by no analyzer", site, w.Re)
			case len(reporters[site]) == 1:
				unique[matchedBy[i]]++
			}
		}
	}
	for _, a := range suite {
		if unique[a.Name] == 0 {
			t.Errorf("analyzer %s has no seeded violation that only it reports; "+
				"fold it into the analyzer that subsumes it, or seed what only it catches", a.Name)
		}
	}
	if got, want := fmt.Sprint(unique), fmt.Sprint(uniqueCatches); got != want {
		t.Errorf("seeded violations only one analyzer reports: %s, pinned %s", got, want)
	}
}

// uniqueCatches pins, per analyzer, the number of fixture wants that
// only that analyzer reports. The one want site two analyzers share is
// testdata/src/fixtures/typestate/typestate.go:160 (rangecheck and
// typestate), which counts for neither.
var uniqueCatches = map[string]int{
	"detflow":    12,
	"erraudit":   5,
	"floateq":    3,
	"hotalloc":   8,
	"panicfree":  3,
	"rangecheck": 24,
	"shardown":   24,
	"typestate":  17,
	"unitsafety": 8,
}

// fixturePackages lists the import path of every directory under src
// that holds Go files.
func fixturePackages(t *testing.T, src string) []string {
	t.Helper()
	seen := make(map[string]bool)
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			rel, err := filepath.Rel(src, filepath.Dir(path))
			if err != nil {
				return err
			}
			seen[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
