// Package analysistest runs an analyzer over golden fixture packages
// and checks its diagnostics against "// want" expectations embedded in
// the fixture source, mirroring the x/tools package of the same name.
//
// Fixtures live in GOPATH-style layout under a testdata directory:
//
//	testdata/src/<import/path>/<files>.go
//
// and each line that should trigger a diagnostic carries a comment of
// one or more quoted regular expressions:
//
//	wall := time.Now() // want `time\.Now`
//
// Every diagnostic must match a want on its exact file and line, and
// every want must be matched by exactly one diagnostic; either kind of
// mismatch fails the test. A fixture line whose diagnostic is
// suppressed by //lint:allow simply carries no want comment — if the
// suppression were to stop working, the unexpected diagnostic fails
// the test, which is how the escape hatch itself stays tested.
//
// Fixtures import the module's own packages, type-checked from source,
// so they exercise the analyzers against the real APIs: renaming an API
// a fixture calls fails the fixture too. A fixture sits under
// testdata/src/repro/... only where an analyzer scopes by import path
// (a simulator package, say).
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// Run loads each fixture package from dir/src/<path>, applies the
// analyzer, and reports expectation mismatches through t.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, path := range pkgPaths {
		runOne(t, dir, a, path)
	}
}

// TestData returns the absolute path of the testdata directory of the
// caller's package, following the x/tools convention.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func runOne(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	pkg, err := Load(dir, pkgPath)
	if err != nil {
		t.Fatalf("%s: loading fixture %s: %v", a.Name, pkgPath, err)
	}

	pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer failed on %s: %v", a.Name, pkgPath, err)
	}

	matched := make([]bool, len(pkg.Wants))
	for _, d := range pass.Diagnostics() {
		p := pkg.Fset.Position(d.Pos)
		found := false
		for i, w := range pkg.Wants {
			if !matched[i] && w.Matches(p, d.Message) {
				matched[i], found = true, true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, p.Filename, p.Line, d.Message)
		}
	}
	for i, w := range pkg.Wants {
		if !matched[i] {
			t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none",
				a.Name, w.Re.String(), w.File, w.Line)
		}
	}
}

// A Package is one parsed and type-checked fixture package together
// with the "// want" expectations of its files, in source order.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Wants []Want
}

// Load parses and type-checks the fixture package dir/src/<pkgPath>.
// An import resolves to a fixture directory that holds Go files, then
// to a package of the module holding dir, type-checked from source,
// then to the standard library.
func Load(dir, pkgPath string) (*Package, error) {
	fset := token.NewFileSet()
	module, err := loader.NewImporter(fset, dir)
	if err != nil {
		return nil, err
	}
	ld := &fixtureLoader{root: filepath.Join(dir, "src"), fset: fset, module: module, loaded: make(map[string]*types.Package)}
	files, tpkg, info, err := ld.loadDir(pkgPath)
	if err != nil {
		return nil, err
	}
	wants, err := collectWants(fset, files)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: tpkg, Info: info, Wants: wants}, nil
}

// fixtureLoader parses and type-checks fixture packages.
type fixtureLoader struct {
	root   string
	fset   *token.FileSet
	module types.Importer
	loaded map[string]*types.Package
}

// Import resolves path to a fixture package when its directory holds
// Go files: testdata/src/repro/internal/sim only parents fixture
// packages, so repro/internal/sim is the module's own.
func (ld *fixtureLoader) Import(path string) (*types.Package, error) {
	if p, ok := ld.loaded[path]; ok {
		return p, nil
	}
	if goFiles, _ := filepath.Glob(filepath.Join(ld.root, path, "*.go")); len(goFiles) > 0 {
		_, tpkg, _, err := ld.loadDir(path)
		return tpkg, err
	}
	return ld.module.Import(path)
}

func (ld *fixtureLoader) loadDir(pkgPath string) ([]*ast.File, *types.Package, *types.Info, error) {
	dir := filepath.Join(ld.root, pkgPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := loader.NewInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(pkgPath, ld.fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking: %v", err)
	}
	ld.loaded[pkgPath] = tpkg
	return files, tpkg, info, nil
}

// A Want is one expectation: a regexp that a diagnostic on a specific
// line must match.
type Want struct {
	File string
	Line int
	Re   *regexp.Regexp
}

// Matches reports whether a diagnostic at p with message msg meets w.
func (w Want) Matches(p token.Position, msg string) bool {
	return w.File == p.Filename && w.Line == p.Line && w.Re.MatchString(msg)
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// quotedRE matches one Go string literal, double-quoted or backquoted.
var quotedRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(fset *token.FileSet, files []*ast.File) ([]Want, error) {
	var wants []Want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, Want{File: pos.Filename, Line: pos.Line, Re: re})
				}
			}
		}
	}
	return wants, nil
}
