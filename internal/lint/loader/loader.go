// Package loader loads and type-checks the module's packages for the
// repolint analyzers without any dependency outside the standard
// library. It shells out to "go list -json" for package discovery
// (respecting build constraints and the testdata exclusion exactly as
// the go tool does) and then parses and type-checks each package with
// go/parser and go/types, resolving intra-module imports recursively
// and standard-library imports through the compiler's export data,
// whose files one "go list -export" finds.
//
// It is the engine behind "repolint ./...", the repo-wide clean-lint
// meta-tests and, through NewImporter, the analyzer fixtures, which
// type-check against the module's own packages.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of "go list -json" output we consume.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	DepOnly    bool // imported by the patterns' packages, not matched
}

// A listing is what "go list" reports for a set of patterns.
type listing struct {
	dir     string
	pkgs    map[string]*listedPackage // the non-standard packages matched or imported
	matched []string                  // the matched ones' import paths, sorted
}

// Load discovers the packages matching patterns (e.g. "./...") relative
// to dir, parses their non-test Go files with comments, and type-checks
// them in dependency order. All packages share fset.
func Load(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	ld := newModuleLoader(fset, l)
	var pkgs []*Package
	for _, path := range l.matched {
		if len(l.pkgs[path].GoFiles) == 0 {
			continue // test-only package, e.g. internal/lint itself
		}
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goList runs "go list -deps" over patterns in dir. Listing the
// dependencies too means a pattern need not cover its packages' module
// imports.
func goList(dir string, patterns []string) (*listing, error) {
	out, err := goCmd(dir, append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	l := &listing{dir: dir, pkgs: make(map[string]*listedPackage)}
	var std []string
	for dec := json.NewDecoder(out); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Standard {
			std = append(std, p.ImportPath)
			continue
		}
		l.pkgs[p.ImportPath] = &p
		if !p.DepOnly {
			l.matched = append(l.matched, p.ImportPath)
		}
	}
	sort.Strings(l.matched)
	_, err = exportFiles(dir, std...)
	return l, err
}

// exports maps a standard-library import path to its export data file,
// for the whole process, as importer.Default's lookups are cached.
var exports struct {
	sync.Mutex
	files map[string]string
}

// exportFiles returns the export data files of the standard-library
// packages paths. It looks up the ones not yet known with one
// "go list -export", where importer.Default runs the go command once
// per package (about 70 ms each).
func exportFiles(dir string, paths ...string) (map[string]string, error) {
	exports.Lock()
	defer exports.Unlock()
	var missing []string
	for _, path := range paths {
		if _, ok := exports.files[path]; !ok {
			missing = append(missing, path)
		}
	}
	if len(missing) > 0 {
		out, err := goCmd(dir, append([]string{"list", "-export", "-json=ImportPath,Export"}, missing...)...)
		if err != nil {
			return nil, err
		}
		if exports.files == nil {
			exports.files = make(map[string]string)
		}
		for dec := json.NewDecoder(out); dec.More(); {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err != nil {
				return nil, fmt.Errorf("go list: decoding output: %v", err)
			}
			exports.files[p.ImportPath] = p.Export
		}
	}
	files := make(map[string]string, len(paths))
	for _, path := range paths {
		files[path] = exports.files[path]
	}
	return files, nil
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) (*bytes.Buffer, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", args[0], err, stderr.String())
	}
	return &stdout, nil
}

// NewImporter returns an importer that type-checks the packages of
// the module holding dir from source into fset, each once, and imports
// any other path (the standard library) from the compiler's export
// data. The module is listed at its root ("./..." inside a testdata
// directory lists nothing) once per process.
func NewImporter(fset *token.FileSet, dir string) (types.Importer, error) {
	l, err := listModule(dir)
	if err != nil {
		return nil, err
	}
	return newModuleLoader(fset, l), nil
}

// modules memoizes listModule by module root.
var modules struct {
	sync.Mutex
	listed map[string]*listing
}

// listModule lists the packages of the module holding dir.
func listModule(dir string) (*listing, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod above %s", dir)
		}
		root = parent
	}
	modules.Lock()
	defer modules.Unlock()
	if l, ok := modules.listed[root]; ok {
		return l, nil
	}
	l, err := goList(root, []string{"./..."})
	if err != nil {
		return nil, err
	}
	if modules.listed == nil {
		modules.listed = make(map[string]*listing)
	}
	modules.listed[root] = l
	return l, nil
}

// moduleLoader type-checks listed packages on demand, memoizing results
// so shared dependencies are checked once.
type moduleLoader struct {
	*listing
	fset   *token.FileSet
	std    types.Importer
	loaded map[string]*Package
	stack  []string // cycle detection
}

func newModuleLoader(fset *token.FileSet, l *listing) *moduleLoader {
	ld := &moduleLoader{listing: l, fset: fset, loaded: make(map[string]*Package)}
	ld.std = importer.ForCompiler(fset, "gc", ld.export)
	return ld
}

// export opens the export data of a standard-library package. One the
// listing does not name (a fixture's own import, say) costs one more
// go list.
func (ld *moduleLoader) export(path string) (io.ReadCloser, error) {
	files, err := exportFiles(ld.dir, path)
	if err != nil {
		return nil, err
	}
	return os.Open(files[path])
}

// Import implements types.Importer: intra-module imports are loaded
// from source, everything else (the standard library) comes from the
// compiler's export data.
func (ld *moduleLoader) Import(path string) (*types.Package, error) {
	if _, ok := ld.pkgs[path]; ok {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return ld.std.Import(path)
}

func (ld *moduleLoader) load(path string) (*Package, error) {
	if p, ok := ld.loaded[path]; ok {
		return p, nil
	}
	for _, on := range ld.stack {
		if on == path {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
	}
	ld.stack = append(ld.stack, path)
	defer func() { ld.stack = ld.stack[:len(ld.stack)-1] }()

	meta := ld.pkgs[path]
	var files []*ast.File
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := NewInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	p := &Package{
		ImportPath: path,
		Dir:        meta.Dir,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	ld.loaded[path] = p
	return p, nil
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
