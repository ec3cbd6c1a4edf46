// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects
// one type-checked package at a time through a Pass and reports
// position-anchored Diagnostics.
//
// The repository must build offline with the standard library only, so
// we cannot vendor x/tools; this package provides the same architecture
// (analyzers are plain values, drivers decide how packages are loaded)
// with the two features the repolint suite needs on top: a shared
// suppression convention ("//lint:allow <analyzer>" on the offending
// line or the line above) and a tiny set of type-resolution helpers.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//lint:allow <name>" suppression comments. It must be a valid
	// Go identifier.
	Name string

	// Doc is the one-paragraph description shown by repolint -help.
	Doc string

	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A SuppressedDiagnostic is a finding an analyzer produced that a
// "//lint:allow" directive silenced, together with the directive that
// did so. Drivers use it for -json reporting and the suppression
// meta-test uses it to prove every directive still earns its keep.
type SuppressedDiagnostic struct {
	Diagnostic
	// DirectiveFile/DirectiveLine locate the directive that covered
	// the diagnostic (the diagnostic's own line or the line above).
	DirectiveFile string
	DirectiveLine int
}

// A Pass connects an Analyzer to the single package being analyzed.
// Drivers populate every field; analyzers only read them and call
// Report/Reportf.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File // syntax trees, with comments
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
	suppressed  []SuppressedDiagnostic
	allow       suppressions
}

// NewPass builds a Pass and indexes the files' "//lint:allow" comments
// so Reportf can drop suppressed diagnostics.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		allow:     indexSuppressions(fset, files),
	}
}

// Reportf records a diagnostic at pos unless a "//lint:allow" comment
// naming this analyzer covers the position's line (or the line above,
// for suppressions written on their own line). Suppressed diagnostics
// are retained and available through Suppressed, so drivers can report
// them and the suppression meta-test can detect directives that no
// longer silence anything.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if file, line, ok := p.allow.covers(p.Fset, pos, p.Analyzer.Name); ok {
		p.suppressed = append(p.suppressed, SuppressedDiagnostic{
			Diagnostic:    d,
			DirectiveFile: file,
			DirectiveLine: line,
		})
		return
	}
	p.diagnostics = append(p.diagnostics, d)
}

// Diagnostics returns the findings recorded so far, in source order.
func (p *Pass) Diagnostics() []Diagnostic {
	out := make([]Diagnostic, len(p.diagnostics))
	copy(out, p.diagnostics)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Suppressed returns the diagnostics that "//lint:allow" directives
// silenced, in source order.
func (p *Pass) Suppressed() []SuppressedDiagnostic {
	out := make([]SuppressedDiagnostic, len(p.suppressed))
	copy(out, p.suppressed)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// A Directive is one parsed "//lint:allow" suppression comment. The
// grammar is deliberately rigid so suppressions stay greppable and
// auditable:
//
//	//lint:allow <analyzer>[,<analyzer>...] (<reason>)
//
// The comment must begin exactly with "//lint:allow" (prose that merely
// mentions the marker, like this paragraph, is not a directive), the
// analyzer list is comma-separated, and the reason is a non-empty
// parenthesized explanation. Problem records the first grammar
// violation; a directive with a non-empty Problem still suppresses (so
// a typo never un-gates a build silently) but fails the repository's
// suppression meta-test.
type Directive struct {
	Pos       token.Pos
	File      string
	Line      int
	Analyzers []string
	Reason    string
	Problem   string // "" when well-formed
}

const allowMarker = "//lint:allow"

// ParseDirectives extracts every "//lint:allow" directive from the
// files, in source order. Only comments that start exactly with the
// marker count; the directive applies to its own line and the line
// below (for a directive written on its own line).
func ParseDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowMarker) {
					continue
				}
				pos := fset.Position(c.Pos())
				d := Directive{Pos: c.Pos(), File: pos.Filename, Line: pos.Line}
				rest := c.Text[len(allowMarker):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					d.Problem = "malformed directive: expected a space after //lint:allow"
					out = append(out, d)
					continue
				}
				rest = strings.TrimSpace(rest)
				names := rest
				if i := strings.IndexAny(rest, " \t("); i >= 0 {
					names = rest[:i]
					rest = strings.TrimSpace(rest[i:])
				} else {
					rest = ""
				}
				for _, name := range strings.Split(names, ",") {
					if name = strings.TrimSpace(name); name != "" {
						d.Analyzers = append(d.Analyzers, name)
					}
				}
				switch {
				case len(d.Analyzers) == 0:
					d.Problem = "malformed directive: missing analyzer name"
				case !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")"):
					d.Problem = "missing (reason)"
				case strings.TrimSpace(rest[1:len(rest)-1]) == "":
					d.Problem = "empty (reason)"
				default:
					d.Reason = strings.TrimSpace(rest[1 : len(rest)-1])
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// suppressions maps file name -> line -> analyzer names allowed there.
type suppressions map[string]map[int][]string

// indexSuppressions folds parsed directives into the per-line lookup
// Reportf consults. Malformed directives still index (suppression must
// never silently stop working because of a typo in the reason); the
// suppression meta-test is where malformedness fails the build.
func indexSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	s := make(suppressions)
	for _, d := range ParseDirectives(fset, files) {
		lines := s[d.File]
		if lines == nil {
			lines = make(map[int][]string)
			s[d.File] = lines
		}
		lines[d.Line] = append(lines[d.Line], d.Analyzers...)
	}
	return s
}

// covers reports whether analyzer name is allowed at pos — by a
// directive on the same line, or on the line directly above (a comment
// on its own line applying to the statement below) — and if so, which
// file and line the directive sits on.
func (s suppressions) covers(fset *token.FileSet, pos token.Pos, name string) (file string, line int, ok bool) {
	p := fset.Position(pos)
	lines := s[p.Filename]
	if lines == nil {
		return "", 0, false
	}
	for _, l := range []int{p.Line, p.Line - 1} {
		for _, n := range lines[l] {
			if n == name {
				return p.Filename, l, true
			}
		}
	}
	return "", 0, false
}

// IsTestFile reports whether the file containing pos is a _test.go
// file. The repolint analyzers police production code only; tests may
// panic, compare floats from golden values, and seed randomness freely.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// simulatorPkgs are the packages a simulation cell executes or derives
// its results in: their results must be a pure function of (config,
// seed), and any of their exported functions may run inside a
// concurrently running cell.
var simulatorPkgs = []string{
	"repro/internal/analysis",
	"repro/internal/campaign",
	"repro/internal/cluster",
	"repro/internal/core",
	"repro/internal/dvfs",
	"repro/internal/dvs",
	"repro/internal/machine",
	"repro/internal/meter",
	"repro/internal/mpi",
	"repro/internal/netsim",
	"repro/internal/power",
	"repro/internal/powerpack",
	"repro/internal/report",
	"repro/internal/sim",
	"repro/internal/stats",
	"repro/internal/trace",
	"repro/internal/workloads",
}

// IsSimulatorPackage reports whether path is a simulator package or
// one of its subpackages. detflow bans nondeterminism sources in them
// and treats their exported results as sinks; shardown roots its
// package-level-write check at their exported functions.
func IsSimulatorPackage(path string) bool {
	for _, p := range simulatorPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// UsedPackage resolves a selector expression like time.Now to the
// import path of the package qualifier ("time") if the expression's X
// really is a package name (not a shadowing variable). ok is false for
// field/method selections.
func UsedPackage(info *types.Info, sel *ast.SelectorExpr) (path string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", false
	}
	return pn.Imported().Path(), true
}

// FuncDeclName renders a declaration's name for diagnostics: "Run",
// "Runner.Run", or "(*Runner).Run".
func FuncDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// IsPackageFunc reports whether call's callee is the package-level
// function pkgPath.name (e.g. "time".Now).
func IsPackageFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	path, ok := UsedPackage(info, sel)
	return ok && path == pkgPath
}

// WalkFuncs invokes fn for every function body in the files, passing
// the enclosing declaration's name ("" for package-level variable
// initializers). Function literals are visited as part of the function
// that lexically encloses them, so a panic inside a closure inside
// MustX is still attributed to MustX.
func WalkFuncs(files []*ast.File, fn func(name string, body ast.Node)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Name.Name, d.Body)
				}
			case *ast.GenDecl:
				// var initializers can contain function literals
				// and even direct calls; attribute them to "".
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							fn("", v)
						}
					}
				}
			}
		}
	}
}
