// Package hotalloc defines the hot-path allocation analyzer. PR 2 made
// the simulator's Schedule/Sleep/wake round trip allocation-free (48 B
// and 3 allocs per ProcessSwitch down to 0/0), which is worth real
// throughput at campaign scale; hotalloc turns that from a sampled
// benchmark property into a statically enforced one.
//
// A function opts in with the annotation
//
//	//lint:hotpath
//
// written in a declaration's doc comment, or on the line immediately
// above a function literal. Every function transitively reachable from
// an annotated root over the package-local call graph
// (internal/lint/callgraph) is then checked for allocation-inducing
// constructs:
//
//   - append (may grow the backing array)
//   - make, new, and map/slice composite literals, &T{...}
//   - function literals that capture variables (a capturing closure
//     heap-allocates its environment; non-capturing literals are free)
//   - any fmt call (formatting boxes its operands and builds strings)
//   - storing or passing a non-pointer-shaped concrete value where an
//     interface is expected (boxing; constants are ignored because the
//     compiler materializes them statically)
//   - go statements (a goroutine allocates its stack)
//
// Helpers whose entire body is a single panic call are exempt: they
// are the cold "impossible input" path, executed at most once per
// process death. Everything else needs either a fix or a
// //lint:allow hotalloc (reason) suppression, and a //lint:hotpath
// marker that fails to attach to a function is itself reported so
// annotations cannot rot silently.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
)

// Marker is the annotation that declares a hot-path root.
const Marker = "//lint:hotpath"

// Analyzer enforces allocation-free code on //lint:hotpath routes.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid allocation-inducing constructs (append, make/new, capturing " +
		"closures, fmt, interface boxing, go statements) in functions reachable " +
		"from a //lint:hotpath annotation",
	Run: run,
}

func run(pass *analysis.Pass) error {
	var files []*ast.File
	for _, f := range pass.Files {
		if !analysis.IsTestFile(pass.Fset, f.Pos()) {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil
	}
	g := callgraph.Build(pass.Fset, files, pass.TypesInfo)

	roots, dangling := findRoots(pass, files, g)
	for _, pos := range dangling {
		pass.Reportf(pos, "//lint:hotpath does not attach to a function declaration's "+
			"doc comment or the line above a function literal")
	}
	if len(roots) == 0 {
		return nil
	}

	reached := g.Reachable(roots...)
	c := &checker{pass: pass, g: g}
	for node, root := range reached {
		if node.Body == nil || isColdPanicHelper(node, pass.TypesInfo) {
			continue
		}
		c.checkBody(node, "//lint:hotpath root "+root.Name)
	}
	return nil
}

// findRoots resolves every Marker comment to the function it annotates:
// a declaration whose doc group contains it, or a literal starting on
// the marker's line or the one below. Unattached markers are returned
// as dangling positions.
func findRoots(pass *analysis.Pass, files []*ast.File, g *callgraph.Graph) (roots []*callgraph.Node, dangling []token.Pos) {
	type marker struct {
		pos  token.Pos
		line int
		used bool
	}
	markersByFile := make(map[*ast.File][]*marker)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if isMarkerComment(cm.Text) {
					markersByFile[f] = append(markersByFile[f], &marker{
						pos:  cm.Pos(),
						line: pass.Fset.Position(cm.Pos()).Line,
					})
				}
			}
		}
	}
	for _, f := range files {
		marks := markersByFile[f]
		if len(marks) == 0 {
			continue
		}
		claim := func(line int) bool {
			for _, m := range marks {
				if m.line == line {
					m.used = true
					return true
				}
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Doc != nil {
					docClaimed := false
					for _, cm := range n.Doc.List {
						if isMarkerComment(cm.Text) {
							claim(pass.Fset.Position(cm.Pos()).Line)
							docClaimed = true
						}
					}
					if docClaimed {
						if node := nodeOfDecl(pass.TypesInfo, g, n); node != nil {
							roots = append(roots, node)
						}
					}
				}
			case *ast.FuncLit:
				line := pass.Fset.Position(n.Pos()).Line
				if claim(line-1) || claim(line) {
					if node := g.LitNode(n); node != nil {
						roots = append(roots, node)
					}
				}
			}
			return true
		})
		for _, m := range marks {
			if !m.used {
				dangling = append(dangling, m.pos)
			}
		}
	}
	return roots, dangling
}

func isMarkerComment(text string) bool {
	return text == Marker || strings.HasPrefix(text, Marker+" ")
}

func nodeOfDecl(info *types.Info, g *callgraph.Graph, fd *ast.FuncDecl) *callgraph.Node {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	return g.NodeOf(fn)
}

// isColdPanicHelper reports whether the node's whole body is one panic
// call — the "impossible input" pattern, cold by construction.
func isColdPanicHelper(node *callgraph.Node, info *types.Info) bool {
	if node.Body == nil || len(node.Body.List) != 1 {
		return false
	}
	es, ok := node.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

type checker struct {
	pass *analysis.Pass
	g    *callgraph.Graph
}

// checkBody scans one function's own statements (nested literals are
// their own reachable nodes) for allocation-inducing constructs.
func (c *checker) checkBody(node *callgraph.Node, why string) {
	info := c.pass.TypesInfo
	first := true
	ast.Inspect(node.Body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && !first {
			// Report the allocation of the closure itself here; its
			// body is checked as its own node.
			if cap := capturedVar(info, lit); cap != nil {
				kind := "variable"
				if isLoopVar(c.pass, node.Body, cap) {
					kind = "loop variable"
				}
				c.reportf(n.Pos(), node, why, "closure captures %s %q and heap-allocates its environment", kind, cap.Name())
			}
			return false
		}
		first = false
		switch n := n.(type) {
		case *ast.GoStmt:
			c.reportf(n.Pos(), node, why, "go statement allocates a goroutine stack")
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				c.reportf(n.Pos(), node, why, "map literal allocates")
			case *types.Slice:
				c.reportf(n.Pos(), node, why, "slice literal allocates its backing array")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.reportf(n.Pos(), node, why, "&composite literal escapes to the heap")
				}
			}
		case *ast.CallExpr:
			c.checkCall(n, node, why)
		case *ast.AssignStmt:
			c.checkAssignBoxing(n, node, why)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr, node *callgraph.Node, why string) {
	info := c.pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				c.reportf(call.Pos(), node, why, "append may grow the backing array")
			case "make":
				c.reportf(call.Pos(), node, why, "make allocates")
			case "new":
				c.reportf(call.Pos(), node, why, "new allocates")
			}
			return
		}
		if _, ok := info.Uses[id].(*types.TypeName); ok {
			return // conversion, handled by boxing check below if ifacial
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			c.reportf(call.Pos(), node, why, "fmt.%s formats into freshly allocated storage", fn.Name())
			return
		}
	}
	c.checkCallBoxing(call, node, why)
}

// checkCallBoxing flags concrete non-pointer-shaped arguments passed in
// interface positions (including variadic ...any), which the compiler
// boxes on the heap. Constants and nil are exempt: they are
// materialized statically.
func (c *checker) checkCallBoxing(call *ast.CallExpr, node *callgraph.Node, why string) {
	info := c.pass.TypesInfo
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || (!sig.Variadic() && i < sig.Params().Len()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				continue // passing an existing slice through: no boxing
			}
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if boxes(info, arg, pt) {
			c.reportf(arg.Pos(), node, why, "passing %s where %s is expected boxes the value on the heap",
				typeString(info, arg), pt.String())
		}
	}
}

// checkAssignBoxing flags stores of concrete values into
// interface-typed variables.
func (c *checker) checkAssignBoxing(as *ast.AssignStmt, node *callgraph.Node, why string) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	info := c.pass.TypesInfo
	for i, lhs := range as.Lhs {
		lt, ok := info.Types[lhs]
		if !ok || lt.Type == nil {
			continue
		}
		if boxes(info, as.Rhs[i], lt.Type) {
			c.reportf(as.Rhs[i].Pos(), node, why, "storing %s into interface-typed %s boxes the value on the heap",
				typeString(info, as.Rhs[i]), lt.Type.String())
		}
	}
}

// boxes reports whether assigning expr to an interface of type dst
// heap-allocates: dst is an interface, expr is a non-constant concrete
// value whose representation does not already fit in a pointer word.
func boxes(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return false
	}
	src := tv.Type
	switch src.Underlying().(type) {
	case *types.Interface:
		return false // interface-to-interface carries the existing box
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored directly in the iface word
	case *types.Basic:
		if src.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func typeString(info *types.Info, expr ast.Expr) string {
	if tv, ok := info.Types[expr]; ok && tv.Type != nil {
		return tv.Type.String()
	}
	return "value"
}

// capturedVar returns one variable the literal captures from its
// enclosing function, or nil if the literal is capture-free (and so
// does not allocate an environment).
func capturedVar(info *types.Info, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() == nil || v.Parent() == nil {
			return true
		}
		if v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture
		}
		// Declared outside the literal's extent ⇒ captured.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v
		}
		return true
	})
	return captured
}

// isLoopVar reports whether v is declared by a for/range statement in
// body — the classic capture-the-iteration-variable allocation.
func isLoopVar(pass *analysis.Pass, body ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.RangeStmt:
			for _, x := range []ast.Expr{n.Key, n.Value} {
				if id, ok := x.(*ast.Ident); ok && pass.TypesInfo.Defs[id] == v {
					found = true
				}
			}
		case *ast.ForStmt:
			if as, ok := n.Init.(*ast.AssignStmt); ok {
				for _, x := range as.Lhs {
					if id, ok := x.(*ast.Ident); ok && pass.TypesInfo.Defs[id] == v {
						found = true
					}
				}
			}
		}
		return true
	})
	return found
}

func (c *checker) reportf(pos token.Pos, node *callgraph.Node, why, format string, args ...any) {
	msg := "hot path: " + format + " in " + node.Name + " (reachable from " + why + ")"
	c.pass.Reportf(pos, msg, args...)
}
