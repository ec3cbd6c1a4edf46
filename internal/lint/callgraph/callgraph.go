// Package callgraph builds a package-local call graph for the
// interprocedural repolint analyzers. Each function declaration and
// each function literal in the package is a node; edges record
// same-package static calls plus lexical containment (a function "may
// execute" every literal it creates — conservatively true for the
// closures this repository schedules on the sim engine or hands to
// exec.Map). Each node records which package-level variables it writes
// and whether a mutex Lock lexically precedes each write; shardown
// reads that fact.
//
// Facts propagate by graph reachability: an analyzer picks root nodes
// (an exec.Map worker closure, an exported simulator function, a
// //lint:hotpath root) and folds the facts of everything reachable
// from them; Summaries memoizes per-function results for the value
// analyzers. Cross-package calls are not followed — instead every
// intra-module package is analyzed with its own roots, which closes
// the module-wide argument package by package without whole-program
// analysis.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// A Write is one store to a package-level variable.
type Write struct {
	Pos token.Pos
	Var *types.Var
	// Guarded reports that a sync.Mutex/RWMutex Lock call lexically
	// precedes the write inside the same function body — the
	// straight-line "mu.Lock(); v++; mu.Unlock()" shape. This is a
	// lexical approximation, not a lockset analysis: it accepts the
	// discipline the repository uses and documents, nothing fancier.
	Guarded bool
}

// A Node is one function declaration or function literal.
type Node struct {
	// Name is the display name: "Run", "(*Runner).Run", or
	// "RunOnce$2" for the second literal created inside RunOnce.
	Name string
	// Fn is the declared function's object; nil for literals.
	Fn *types.Func
	// Decl is the declaration syntax (signature, doc comment); nil for
	// literals. Summary-building analyzers need it to interpret a
	// node's results and annotations.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Body is the function's own body (nested literals excluded —
	// they are their own nodes, linked by a containment edge).
	Body *ast.BlockStmt

	// GlobalWrites lists stores whose base resolves to a package-level
	// variable (of this package or an imported one).
	GlobalWrites []Write
	// Calls holds same-package static callees plus lexically contained
	// literals, in source order, deduplicated.
	Calls []*Node

	// locks holds positions of Lock/RLock calls on sync mutexes within
	// this body, for the lexical guard check.
	locks []token.Pos
}

// A Graph is the package-local call graph.
type Graph struct {
	Nodes []*Node

	byFn  map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
}

// NodeOf returns the node for a declared function's object, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFn[fn] }

// LitNode returns the node for a function literal, or nil.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// Build constructs the call graph for one type-checked package.
func Build(fset *token.FileSet, files []*ast.File, info *types.Info) *Graph {
	g := &Graph{
		byFn:  make(map[*types.Func]*Node),
		byLit: make(map[*ast.FuncLit]*Node),
	}

	// First pass: create a node per declaration, then one per literal
	// (attributed to the enclosing declaration for naming).
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			n := &Node{Name: declName(fd), Body: fd.Body, Decl: fd}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				n.Fn = obj
				g.byFn[obj] = n
			}
			g.Nodes = append(g.Nodes, n)
			g.addLiterals(n, fd.Body)
		}
		// Package-level variable initializers can hold literals too.
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					holder := &Node{Name: "init"}
					count := len(g.Nodes)
					g.addLiterals(holder, v)
					if len(holder.Calls) > 0 || len(g.Nodes) > count {
						// Only keep the synthetic holder if it found
						// literals to anchor.
						g.Nodes = append(g.Nodes, holder)
					}
				}
			}
		}
	}

	// Second pass: facts and edges for every node's own body.
	for _, n := range g.Nodes {
		if n.Body != nil {
			g.analyze(n, n.Body, info)
		}
	}
	return g
}

// addLiterals creates nodes for every function literal inside root
// (which belongs to parent) and links containment edges parent -> lit.
// Nesting is preserved: a literal inside a literal belongs to the inner
// one.
func (g *Graph) addLiterals(parent *Node, root ast.Node) {
	var walk func(owner *Node, node ast.Node)
	walk = func(owner *Node, node ast.Node) {
		ast.Inspect(node, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			child := &Node{
				Name: fmt.Sprintf("%s$%d", owner.Name, countLits(owner)+1),
				Lit:  lit,
				Body: lit.Body,
			}
			g.byLit[lit] = child
			g.Nodes = append(g.Nodes, child)
			owner.Calls = append(owner.Calls, child)
			walk(child, lit.Body)
			return false // children of lit belong to child
		})
	}
	// Inspect root's immediate subtree but skip root itself if it is
	// the parent's own body.
	walk(parent, root)
}

func countLits(owner *Node) int {
	c := 0
	for _, n := range owner.Calls {
		if n.Lit != nil {
			c++
		}
	}
	return c
}

// analyze fills facts and call edges for node, walking its own body but
// not descending into nested literals (their facts are their own).
func (g *Graph) analyze(node *Node, body ast.Node, info *types.Info) {
	inspectOwn(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return // := introduces locals; it cannot store to a global
			}
			for _, lhs := range n.Lhs {
				g.recordWrite(node, lhs, info)
			}
		case *ast.IncDecStmt:
			g.recordWrite(node, n.X, info)
		case *ast.CallExpr:
			g.recordCall(node, n, info)
		}
	})
	// Guard resolution: a write is guarded when some Lock call in the
	// same body lexically precedes it.
	for i := range node.GlobalWrites {
		node.GlobalWrites[i].Guarded = LockedBefore(node, node.GlobalWrites[i].Pos)
	}
}

// LockedBefore reports whether a mutex Lock/RLock call inside node's
// own body lexically precedes pos.
func LockedBefore(node *Node, pos token.Pos) bool {
	for _, l := range node.locks {
		if l < pos {
			return true
		}
	}
	return false
}

// inspectOwn walks body without entering nested function literals.
func inspectOwn(body ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && !first {
			return false
		}
		first = false
		fn(n)
		return true
	})
}

// recordWrite adds a GlobalWrites entry when the store's base variable
// is package-level.
func (g *Graph) recordWrite(node *Node, lhs ast.Expr, info *types.Info) {
	v := BaseVar(lhs, info)
	if v == nil || v.Pkg() == nil {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return // local, parameter, or field
	}
	node.GlobalWrites = append(node.GlobalWrites, Write{Pos: lhs.Pos(), Var: v})
}

// BaseVar unwraps an lvalue chain (x, x.f, x[i], *x, pkg.V, and
// combinations) to the variable at its base, or nil when the base is
// not a simple variable.
func BaseVar(e ast.Expr, info *types.Info) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					v, _ := info.Uses[x.Sel].(*types.Var)
					return v
				}
			}
			e = x.X
		case *ast.Ident:
			if v, ok := identObj(x, info).(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

func identObj(id *ast.Ident, info *types.Info) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// recordCall classifies one call: a same-package static call becomes an
// edge, and a sync mutex Lock/RLock is recorded for the guard check.
// Immediately-invoked literals are covered by the containment edge
// addLiterals adds; other calls (function values, interface methods,
// other packages) add nothing.
func (g *Graph) recordCall(node *Node, call *ast.CallExpr, info *types.Info) {
	fun := ast.Unparen(call.Fun)
	// Generic instantiations: exec.Map[int](...) arrives as an index
	// expression over the selector.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	switch fn := fun.(type) {
	case *ast.Ident:
		if obj, ok := identObj(fn, info).(*types.Func); ok {
			g.edge(node, obj)
		}
	case *ast.SelectorExpr:
		obj, ok := identObj(fn.Sel, info).(*types.Func)
		if !ok {
			return
		}
		if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "sync" && (obj.Name() == "Lock" || obj.Name() == "RLock") {
			node.locks = append(node.locks, call.Pos())
			return
		}
		g.edge(node, obj)
	}
}

// edge links node to the callee when the callee is declared in this
// package.
func (g *Graph) edge(node *Node, callee *types.Func) {
	target, ok := g.byFn[callee]
	if !ok {
		return
	}
	for _, c := range node.Calls {
		if c == target {
			return
		}
	}
	node.Calls = append(node.Calls, target)
}

// Reachable returns every node reachable from the roots (including the
// roots themselves) together with, for each node, the root it was first
// reached from — for diagnostics that explain why a function is on a
// hot path.
func (g *Graph) Reachable(roots ...*Node) map[*Node]*Node {
	seen := make(map[*Node]*Node)
	var visit func(n, root *Node)
	visit = func(n, root *Node) {
		if n == nil {
			return
		}
		if _, ok := seen[n]; ok {
			return
		}
		seen[n] = root
		for _, c := range n.Calls {
			visit(c, root)
		}
	}
	for _, r := range roots {
		visit(r, r)
	}
	return seen
}

// Summaries memoizes one interprocedural summary per declared function
// of a graph — the shape detflow and both rangecheck domains compose
// same-package calls with. Each summary is computed at most once; a
// call that re-enters a function whose summary is still being computed
// (recursion) gets the analyzer's conservative cycle value instead.
type Summaries[S any] struct {
	g       *Graph
	cycle   S
	compute func(fn *types.Func, n *Node) S
	done    map[*types.Func]S
	running map[*types.Func]bool
}

// NewSummaries returns an empty memo over g that computes a missing
// summary with compute and answers recursive requests with cycle.
func NewSummaries[S any](g *Graph, cycle S, compute func(fn *types.Func, n *Node) S) *Summaries[S] {
	return &Summaries[S]{
		g:       g,
		cycle:   cycle,
		compute: compute,
		done:    make(map[*types.Func]S),
		running: make(map[*types.Func]bool),
	}
}

// Of returns fn's summary. ok is false when fn is not declared with a
// body in the graph's package, so the caller falls back to its
// cross-package default.
func (s *Summaries[S]) Of(fn *types.Func) (sum S, ok bool) {
	n := s.g.NodeOf(fn)
	if n == nil || n.Decl == nil {
		return sum, false
	}
	if sum, ok := s.done[fn]; ok {
		return sum, true
	}
	if s.running[fn] {
		return s.cycle, true
	}
	s.running[fn] = true
	sum = s.compute(fn, n)
	delete(s.running, fn)
	s.done[fn] = sum
	return sum, true
}

// declName renders a function declaration's display name, qualifying
// methods with their receiver type: "(*Runner).Run" or "Table.At".
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	return "(" + typeText(recv) + ")." + fd.Name.Name
}

func typeText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeText(t.X)
	case *ast.IndexExpr:
		return typeText(t.X)
	case *ast.IndexListExpr:
		return typeText(t.X)
	}
	return "?"
}
