package callgraph_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/loader"
)

const src = `package p

import (
	"sync"
	"sync/atomic"
)

var (
	counter int
	total   atomic.Int64
	mu      sync.Mutex
	guarded int
)

func leaf() { counter++ }

func middle() { leaf() }

func Root() { middle() }

func Locked() {
	mu.Lock()
	guarded++
	mu.Unlock()
}

func Atomic() { total.Add(1) }

func Closure() func() {
	return func() { counter = 5 }
}

`

func buildGraph(t *testing.T) (*callgraph.Graph, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := loader.NewInfo()
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return callgraph.Build(fset, []*ast.File{f}, info), pkg
}

func node(t *testing.T, g *callgraph.Graph, pkg *types.Package, name string) *callgraph.Node {
	t.Helper()
	fn, ok := pkg.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %s in package scope", name)
	}
	n := g.NodeOf(fn)
	if n == nil {
		t.Fatalf("no node for %s", name)
	}
	return n
}

func TestFactsAndEdges(t *testing.T) {
	g, pkg := buildGraph(t)

	leaf := node(t, g, pkg, "leaf")
	if len(leaf.GlobalWrites) != 1 || leaf.GlobalWrites[0].Var.Name() != "counter" {
		t.Errorf("leaf.GlobalWrites = %+v, want one write to counter", leaf.GlobalWrites)
	}
	if leaf.GlobalWrites[0].Guarded {
		t.Error("leaf's write must be unguarded")
	}

	locked := node(t, g, pkg, "Locked")
	if len(locked.GlobalWrites) != 1 || !locked.GlobalWrites[0].Guarded {
		t.Errorf("Locked.GlobalWrites = %+v, want one guarded write", locked.GlobalWrites)
	}

	atomicN := node(t, g, pkg, "Atomic")
	if len(atomicN.GlobalWrites) != 0 {
		t.Errorf("Atomic.GlobalWrites = %+v, want none (atomic ops are calls)", atomicN.GlobalWrites)
	}

	closure := node(t, g, pkg, "Closure")
	if len(closure.Calls) != 1 || closure.Calls[0].Lit == nil {
		t.Fatalf("Closure.Calls = %+v, want one containment edge to its literal", closure.Calls)
	}
	lit := closure.Calls[0]
	if lit.Name != "Closure$1" {
		t.Errorf("literal node name = %q, want Closure$1", lit.Name)
	}
	if len(lit.GlobalWrites) != 1 || lit.GlobalWrites[0].Var.Name() != "counter" {
		t.Errorf("literal GlobalWrites = %+v, want one write to counter", lit.GlobalWrites)
	}
	if len(closure.GlobalWrites) != 0 {
		t.Errorf("Closure.GlobalWrites = %+v, want none (the literal owns its facts)", closure.GlobalWrites)
	}
}

func TestReachability(t *testing.T) {
	g, pkg := buildGraph(t)
	root := node(t, g, pkg, "Root")
	middle := node(t, g, pkg, "middle")
	leaf := node(t, g, pkg, "leaf")
	locked := node(t, g, pkg, "Locked")

	reached := g.Reachable(root)
	if reached[root] != root || reached[middle] != root || reached[leaf] != root {
		t.Errorf("Reachable(Root) = %v, want Root, middle, leaf all with provenance Root", reached)
	}
	if _, ok := reached[locked]; ok {
		t.Error("Locked must not be reachable from Root")
	}

	// Multi-root provenance: first root wins for shared nodes.
	reached = g.Reachable(locked, root)
	if reached[leaf] != root {
		t.Errorf("leaf's provenance = %v, want Root", reached[leaf])
	}
}
