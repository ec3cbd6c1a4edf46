package dataflow_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint/dataflow"
)

// analyze type-checks src (a complete file for package p), runs the
// engine over the function named F with the test hook (source() is a
// nondeterminism source, sortit(x) sanitizes x's base object, twin()
// returns a (tainted, clean) pair), and returns the result plus the
// type info for follow-up assertions.
func analyze(t *testing.T, src string) (*dataflow.Result, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:     make(map[ast.Expr]types.TypeAndValue),
		Defs:      make(map[*ast.Ident]types.Object),
		Uses:      make(map[*ast.Ident]types.Object),
		Implicits: make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var fd *ast.FuncDecl
	for _, d := range file.Decls {
		if f, ok := d.(*ast.FuncDecl); ok && f.Name.Name == "F" {
			fd = f
		}
	}
	if fd == nil {
		t.Fatal("no function F in source")
	}
	a := &dataflow.Analysis{
		Info: info,
		Fset: fset,
		Call: func(call *ast.CallExpr, recv dataflow.Taint, args []dataflow.Taint) (dataflow.Effect, bool) {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return dataflow.Effect{}, false
			}
			switch id.Name {
			case "source":
				return dataflow.Effect{Result: dataflow.Taint{Desc: "test source"}, NoMutation: true}, true
			case "sortit":
				return dataflow.Effect{Kills: call.Args[:1], NoMutation: true}, true
			case "twin":
				return dataflow.Effect{
					Results:    []dataflow.Taint{{Desc: "twin source"}, {}},
					NoMutation: true,
				}, true
			}
			return dataflow.Effect{}, false
		},
	}
	return dataflow.Run(fd.Type, fd.Body, a), info
}

const prelude = `package p

func source() string      { return "" }
func sortit(s []string)   {}
func twin() (string, int) { return "", 0 }
`

// returnTaints flattens all return-site taints of the result.
func returnTaints(res *dataflow.Result) []dataflow.Taint {
	var out []dataflow.Taint
	for _, r := range res.Returns {
		out = append(out, r.Taints...)
	}
	return out
}

func wantTainted(t *testing.T, res *dataflow.Result, substr string) {
	t.Helper()
	j := dataflow.JoinAll(returnTaints(res))
	if !j.Tainted() {
		t.Fatalf("expected a tainted return, got clean (returns: %+v)", res.Returns)
	}
	if substr != "" && !strings.Contains(j.Desc, substr) {
		t.Fatalf("taint desc %q does not mention %q", j.Desc, substr)
	}
}

func wantClean(t *testing.T, res *dataflow.Result) {
	t.Helper()
	if j := dataflow.JoinAll(returnTaints(res)); j.Tainted() {
		t.Fatalf("expected a clean return, got %+v", j)
	}
}

func TestReassignmentKillsTaint(t *testing.T) {
	res, _ := analyze(t, prelude+`
func F() string {
	x := source()
	x = "ok"
	return x
}`)
	wantClean(t, res)
}

func TestTaintSurvivesDataflowChain(t *testing.T) {
	res, _ := analyze(t, prelude+`
func F() string {
	x := source()
	y := x + "!"
	z := y
	return z
}`)
	wantTainted(t, res, "test source")
}

func TestTupleReturnPerResultPrecision(t *testing.T) {
	res, _ := analyze(t, prelude+`
func F() int {
	a, b := twin()
	_ = a
	return b
}`)
	wantClean(t, res)

	res, _ = analyze(t, prelude+`
func F() string {
	a, b := twin()
	_ = b
	return a
}`)
	wantTainted(t, res, "twin source")
}

func TestMapRangeTaintsIterationVars(t *testing.T) {
	res, _ := analyze(t, prelude+`
func F(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}`)
	wantTainted(t, res, "map iteration order")
}

func TestSortSanitizesCollectedKeys(t *testing.T) {
	res, _ := analyze(t, prelude+`
func F(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sortit(out)
	return out
}`)
	wantClean(t, res)
}

func TestRangeOverChannelPropagatesChannelTaint(t *testing.T) {
	// A channel fed a tainted value carries that taint to its
	// range-received values; a clean channel stays clean.
	res, _ := analyze(t, prelude+`
func F(ch chan string) string {
	ch <- source()
	var last string
	for v := range ch {
		last = v
	}
	return last
}`)
	wantTainted(t, res, "test source")

	res, _ = analyze(t, prelude+`
func F(ch chan string) string {
	ch <- "fixed"
	var last string
	for v := range ch {
		last = v
	}
	return last
}`)
	wantClean(t, res)
}

func TestLoopCarriedTaintReachesFixpoint(t *testing.T) {
	res, _ := analyze(t, prelude+`
func F() string {
	var x, y string
	for i := 0; i < 3; i++ {
		y = x
		x = source()
	}
	return y
}`)
	wantTainted(t, res, "test source")
}

func TestMultiCaseSelectTaintsBoundVars(t *testing.T) {
	res, _ := analyze(t, prelude+`
func F(a, b chan string) string {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}`)
	wantTainted(t, res, "select completion order")
}

func TestSingleCaseSelectStaysClean(t *testing.T) {
	res, _ := analyze(t, prelude+`
func F(a chan string) string {
	select {
	case v := <-a:
		return v
	}
}`)
	wantClean(t, res)
}

func TestClosureReturnTaintFlowsToLiteralValue(t *testing.T) {
	// A closure's value carries the join of its own returns, so a
	// higher-order callee that replays the closure (default propagate)
	// yields a tainted result.
	res, _ := analyze(t, prelude+`
func apply(fn func() string) string { return fn() }

func F() string {
	return apply(func() string { return source() })
}`)
	wantTainted(t, res, "test source")
}

func TestMapStoreValueTaintOnly(t *testing.T) {
	// Inserting under a tainted KEY does not make the map's contents
	// order-dependent (maps are key-addressed)...
	res, _ := analyze(t, prelude+`
func F(m map[string]bool) int {
	set := map[string]bool{}
	for k := range m {
		set[k] = true
	}
	return len(set)
}`)
	wantClean(t, res)

	// ...but storing a tainted VALUE does taint the container.
	res, _ = analyze(t, prelude+`
func F() string {
	m := map[string]string{}
	m["k"] = source()
	return m["k"]
}`)
	wantTainted(t, res, "test source")
}

func TestNakedReturnReadsNamedResults(t *testing.T) {
	res, _ := analyze(t, prelude+`
func F() (out string) {
	out = source()
	return
}`)
	wantTainted(t, res, "test source")
}
