package dataflow_test

import (
	"go/ast"
	"strings"
	"testing"

	"repro/internal/lint/dataflow"
)

// shapePrelude declares what every control-flow shape below uses: a
// taint source and string sink, an interval source (idx is [-1, +inf))
// and integer sink, and a must-complete protocol value (mustMk).
const shapePrelude = `package p

import (
	"log"
	"os"
)

type T struct{}

func (t *T) Begin()  {}
func (t *T) Tick()   {}
func (t *T) End()    {}
func mustMk() *T     { return &T{} }
func source() string { return "" }
func idx() int       { return -1 }
func sink(v int)     {}
func sinkS(s string) {}
func cond() bool     { return false }

var _, _ = log.Fatal, os.Exit
`

// shapeAnswers runs F through all three domains and renders what each
// one concludes: the taint of every sinkS argument, the interval of
// every sink argument and of every return site, and the protocol
// violations.
func shapeAnswers(t *testing.T, src string) string {
	t.Helper()
	src = shapePrelude + src
	res, _ := analyze(t, src)
	ivRes, file, _ := analyzeIv(t, src)
	var taints []string
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "sinkS" {
				taints = append(taints, describeTaint(res, call.Args[0]))
			}
		}
		return true
	})
	var ivs []string
	for _, iv := range sinkArgs(ivRes, file) {
		ivs = append(ivs, iv.String())
	}
	for _, r := range ivRes.Returns {
		for _, iv := range r.Results {
			ivs = append(ivs, "ret "+iv.String())
		}
	}
	tret := dataflow.JoinAll(returnTaints(res))
	if tret.Tainted() {
		taints = append(taints, "ret "+tret.Desc)
	}
	return "taint " + strings.Join(taints, ", ") +
		" | iv " + strings.Join(ivs, ", ") +
		" | proto " + strings.Join(runProto(t, src), ", ")
}

// describeTaint finds the taint recorded for the expression at the
// same position as x (the taint run parsed its own copy of the file).
func describeTaint(res *dataflow.Result, x ast.Expr) string {
	for e, tt := range res.Expr {
		if e.Pos() == x.Pos() && e.End() == x.End() {
			if tt.Desc != "" {
				return tt.Desc
			}
			break
		}
	}
	return "clean"
}

// TestControlFlowShapes characterizes the three domains on the
// control-flow shapes no other test covers. Each row is one function F;
// the answer lists, per domain, what reaches the sinks.
func TestControlFlowShapes(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{"labeled break", `
func F(xs []int) {
	x, n := "", 0
	s := mustMk()
	s.Begin()
outer:
	for range xs {
		for {
			if cond() {
				x = source()
				n = 7
				s.End()
				break outer
			}
			sink(n)
			break
		}
	}
	sinkS(x)
	sink(n)
	s.End()
}`,
			"taint test source | iv [0, 0], [0, 7] | proto "},
		{"labeled continue", `
func F(xs []int) {
	x := ""
	s := mustMk()
	s.Begin()
outer:
	for range xs {
		n := idx()
		for {
			if n < 0 {
				x = source()
				continue outer
			}
			sink(n)
			break
		}
		sinkS(x)
	}
	s.End()
}`,
			"taint test source | iv [0, +inf) | proto "},
		{"goto", `
func F() {
	x, n := "", idx()
	s := mustMk()
	s.Begin()
	if n < 0 {
		x = source()
		s.End()
		goto done
	}
	sink(n)
	sinkS(x)
	s.Tick()
done:
	sinkS(x)
	s.End()
}`,
			"taint clean, test source | iv [0, +inf) | proto "},
		{"fallthrough", `
func F(k int) {
	x, n := "", 0
	s := mustMk()
	s.Begin()
	switch k {
	case 0:
		x = source()
		n = 5
		s.End()
		fallthrough
	case 1:
		sink(k)
		sinkS(x)
		sink(n)
	default:
		s.End()
	}
	sinkS(x)
	s.End()
}`,
			"taint test source, test source | iv [0, 1], [0, 5] | proto "},
		{"select with default", `
func F(ch chan string) {
	x, n := "", 1
	s := mustMk()
	s.Begin()
	select {
	case v := <-ch:
		x = v
		n = 2
	default:
		x = source()
		s.End()
	}
	sinkS(x)
	sink(n)
	s.End()
}`,
			"taint select completion order (src.go:26) | iv [1, 2] | proto "},
		{"type-switch clause bindings", `
func F(v any) {
	x := ""
	s := mustMk()
	s.Begin()
	if cond() {
		v = source()
	}
	switch w := v.(type) {
	case string:
		x = w
		sink(len(w))
	case int:
		sink(w)
		s.End()
		return
	}
	sinkS(x)
	s.End()
}`,
			"taint test source | iv [0, +inf), (-inf, +inf) | proto "},
		{"naked return through named results", `
func F() (x string, n int, s *T) {
	s = mustMk()
	s.Begin()
	n = idx()
	if n < 0 {
		x = source()
		return
	}
	sinkS(x)
	n++
	return
}`,
			"taint test source, ret test source | iv ret (-inf, +inf), ret [-1, -1], ret (-inf, +inf), ret (-inf, +inf), ret [1, +inf), ret (-inf, +inf) | proto "},
		{"defer in a loop", `
func F(xs []int) {
	x, n := "", 0
	for range xs {
		s := mustMk()
		s.Begin()
		defer s.End()
		x = source()
		n = 3
	}
	sinkS(x)
	sink(n)
}`,
			"taint test source | iv [0, +inf) | proto "},
		{"closure returns", `
func F() string {
	s := mustMk()
	n := 4
	f := func() string {
		s.Begin()
		if cond() {
			n = -2
			return source()
		}
		s.End()
		return "ok"
	}
	sink(n)
	return f()
}`,
			"taint ret test source | iv (-inf, +inf), ret (-inf, +inf) | proto "},
		{"if arm ends in return", `
func F() {
	x, n := "", idx()
	s := mustMk()
	s.Begin()
	if n < 0 {
		x = source()
		s.End()
		return
	}
	sinkS(x)
	sink(n)
	s.End()
}`,
			"taint clean | iv [0, +inf) | proto "},
		{"if arm ends in panic", `
func F() {
	x, n := "", idx()
	s := mustMk()
	s.Begin()
	if n < 0 {
		x = source()
		s.End()
		panic("negative")
	}
	sinkS(x)
	sink(n)
	s.End()
}`,
			"taint clean | iv [0, +inf) | proto "},
		{"if arm ends in os.Exit", `
func F() {
	x, n := "", idx()
	s := mustMk()
	s.Begin()
	if n < 0 {
		x = source()
		s.End()
		os.Exit(2)
	}
	sinkS(x)
	sink(n)
	s.End()
}`,
			"taint clean | iv [0, +inf) | proto "},
		{"if arm ends in log.Fatal", `
func F() {
	x, n := "", idx()
	s := mustMk()
	s.Begin()
	if n < 0 {
		x = source()
		s.End()
		log.Fatalf("negative %d", n)
	}
	sinkS(x)
	sink(n)
	s.End()
}`,
			"taint clean | iv [0, +inf) | proto "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := shapeAnswers(t, tc.src); got != tc.want {
				t.Errorf("answers:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}
