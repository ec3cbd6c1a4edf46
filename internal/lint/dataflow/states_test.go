package dataflow_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/dataflow"
)

// The test protocol mirrors the trace.Sink shape: mk() creates a value
// in state "fresh"; Begin moves fresh→active, Tick keeps active,
// End moves any→ended; Tick in fresh or ended is a violation, Begin in
// active or ended is a violation. mustMk() is the same machine with a
// completion obligation (must end in "ended").
var testProto = &dataflow.Proto{
	Name:   "p.T",
	Doc:    "protocol is Begin, then Tick*, then End",
	States: []string{"fresh", "active", "ended"},
	Start:  0,
	Methods: map[string]dataflow.ProtoMethod{
		"Begin": {Next: []int{1, -1, -1}},
		"Tick":  {Next: []int{-1, 1, -1}},
		"End":   {Next: []int{2, 2, 2}},
	},
	Accepting:    dataflow.SingleState(2),
	EscapeOnPass: true,
}

var mustProto = &dataflow.Proto{
	Name:   "p.M",
	Doc:    "must reach End on every path",
	States: []string{"fresh", "active", "ended"},
	Start:  0,
	Methods: map[string]dataflow.ProtoMethod{
		"Begin": {Next: []int{1, -1, -1}},
		"Tick":  {Next: []int{-1, 1, -1}},
		"End":   {Next: []int{2, 2, 2}},
	},
	Accepting:    dataflow.SingleState(0) | dataflow.SingleState(2),
	MustComplete: true,
	EscapeOnPass: true,
}

// heldProto models sim.Group: passing it to another function does NOT
// hand off the obligation.
var heldProto = &dataflow.Proto{
	Name:   "p.G",
	Doc:    "must Close",
	States: []string{"open", "closed"},
	Start:  0,
	Methods: map[string]dataflow.ProtoMethod{
		"Run":   {Next: []int{0, -1}},
		"Close": {Next: []int{1, 1}},
	},
	Accepting:    dataflow.SingleState(1),
	MustComplete: true,
	EscapeOnPass: false,
}

const protoPrelude = `package p

type T struct{}

func (t *T) Begin()      {}
func (t *T) Tick()       {}
func (t *T) End()        {}
func (t *T) Other() int  { return 0 }
func (t *T) Run()        {}
func (t *T) Close()      {}
func mk() *T             { return &T{} }
func mustMk() *T         { return &T{} }
func mkG() *T            { return &T{} }
func use(t *T)           {}
func cond() bool         { return false }
`

// runProto analyzes function F in src and returns the violation
// messages in positional order.
func runProto(t *testing.T, src string) []string {
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
	decls := make(map[*types.Func]*ast.FuncDecl)
	var fd *ast.FuncDecl
	for _, d := range file.Decls {
		f, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if f.Name.Name == "F" {
			fd = f
		}
		if fn, ok := info.Defs[f.Name].(*types.Func); ok {
			decls[fn] = f
		}
	}
	if fd == nil {
		t.Fatal("no function F in source")
	}
	type posMsg struct {
		pos token.Pos
		msg string
	}
	var got []posMsg
	a := &dataflow.StateAnalysis{
		Info: info,
		Fset: fset,
		Origin: func(call *ast.CallExpr) (*dataflow.Proto, int, bool) {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return nil, 0, false
			}
			switch id.Name {
			case "mk":
				return testProto, 0, true
			case "mustMk":
				return mustProto, 0, true
			case "mkG":
				return heldProto, 0, true
			case "mkErr":
				return mustProto, 0, true
			}
			return nil, 0, false
		},
		Decl: func(fn *types.Func) *ast.FuncDecl { return decls[fn] },
		Report: func(v dataflow.ProtoViolation) {
			got = append(got, posMsg{v.Pos, v.Msg})
		},
	}
	dataflow.RunProto(fd.Type, fd.Body, a)
	sort.Slice(got, func(i, j int) bool { return got[i].pos < got[j].pos })
	msgs := make([]string, len(got))
	for i, g := range got {
		msgs[i] = g.msg
	}
	return msgs
}

func wantMsgs(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d violations %q, want %d %q", len(got), got, len(want), want)
	}
	for i := range want {
		if !strings.Contains(got[i], want[i]) {
			t.Errorf("violation %d = %q, want substring %q", i, got[i], want[i])
		}
	}
}

func TestProtoHappyPath(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Begin()
	s.Tick()
	s.Tick()
	s.End()
}`)
	wantMsgs(t, got)
}

func TestProtoTickAfterEnd(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Begin()
	s.End()
	s.Tick()
}`)
	wantMsgs(t, got, `Tick called in state "ended"`)
}

func TestProtoTickBeforeBegin(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Tick()
}`)
	wantMsgs(t, got, `Tick called in state "fresh"`)
}

func TestProtoDoubleBegin(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Begin()
	s.Begin()
}`)
	wantMsgs(t, got, `Begin called in state "active"`)
}

func TestProtoBranchJoin(t *testing.T) {
	// End only in one branch: the join holds {active, ended}, so a
	// following Tick is a (possible) violation in "ended".
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Begin()
	if cond() {
		s.End()
	}
	s.Tick()
}`)
	wantMsgs(t, got, `Tick called in state "ended"`)
}

func TestProtoBranchBothEnd(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Begin()
	if cond() {
		s.End()
	} else {
		s.End()
	}
}`)
	wantMsgs(t, got)
}

func TestProtoTerminatedArmDiscarded(t *testing.T) {
	// The panicking arm never reaches the Tick; only "active" flows on.
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Begin()
	if cond() {
		s.End()
		panic("done")
	}
	s.Tick()
	s.End()
}`)
	wantMsgs(t, got)
}

func TestProtoLoopTick(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Begin()
	for i := 0; i < 3; i++ {
		s.Tick()
	}
	s.End()
}`)
	wantMsgs(t, got)
}

func TestProtoEndInsideLoop(t *testing.T) {
	// End in the loop body: second pass calls Tick in "ended".
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Begin()
	for i := 0; i < 3; i++ {
		s.Tick()
		s.End()
	}
}`)
	wantMsgs(t, got, `Tick called in state "ended"`)
}

func TestProtoMustCompleteMissingEnd(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mustMk()
	s.Begin()
}`)
	wantMsgs(t, got, "does not reach")
}

func TestProtoMustCompleteErrorExit(t *testing.T) {
	// The early return abandons s in "active": reported at the return.
	got := runProto(t, protoPrelude+`
func F() {
	s := mustMk()
	s.Begin()
	if cond() {
		return
	}
	s.End()
}`)
	wantMsgs(t, got, "does not reach")
}

func TestProtoMustCompleteDefer(t *testing.T) {
	// defer s.End() discharges the obligation on every exit.
	got := runProto(t, protoPrelude+`
func F() {
	s := mustMk()
	s.Begin()
	defer s.End()
	if cond() {
		return
	}
	s.Tick()
}`)
	wantMsgs(t, got)
}

func TestProtoMustCompleteDeferLit(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mustMk()
	s.Begin()
	defer func() { s.End() }()
	if cond() {
		return
	}
}`)
	wantMsgs(t, got)
}

func TestProtoPanicExitOwesNothing(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mustMk()
	s.Begin()
	if cond() {
		panic("fatal")
	}
	s.End()
}`)
	wantMsgs(t, got)
}

func TestProtoEscapeOnReturn(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() *T {
	s := mustMk()
	s.Begin()
	return s
}`)
	wantMsgs(t, got)
}

func TestProtoEscapeOnPass(t *testing.T) {
	// use has no body summary worth tracking? It does have a body (in
	// decls), so the summary applies: use neither transitions nor
	// escapes, and the obligation stays — but use's body is empty, so
	// the seeded state flows through unchanged and F still owes End.
	got := runProto(t, protoPrelude+`
func F() {
	s := mustMk()
	s.Begin()
	use(s)
}`)
	wantMsgs(t, got, "does not reach")
}

func TestProtoHeldThroughCalls(t *testing.T) {
	// heldProto (EscapeOnPass=false): passing g around does not
	// discharge Close.
	got := runProto(t, protoPrelude+`
func F() {
	g := mkG()
	use(g)
	g.Run()
}`)
	wantMsgs(t, got, "does not reach")
}

func TestProtoHeldDeferClose(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	g := mkG()
	defer g.Close()
	use(g)
	g.Run()
}`)
	wantMsgs(t, got)
}

func TestProtoRunAfterClose(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	g := mkG()
	g.Close()
	g.Run()
}`)
	wantMsgs(t, got, `Run called in state "closed"`)
}

func TestProtoClosureSharesState(t *testing.T) {
	// A literal's capture drives the same machine: End inside the
	// closure body is seen lexically, so the later Tick is flagged.
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	s.Begin()
	f := func() { s.End() }
	_ = f
	s.Tick()
}`)
	wantMsgs(t, got, `Tick called in state "ended"`)
}

func TestProtoSummaryTransition(t *testing.T) {
	// finish ends the value via a same-package summary.
	got := runProto(t, protoPrelude+`
func finish(t *T) { t.End() }

func F() {
	s := mustMk()
	s.Begin()
	finish(s)
}`)
	wantMsgs(t, got)
}

func TestProtoSummaryViolationInCallee(t *testing.T) {
	// The callee Ticks an already-ended value: reported once, at the
	// callee's call site position.
	got := runProto(t, protoPrelude+`
func tick(t *T) { t.Tick() }

func F() {
	s := mk()
	s.Begin()
	s.End()
	tick(s)
}`)
	wantMsgs(t, got, `Tick called in state "ended"`)
}

func TestProtoSummaryEscape(t *testing.T) {
	// The callee stores the value into a package sink: escaped, no
	// obligation left in the caller.
	got := runProto(t, protoPrelude+`
var sink *T

func keep(t *T) { sink = t }

func F() {
	s := mustMk()
	s.Begin()
	keep(s)
}`)
	wantMsgs(t, got)
}

func TestProtoStoreEscapes(t *testing.T) {
	got := runProto(t, protoPrelude+`
var sink []*T

func F() {
	s := mustMk()
	s.Begin()
	sink = append(sink, s)
}`)
	wantMsgs(t, got)
}

func TestProtoAliasFollowed(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	u := s
	u.Begin()
	u.End()
	u.Tick()
}`)
	wantMsgs(t, got, `Tick called in state "ended"`)
}

func TestProtoNeutralMethodIgnored(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	s := mk()
	_ = s.Other()
	s.Begin()
	s.End()
}`)
	wantMsgs(t, got)
}

func TestProtoErrGuardReleasesObligation(t *testing.T) {
	// On the err != nil path the constructor returned nil: no End owed.
	got := runProto(t, protoPrelude+`
func mkErr() (*T, error) { return &T{}, nil }

func F() error {
	s, err := mkErr()
	if err != nil {
		return err
	}
	s.Begin()
	s.End()
	return nil
}`)
	wantMsgs(t, got)
}

func TestProtoErrGuardStillOwedOnSuccess(t *testing.T) {
	got := runProto(t, protoPrelude+`
func mkErr() (*T, error) { return &T{}, nil }

func F() error {
	s, err := mkErr()
	if err != nil {
		return err
	}
	s.Begin()
	return nil
}`)
	wantMsgs(t, got, "does not reach")
}

func TestProtoDiscardedResultUntracked(t *testing.T) {
	got := runProto(t, protoPrelude+`
func F() {
	mk()
}`)
	wantMsgs(t, got)
}
