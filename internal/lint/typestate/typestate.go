// Package typestate defines the API-protocol analyzer: declarative
// state-machine specs over method calls, tracked value-by-value
// through the dataflow protocol engine (strong updates on the happy
// path, branch joins, defers applied at every exit, same-package
// summaries). A spec says which methods are legal in which state and
// whether abandoning the value before it reaches an accepting state is
// itself a finding — so "Tick after End" and "this Writer never
// reaches End on the error path" are both compile-time diagnostics
// instead of runtime panics or silent corruption.
//
// Built-in specs:
//
//   - trace sinks (NewStats, NewWindowStats, NewDownsampler, NewCSV):
//     Begin, then Tick*, then End — Tick before Begin, Tick after End,
//     and double Begin are violations. Handing a sink to another
//     function (trace.New, Replay, a sink slice) transfers the
//     protocol responsibility, so composed pipelines stay quiet.
//   - trace writers (NewWriter, NewFileWriter, NewFileCSV): the same
//     machine plus a completion obligation — every path that begins a
//     writer must reach End (directly, via defer, or via a callee),
//     including error exits; the archive is unreadable otherwise.
//   - trace.NewReader: Replay and Next are legal only before the
//     stream is consumed by Replay; a second Replay re-reads nothing.
//   - trace.New / trace.MustNew recorders: Spawn only while
//     open, Close required on every path (Close is idempotent, so the
//     canonical defer rec.Close() discharges it).
//   - sim.NewGroup: Post, ScheduleGlobal, and Run are illegal after
//     Close, and every group must reach Close. Passing a group around
//     (mpi.NewWorld, trace.Recorder.Spawn) does NOT hand off the
//     obligation — the creator owns the group's lifecycle.
//   - exec.Map result discipline: the results slice is meaningless
//     when Map returned an error (workers that never ran leave zero
//     slots), so using it before the error has been consulted is a
//     violation.
//
// Constructors whose (value, error) results are bound together get
// error-path sensitivity: in the branch where the error is non-nil
// the value is nil and owes nothing.
package typestate

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/dataflow"
)

// Analyzer enforces API protocol state machines (trace sinks/writers/
// readers/recorders, sim groups, exec.Map results) flow-sensitively.
var Analyzer = &analysis.Analyzer{
	Name: "typestate",
	Doc: "enforce API call protocols as state machines: trace.Sink Begin/Tick*/End " +
		"ordering, Writer/Recorder must-Close on all paths incl. error exits, " +
		"no sim.Group Post/Run after Close, exec.Map results only after the error check",
	Run: run,
}

const (
	tracePkg = "repro/internal/trace"
	simPkg   = "repro/internal/sim"
	execPkg  = "repro/internal/exec"
)

// The shared Begin/Tick/End machine: states fresh(0), active(1),
// ended(2).
func sinkMethods() map[string]dataflow.ProtoMethod {
	return map[string]dataflow.ProtoMethod{
		// A failed Begin cleans up after itself (fileSink closes the
		// file it opened), so its checked error branch owes no End; a
		// failed Tick does not — the file is still open.
		"Begin": {Next: []int{1, -1, -1}, ErrReleases: true},
		"Tick":  {Next: []int{-1, 1, -1}},
		"End":   {Next: []int{2, 2, 2}},
	}
}

// sinkProto covers retained-by-caller sinks with no completion
// obligation (a Stats that is never Begun owes nothing; the Recorder
// usually drives it anyway).
var sinkProto = &dataflow.Proto{
	Name:         "trace.Sink",
	Doc:          "protocol is Begin, then Tick*, then End",
	States:       []string{"fresh", "active", "ended"},
	Start:        0,
	Methods:      sinkMethods(),
	Accepting:    dataflow.SingleState(0) | dataflow.SingleState(2),
	EscapeOnPass: true,
}

// writerProto adds the must-End obligation: a begun Writer or file
// sink that never reaches End leaves a truncated archive (or an
// unclosed file).
var writerProto = &dataflow.Proto{
	Name:         "trace.Writer",
	Doc:          "protocol is Begin, then Tick*, then End; every begun writer must reach End",
	States:       []string{"fresh", "active", "ended"},
	Start:        0,
	Methods:      sinkMethods(),
	Accepting:    dataflow.SingleState(0) | dataflow.SingleState(2),
	CompleteDoc:  "End",
	MustComplete: true,
	EscapeOnPass: true,
}

// readerProto: Replay consumes the stream.
var readerProto = &dataflow.Proto{
	Name:   "trace.Reader",
	Doc:    "Next/Replay read a one-shot stream; nothing is legal after Replay",
	States: []string{"open", "drained"},
	Start:  0,
	Methods: map[string]dataflow.ProtoMethod{
		"Next":   {Next: []int{0, -1}},
		"Replay": {Next: []int{1, -1}},
	},
	Accepting:    dataflow.SingleState(0) | dataflow.SingleState(1),
	EscapeOnPass: true,
}

// recorderProto: trace.New already called Begin on the sinks, so the
// recorder owes a Close on every path (idempotent — defer is the
// canonical discharge), and spawning after Close is a bug.
var recorderProto = &dataflow.Proto{
	Name:   "trace.Recorder",
	Doc:    "Spawn while open, then Close on every path (Close is idempotent)",
	States: []string{"open", "closed"},
	Start:  0,
	Methods: map[string]dataflow.ProtoMethod{
		"Spawn": {Next: []int{0, -1}},
		"Close": {Next: []int{1, 1}},
	},
	Accepting:    dataflow.SingleState(1),
	CompleteDoc:  "Close",
	MustComplete: true,
	EscapeOnPass: true,
}

// groupProto: the creator owns the group — passing it to a world or
// recorder does not transfer the Close obligation, hence
// EscapeOnPass=false.
var groupProto = &dataflow.Proto{
	Name:   "sim.Group",
	Doc:    "Post/ScheduleGlobal/Run while open, then Close on every path; nothing after Close",
	States: []string{"open", "closed"},
	Start:  0,
	Methods: map[string]dataflow.ProtoMethod{
		"Run":            {Next: []int{0, -1}},
		"Post":           {Next: []int{0, -1}},
		"ScheduleGlobal": {Next: []int{0, -1}},
		"Close":          {Next: []int{1, 1}},
	},
	Accepting:    dataflow.SingleState(1),
	CompleteDoc:  "Close",
	MustComplete: true,
	EscapeOnPass: false,
}

// origins maps constructor (package path, name) to (protocol, index of
// the tracked result).
type originSpec struct {
	proto  *dataflow.Proto
	result int
}

var origins = map[[2]string]originSpec{
	{tracePkg, "NewStats"}:       {sinkProto, 0},
	{tracePkg, "NewWindowStats"}: {sinkProto, 0},
	{tracePkg, "NewDownsampler"}: {sinkProto, 0},
	{tracePkg, "NewCSV"}:         {sinkProto, 0},
	{tracePkg, "NewWriter"}:      {writerProto, 0},
	{tracePkg, "NewFileWriter"}:  {writerProto, 0},
	{tracePkg, "NewFileCSV"}:     {writerProto, 0},
	{tracePkg, "NewReader"}:      {readerProto, 0},
	{tracePkg, "New"}:            {recorderProto, 0},
	{tracePkg, "MustNew"}:        {recorderProto, 0},
	{simPkg, "NewGroup"}:         {groupProto, 0},
}

func run(pass *analysis.Pass) error {
	// Same-package declarations, for interprocedural summaries.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	origin := func(call *ast.CallExpr) (*dataflow.Proto, int, bool) {
		fn := dataflow.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return nil, 0, false
		}
		spec, ok := origins[[2]string{fn.Pkg().Path(), fn.Name()}]
		if !ok {
			return nil, 0, false
		}
		return spec.proto, spec.result, true
	}

	// Summary-found violations anchor at callee positions, so two
	// callers of the same buggy helper would report it twice without a
	// pass-level dedup.
	seen := make(map[token.Pos]bool)
	report := func(v dataflow.ProtoViolation) {
		if seen[v.Pos] {
			return
		}
		seen[v.Pos] = true
		origin := pass.Fset.Position(v.Origin)
		pass.Reportf(v.Pos, "%s (value created at %s:%d)",
			v.Msg, origin.Filename, origin.Line)
	}

	for _, fd := range decls {
		if analysis.IsTestFile(pass.Fset, fd.Pos()) {
			continue
		}
		a := &dataflow.StateAnalysis{
			Info:   pass.TypesInfo,
			Fset:   pass.Fset,
			Origin: origin,
			Decl:   func(fn *types.Func) *ast.FuncDecl { return decls[fn] },
			Report: report,
		}
		dataflow.RunProto(fd.Type, fd.Body, a)
		checkMapResults(pass, fd)
	}
	return nil
}

// checkMapResults enforces the exec.Map result-slot discipline
// lexically: the results slice is unusable until the error result has
// been consulted (checked, passed, or returned), because a failed Map
// leaves unwritten zero slots.
func checkMapResults(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 2 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := dataflow.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != execPkg || fn.Name() != "Map" {
			return true
		}
		resObj := assignedObj(pass.TypesInfo, as.Lhs[0])
		errObj := assignedObj(pass.TypesInfo, as.Lhs[1])
		if resObj == nil {
			return true
		}
		// First position at which the error is consulted; res uses
		// before it (or anywhere, if the error was discarded) are
		// reported.
		errPos := firstUse(pass.TypesInfo, fd.Body, errObj, as.End())
		ast.Inspect(fd.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok || id.Pos() <= as.End() {
				return true
			}
			if pass.TypesInfo.Uses[id] != resObj {
				return true
			}
			if errObj == nil {
				pass.Reportf(id.Pos(), "exec.Map results used with the error result discarded "+
					"(a failed Map leaves unwritten zero slots)")
				return true
			}
			if errPos == token.NoPos || id.Pos() < errPos {
				pass.Reportf(id.Pos(), "exec.Map results used before the error is checked "+
					"(a failed Map leaves unwritten zero slots)")
			}
			return true
		})
		return true
	})
}

// assignedObj resolves an assignment LHS ident to its object, nil for
// blanks and non-idents.
func assignedObj(info *types.Info, x ast.Expr) types.Object {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// firstUse returns the position of the first use of obj after `after`.
func firstUse(info *types.Info, body ast.Node, obj types.Object, after token.Pos) token.Pos {
	if obj == nil {
		return token.NoPos
	}
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= after {
			return true
		}
		if info.Uses[id] == obj {
			pos = id.Pos()
			return false
		}
		return true
	})
	return pos
}
