// The taint domain: every variable and expression carries a Taint,
// every assignment carries the taint of its right-hand side to the
// variable it defines, every expression joins the taints of its
// operands, and calls transfer taint through a per-call Effect supplied
// by the analyzer (which is where interprocedural summaries computed
// over internal/lint/callgraph plug in).
//
// Reassigning a variable with a clean value kills its taint, and a
// sanitizer call (an Effect with Kills) cleans the objects it names, so
// code that collects map keys, sorts them, and only then emits them is
// provably clean even though the same value was tainted a few
// statements earlier.
//
// Two nondeterminism sources are properties of statements rather than
// of calls, so the domain models them itself: ranging over a map
// taints the iteration variables (Go randomizes map order on every
// range), and a select with more than one clause taints whatever its
// comm clauses bind (the winning case is scheduler-chosen).

package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path/filepath"
)

// Taint is the abstract value tracked for every variable and
// expression. The zero Taint is "clean".
type Taint struct {
	// Desc is the human-readable provenance of an internal
	// nondeterminism source ("map iteration order (cluster.go:375)").
	// Empty when the value does not depend on an internal source.
	Desc string
	// Param reports that the value depends on a parameter or receiver
	// the caller seeded via Analysis.Seed — how summary computation
	// discovers parameter-to-result flow.
	Param bool
}

// Tainted reports whether t carries any taint.
func (t Taint) Tainted() bool { return t.Desc != "" || t.Param }

// Join merges two taints: an internal source wins the description slot
// (first non-empty), parameter dependence is disjunctive.
func Join(a, b Taint) Taint {
	if a.Desc == "" {
		a.Desc = b.Desc
	}
	a.Param = a.Param || b.Param
	return a
}

// JoinAll folds Join over ts.
func JoinAll(ts []Taint) Taint {
	var out Taint
	for _, t := range ts {
		out = Join(out, t)
	}
	return out
}

// Effect is the transfer function of one call, as decided by the
// analyzer's Call hook.
type Effect struct {
	// Result is joined into every result of the call.
	Result Taint
	// Results, when non-nil, gives per-result taints (length must match
	// the call's result arity); tuple assignments and returns then keep
	// per-result precision instead of collapsing to one joined taint.
	Results []Taint
	// Propagate joins the taints of the receiver and arguments into the
	// results (the default assumption for calls whose body is unknown).
	Propagate bool
	// Kills names arguments whose base object is sanitized: its taint
	// is removed from the state (sort.Strings over collected map keys).
	Kills []ast.Expr
	// NoMutation suppresses the conservative rule that a call with a
	// tainted input may store that input into its receiver or into any
	// pointer-typed argument. Sources and sanitizers set it.
	NoMutation bool
}

// Analysis configures one taint run over a function body.
type Analysis struct {
	Info *types.Info
	Fset *token.FileSet

	// Call classifies one call, given the taints of its receiver (zero
	// for non-method calls) and arguments. Returning ok=false selects
	// the default: propagate input taints to the results and apply the
	// mutation rule.
	Call func(call *ast.CallExpr, recv Taint, args []Taint) (Effect, bool)

	// Seed pre-taints objects (parameters, the receiver) before the
	// walk; summary computation uses it to detect param-to-result flow.
	Seed map[*types.Var]Taint
}

// Return is the taint observed at one return statement of the analyzed
// function (literals nested inside it keep their own returns).
type Return struct {
	Pos token.Pos
	// Taints has one entry per result when the arity is derivable (a
	// naked return over named results, or a tuple-call return with a
	// per-result Effect); otherwise one entry per written expression.
	Taints []Taint
}

// Result is the converged outcome of one taint run.
type Result struct {
	// Expr records the taint of every expression at its occurrence, in
	// the final (converged) pass. Analyzers look up sink arguments here.
	Expr map[ast.Expr]Taint
	// Objects is the final taint state of every variable.
	Objects map[types.Object]Taint
	// Returns lists the taints flowing out of the function's own return
	// statements.
	Returns []Return
}

// maxBodyPasses bounds the whole-body fixpoint: sanitizer kills make
// the transfer non-monotone, so a state that keeps changing is cut off.
const maxBodyPasses = 4

// Run interprets body under a and returns the converged result. ft is
// the function's type (for named results); it may be nil for synthetic
// bodies.
func Run(ft *ast.FuncType, body *ast.BlockStmt, a *Analysis) *Result {
	d := &taint{a: a}
	d.init(d, a.Info)
	seed := func() {
		for v, t := range a.Seed {
			d.env[v] = t
		}
	}
	seed()
	for i := 0; i < maxBodyPasses; i++ {
		before := maps.Clone(d.env)
		d.body(ft, body)
		seed() // seeds are sticky: a summary run must not lose them
		if maps.Equal(before, d.env) {
			break
		}
	}
	// Final recording pass over the converged state.
	d.recording = true
	d.rec = make(map[ast.Expr]Taint)
	d.body(ft, body)
	return &Result{Expr: d.rec, Objects: d.env, Returns: d.returns}
}

// taint is the taint domain. A variable missing from the environment
// is clean.
type taint struct {
	walker[Taint, Taint]
	a         *Analysis
	recording bool               // the final pass: fill rec, returns and per-result calls
	rec       map[ast.Expr]Taint // recording pass only
	returns   []Return
	litRets   []Taint // join of return taints per open literal frame
}

func (d *taint) join(a, b Taint) Taint { return Join(a, b) }
func (d *taint) absentTop() bool       { return false }

func (d *taint) loop(pass int, pre, head, out env[Taint]) (env[Taint], bool) {
	return carryTwice(&d.walker, pass, pre, out)
}

// carryTwice is the loop policy of taint and protocol states: two
// passes, each starting from the state the last one ended in, which
// propagates any single loop-carried chain, then the join with the
// zero-iteration state.
func carryTwice[V comparable, X any](w *walker[V, X], pass int, pre, out env[V]) (env[V], bool) {
	switch {
	case out == nil:
		return pre, true
	case pass == 0:
		return nil, false
	}
	w.joinInto(out, pre)
	return out, true
}

func (d *taint) read(obj types.Object) Taint                       { return d.env[obj] }
func (d *taint) elem(t Taint) Taint                                { return t }
func (d *taint) arith(_ token.Token, x, y Taint, _ ast.Expr) Taint { return Join(x, y) }
func (d *taint) refine(ast.Expr, bool)                             {}
func (d *taint) refineCase(ast.Expr, *ast.CaseClause)              {}
func (d *taint) deferred(s *ast.DeferStmt)                         { d.expr(s.Call) }

// set strongly updates a variable (assignment kills).
func (d *taint) set(o types.Object, t Taint) {
	if _, ok := d.env[o]; ok || t.Tainted() {
		d.env[o] = t
	}
}

// joinObj weakly updates an object's taint (container/field stores).
func (d *taint) joinObj(o types.Object, t Taint) {
	if o != nil && t.Tainted() {
		d.set(o, Join(d.env[o], t))
	}
}

// store joins t into the base object of an element, field, indirect
// or channel store. A store into a map element contributes only the
// value's taint — map contents are key-addressed, so insertion order
// (a tainted loop key) does not make the map order-dependent — while a
// store into a slice joins the index too, since slice contents are
// position-addressed.
func (d *taint) store(lhs ast.Expr, t Taint) {
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name != "_" {
			d.joinObj(identObj(d.a.Info, x), t)
		}
	case *ast.ParenExpr:
		d.store(x.X, t)
	case *ast.StarExpr:
		d.expr(x.X)
		d.store(x.X, t)
	case *ast.SelectorExpr:
		d.expr(x.X)
		d.store(x.X, t)
	case *ast.IndexExpr:
		ti := d.expr(x.Index)
		d.expr(x.X)
		if isMapType(d.a.Info, x.X) {
			d.store(x.X, t)
		} else {
			d.store(x.X, Join(t, ti))
		}
	}
}

func (d *taint) shortPos(pos token.Pos) string {
	p := d.a.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// rangeVals taints the key and value of a range over a map: Go
// randomizes the iteration order.
func (d *taint) rangeVals(s *ast.RangeStmt, x Taint) (Taint, Taint) {
	if isMapType(d.a.Info, s.X) {
		x = Join(x, Taint{Desc: "map iteration order (" + d.shortPos(s.Range) + ")"})
	}
	return x, x
}

// selected taints what the comm clause of a multi-way select binds:
// the scheduler picks the winner.
func (d *taint) selected(s *ast.SelectStmt, cc *ast.CommClause) {
	as, ok := cc.Comm.(*ast.AssignStmt)
	if !ok || len(s.Body.List) < 2 {
		return
	}
	t := Taint{Desc: "select completion order (" + d.shortPos(s.Select) + ")"}
	for _, lhs := range as.Lhs {
		d.assign(lhs, t)
	}
}

func (d *taint) exit(pos token.Pos, ret *ast.ReturnStmt, ts []Taint) {
	switch n := len(d.litRets); {
	case ret == nil:
	case n > 0:
		d.litRets[n-1] = Join(d.litRets[n-1], JoinAll(ts))
	case d.recording:
		d.returns = append(d.returns, Return{Pos: pos, Taints: ts})
	}
}

// ---- expressions ----

// expr computes the taint of x in the current state, recording it
// during the final pass.
func (d *taint) expr(x ast.Expr) Taint {
	if x == nil {
		return Taint{}
	}
	t := d.eval(x)
	if d.recording {
		d.rec[x] = t
	}
	return t
}

func (d *taint) eval(x ast.Expr) Taint {
	info := d.a.Info
	switch x := x.(type) {
	case *ast.Ident:
		if v, ok := identObj(info, x).(*types.Var); ok {
			return d.env[v]
		}
	case *ast.ParenExpr:
		return d.expr(x.X)
	case *ast.SelectorExpr:
		// pkg.Var reads the package-level variable; x.f reads through x.
		if id, ok := x.X.(*ast.Ident); ok && isPkgName(info, id) {
			if v, ok := info.Uses[x.Sel].(*types.Var); ok {
				return d.env[v]
			}
			return Taint{}
		}
		return d.expr(x.X)
	case *ast.IndexExpr:
		// Instantiated generic function values carry no taint.
		if isFuncExpr(info, x.X) {
			return d.expr(x.X)
		}
		return Join(d.expr(x.X), d.expr(x.Index))
	case *ast.IndexListExpr:
		return d.expr(x.X)
	case *ast.SliceExpr:
		t := d.expr(x.X)
		t = Join(t, d.expr(x.Low))
		t = Join(t, d.expr(x.High))
		return Join(t, d.expr(x.Max))
	case *ast.StarExpr:
		return d.expr(x.X)
	case *ast.UnaryExpr:
		return d.expr(x.X)
	case *ast.BinaryExpr:
		return Join(d.expr(x.X), d.expr(x.Y))
	case *ast.KeyValueExpr:
		return d.expr(x.Value)
	case *ast.CompositeLit:
		var t Taint
		for _, elt := range x.Elts {
			t = Join(t, d.expr(elt))
		}
		return t
	case *ast.TypeAssertExpr:
		return d.expr(x.X)
	case *ast.FuncLit:
		return d.funcLit(x)
	case *ast.CallExpr:
		return d.call(x)
	}
	return Taint{}
}

// funcLit analyzes a literal inline, sharing the enclosing state (its
// captures read and write the same objects). The literal's value
// carries the join of its own return taints, so a closure handed to a
// higher-order function (exec.Map) propagates what it would return.
func (d *taint) funcLit(lit *ast.FuncLit) Taint {
	d.litRets = append(d.litRets, Taint{})
	d.body(lit.Type, lit.Body)
	t := d.litRets[len(d.litRets)-1]
	d.litRets = d.litRets[:len(d.litRets)-1]
	return t
}

// call interprets one call expression.
func (d *taint) call(call *ast.CallExpr) Taint {
	info := d.a.Info
	fun := calleeExpr(info, call)

	// Builtins and conversions first.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := identObj(info, id).(*types.Builtin); ok {
			return d.builtin(b.Name(), call)
		}
	}
	if conversionType(info, fun) != nil {
		var t Taint
		for _, a := range call.Args {
			t = Join(t, d.expr(a))
		}
		return t
	}

	// Receiver and argument taints.
	var recv Taint
	var recvExpr ast.Expr
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, isIdent := sel.X.(*ast.Ident); !isIdent || !isPkgName(info, id) {
			recvExpr = sel.X
			recv = d.expr(sel.X)
		}
	}
	args := make([]Taint, len(call.Args))
	for i, a := range call.Args {
		args[i] = d.expr(a)
	}
	// A dynamic callee (function-typed value) contributes its own taint.
	var funTaint Taint
	if Callee(info, call) == nil && recvExpr == nil {
		funTaint = d.expr(fun)
	}

	eff, ok := Effect{}, false
	if d.a.Call != nil {
		eff, ok = d.a.Call(call, recv, args)
	}
	if !ok {
		eff = Effect{Propagate: true}
	}

	// Sanitizers: kill the named argument objects.
	var killed map[types.Object]bool
	for _, k := range eff.Kills {
		if o := BaseObj(info, k); o != nil {
			d.set(o, Taint{})
			if killed == nil {
				killed = make(map[types.Object]bool)
			}
			killed[o] = true
		}
	}

	inputs := Join(Join(recv, funTaint), JoinAll(args))
	result := eff.Result
	if eff.Propagate {
		result = Join(result, inputs)
	}

	// Mutation rule: a call whose body we cannot fully trust may store
	// a tainted input into its receiver or any pointer-typed argument.
	if inputs.Tainted() && !eff.NoMutation {
		if recvExpr != nil {
			if o := BaseObj(info, recvExpr); o != nil && !killed[o] {
				d.joinObj(o, inputs)
			}
		}
		for _, a := range call.Args {
			if !isPointerish(info, a) {
				continue
			}
			if o := BaseObj(info, a); o != nil && !killed[o] {
				d.joinObj(o, inputs)
			}
		}
	}

	if d.recording {
		arity := resultArity(info, call)
		per := eff.Results
		if len(per) != arity {
			per = nil
		}
		if per == nil && arity > 1 {
			per = make([]Taint, arity)
			for i := range per {
				per[i] = result
			}
		}
		if per != nil {
			joined := make([]Taint, len(per))
			for i, p := range per {
				joined[i] = Join(p, eff.Result)
				if eff.Propagate {
					joined[i] = Join(joined[i], inputs)
				}
			}
			d.record(call, joined)
			return JoinAll(joined)
		}
	}
	return Join(result, JoinAll(eff.Results))
}

func (d *taint) builtin(name string, call *ast.CallExpr) Taint {
	var join Taint
	for _, a := range call.Args {
		join = Join(join, d.expr(a))
	}
	switch name {
	case "len", "cap", "make", "new", "delete", "close", "recover", "print", "println", "clear":
		// len(m) and friends are order-independent observations; the
		// allocators return fresh clean values.
		return Taint{}
	case "copy":
		// copy(dst, src) stores src's taint into dst.
		if len(call.Args) == 2 {
			if o := BaseObj(d.a.Info, call.Args[0]); o != nil {
				recording := d.recording
				d.recording = false
				d.joinObj(o, d.expr(call.Args[1]))
				d.recording = recording
			}
		}
		return Taint{}
	}
	// append, min, max, complex, real, imag, panic, ...
	return join
}
