// Package dataflow is the function-level abstract interpreter behind
// the flow-sensitive repolint analyzers. One statement walker
// interprets a function body in source order over an environment that
// maps each variable to an abstract value, and three domains plug into
// it:
//
//   - taint (Run, taint.go) carries nondeterminism along def-use chains
//     for detflow;
//   - intervals (RunIntervals, interval.go) bound numeric values for
//     rangecheck;
//   - protocol states (RunProto, states.go) follow API state machines
//     for typestate.
//
// The walker owns control flow, so every domain sees it the same way.
// Branches run each arm from a copy of the state and join what falls
// out of them. Loops re-run their body under the domain's own loop
// policy: a pass cap, and widening for intervals. break, continue, goto
// and fallthrough end their path and hand its state to their target.
// Tuple assignments, var declarations, named results, naked returns
// and function-literal frames are handled once, here.
//
// There is one termination model: a path ends at a return, at a call
// of the builtin panic, and at os.Exit, log.Fatal* and runtime.Goexit.
// A branch that ends never joins the code after it, so a guard clause
// (`if n < 0 { return }`) narrows what follows.
//
// A domain decides everything else: its lattice, including what a
// variable missing from the environment means; how expressions and
// calls transfer values; what a store through a field, an index or a
// pointer does; how a branch condition refines the state; and what
// deferred calls and function exits owe.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// env maps each variable the domain tracks to its abstract value.
type env[V any] map[types.Object]V

// domain is one abstract interpretation run by the walker. V is the
// value a variable holds in the environment, X the value of an
// expression; the two differ only for protocol states.
type domain[V comparable, X any] interface {
	// join merges the values one variable holds on two paths.
	join(a, b V) V
	// absentTop reports whether a variable missing from the
	// environment is unknown (intervals) rather than bottom (clean
	// taint, an untracked protocol value).
	absentTop() bool
	// loop is the loop policy. After pass (from 0) ran the body from
	// head and fell out with out (nil when no path did), it returns
	// the next head, or the loop's exit state and true. pre is the
	// state before the loop. A nil next head continues from out.
	loop(pass int, pre, head, out env[V]) (env[V], bool)

	// expr evaluates x, with all its effects.
	expr(x ast.Expr) X
	// read is the value of variable obj (a named result, for a naked
	// return).
	read(obj types.Object) X
	// elem is one element of a tuple call whose per-result values are
	// unknown.
	elem(tuple X) X
	// arith combines the operands of x op= y (op is the assignment
	// token) or, for x++ and x--, the operand and the zero X.
	arith(op token.Token, x, y X, opnd ast.Expr) X
	// set assigns v to the variable obj.
	set(obj types.Object, v X)
	// store assigns v through any other lvalue: a field, an element,
	// a pointer, a channel, or the blank identifier.
	store(lhs ast.Expr, v X)

	// refine narrows the state under the assumption cond == truth.
	refine(cond ast.Expr, truth bool)
	// refineCase narrows the state on entry to a switch clause.
	refineCase(tag ast.Expr, cc *ast.CaseClause)
	// rangeVals gives the key and value a range over x binds.
	rangeVals(s *ast.RangeStmt, x X) (key, val X)
	// selected runs after the comm of a select clause.
	selected(s *ast.SelectStmt, cc *ast.CommClause)
	// deferred records a defer statement.
	deferred(s *ast.DeferStmt)
	// exit observes the function leaving at pos: through ret with vals
	// (one per result when the arity is known), or by falling off the
	// end of its body when ret is nil.
	exit(pos token.Pos, ret *ast.ReturnStmt, vals []X)
}

// walker interprets statements for one domain.
type walker[V comparable, X any] struct {
	d    domain[V, X]
	info *types.Info
	env  env[V]
	// dead is set once the current path has ended.
	dead bool
	// calls holds the per-result values of tuple calls, for the
	// domains that track them.
	calls map[*ast.CallExpr][]X
	fr    frame[V]
	// targets stacks the statements enclosing the current one that a
	// break or continue can leave; frames own the part above their base.
	targets []target[V]
	// label names the statement about to be walked.
	label string
}

// frame is the walker's state for one function body: the analyzed
// function or a literal inside it.
type frame[V any] struct {
	ft    *ast.FuncType
	base  int               // the frame's first entry in targets
	gotos map[string]env[V] // states waiting at labels ahead
	exits env[V]            // join of the states at returns
	fall  env[V]            // state handed on by fallthrough
}

// target is a statement that break, and for loops continue, can leave
// or restart.
type target[V any] struct {
	label     string
	loop      bool
	brk, cont env[V]
}

// init readies w to walk for d, the domain that embeds it.
func (w *walker[V, X]) init(d domain[V, X], info *types.Info) {
	w.d, w.info, w.env = d, info, make(env[V])
}

// record keeps the per-result values of a tuple call.
func (w *walker[V, X]) record(call *ast.CallExpr, per []X) {
	if w.calls == nil {
		w.calls = make(map[*ast.CallExpr][]X)
	}
	w.calls[call] = per
}

// ---- environments ----

// joinInto joins src into dst.
func (w *walker[V, X]) joinInto(dst, src env[V]) {
	if w.d.absentTop() {
		for o, dv := range dst {
			if sv, ok := src[o]; ok {
				dst[o] = w.d.join(dv, sv)
			} else {
				delete(dst, o)
			}
		}
		return
	}
	for o, sv := range src {
		if dv, ok := dst[o]; ok {
			dst[o] = w.d.join(dv, sv)
		} else {
			dst[o] = sv
		}
	}
}

// joined adds the current state to acc, a target's collected states.
// The current path is ending, so its map is taken over, not copied.
func (w *walker[V, X]) joined(acc env[V]) env[V] {
	if acc == nil {
		return w.env
	}
	w.joinInto(acc, w.env)
	return acc
}

// resume joins other into the current path, reviving it if it had
// ended.
func (w *walker[V, X]) resume(other env[V]) {
	switch {
	case other == nil:
	case w.dead:
		w.env, w.dead = other, false
	default:
		w.joinInto(w.env, other)
	}
}

// ---- function bodies ----

// body walks a function body as its own frame. Afterwards the state is
// the join of what leaves the body: every return, and a fall-off.
func (w *walker[V, X]) body(ft *ast.FuncType, b *ast.BlockStmt) {
	savedFrame, savedDead := w.fr, w.dead
	w.fr, w.dead = frame[V]{ft: ft, base: len(w.targets)}, false
	w.stmt(b)
	if !w.dead {
		w.d.exit(b.End(), nil, nil)
	}
	w.resume(w.fr.exits)
	w.fr, w.dead = savedFrame, savedDead
}

// ---- statements ----

func (w *walker[V, X]) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker[V, X]) stmt(s ast.Stmt) {
	if w.dead {
		// Only a label a goto jumped to revives a path.
		l, ok := s.(*ast.LabeledStmt)
		if !ok || w.fr.gotos[l.Label.Name] == nil {
			return
		}
	}
	label := w.label
	w.label = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ExprStmt:
		w.d.expr(s.X)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminatorCall(w.info, call) {
			w.dead = true
		}
	case *ast.AssignStmt:
		w.assignStmt(s)
	case *ast.IncDecStmt:
		var zero X
		w.assign(s.X, w.d.arith(s.Tok, w.d.expr(s.X), zero, s.X))
	case *ast.DeclStmt:
		w.declStmt(s)
	case *ast.ReturnStmt:
		w.returnStmt(s)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.d.expr(s.Cond)
		pre := maps.Clone(w.env)
		w.d.refine(s.Cond, true)
		w.stmt(s.Body)
		then, thenDead := w.env, w.dead
		w.env, w.dead = pre, false
		w.d.refine(s.Cond, false)
		w.stmt(s.Else)
		if !thenDead {
			w.resume(then)
		}
	case *ast.ForStmt:
		w.stmt(s.Init)
		var none X
		w.loopStmt(label, s, s.Body, s.Post, none, none)
	case *ast.RangeStmt:
		key, val := w.d.rangeVals(s, w.d.expr(s.X))
		w.loopStmt(label, s, s.Body, nil, key, val)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.d.expr(s.Tag)
		}
		var none X
		w.clauses(label, s, s.Body, none)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		// The guard is either `x.(type)` or `v := x.(type)`.
		var guard ast.Expr
		switch g := s.Assign.(type) {
		case *ast.ExprStmt:
			guard = g.X
		case *ast.AssignStmt:
			guard = g.Rhs[0]
		}
		w.clauses(label, s, s.Body, w.d.expr(guard))
	case *ast.SelectStmt:
		var none X
		w.clauses(label, s, s.Body, none)
	case *ast.SendStmt:
		w.d.store(s.Chan, w.d.expr(s.Value))
	case *ast.GoStmt:
		w.d.expr(s.Call)
	case *ast.DeferStmt:
		w.d.deferred(s)
	case *ast.LabeledStmt:
		name := s.Label.Name
		if st := w.fr.gotos[name]; st != nil {
			delete(w.fr.gotos, name)
			w.resume(st)
		}
		w.label = name
		w.stmt(s.Stmt)
	case *ast.BranchStmt:
		w.branchStmt(s)
	}
}

// branchStmt ends the current path and hands its state to the jump's
// target. A goto to a label already walked (a backward jump) is not
// followed.
func (w *walker[V, X]) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK, token.CONTINUE:
		i := w.target(s.Label, s.Tok == token.CONTINUE)
		if i < 0 {
			break
		}
		t := &w.targets[i]
		if s.Tok == token.BREAK {
			t.brk = w.joined(t.brk)
		} else {
			t.cont = w.joined(t.cont)
		}
	case token.GOTO:
		if w.fr.gotos == nil {
			w.fr.gotos = make(map[string]env[V])
		}
		w.fr.gotos[s.Label.Name] = w.joined(w.fr.gotos[s.Label.Name])
	case token.FALLTHROUGH:
		w.fr.fall = w.env
	}
	w.dead = true
}

// target resolves the statement a break (or continue) leaves: the
// labeled one, or the innermost that accepts it.
func (w *walker[V, X]) target(label *ast.Ident, cont bool) int {
	for i := len(w.targets) - 1; i >= w.fr.base; i-- {
		t := &w.targets[i]
		if label != nil {
			if t.label == label.Name {
				return i
			}
		} else if t.loop || !cont {
			return i
		}
	}
	return -1
}

func (w *walker[V, X]) push(label string, loop bool) int {
	w.targets = append(w.targets, target[V]{label: label, loop: loop})
	return len(w.targets) - 1
}

// pop closes target i: the breaks that left it join the state after
// it.
func (w *walker[V, X]) pop(i int) {
	brk := w.targets[i].brk
	w.targets = w.targets[:i]
	w.resume(brk)
}

// loopStmt runs the body of loop s under the domain's loop policy.
// Each iteration starts by testing a for loop's condition or binding a
// range loop's key and val; continues rejoin before post.
func (w *walker[V, X]) loopStmt(label string, s ast.Stmt, body *ast.BlockStmt, post ast.Stmt, key, val X) {
	t := w.push(label, true)
	pre := maps.Clone(w.env)
	head := pre
	for pass := 0; ; pass++ {
		w.dead, w.targets[t].cont = false, nil
		switch s := s.(type) {
		case *ast.ForStmt:
			if s.Cond != nil {
				w.d.expr(s.Cond)
				w.d.refine(s.Cond, true)
			}
		case *ast.RangeStmt:
			if s.Key != nil {
				w.assign(s.Key, key)
			}
			if s.Value != nil {
				w.assign(s.Value, val)
			}
		}
		w.stmt(body)
		w.resume(w.targets[t].cont)
		if post != nil {
			w.stmt(post)
		}
		var out env[V]
		if !w.dead {
			out = w.env
		}
		next, done := w.d.loop(pass, pre, head, out)
		if done {
			w.env, w.dead = next, false
			break
		}
		if next != nil {
			head = next
			w.env = maps.Clone(head)
		}
	}
	w.pop(t)
}

// clauses walks the clauses of switch, type switch or select s, each
// from the incoming state. The state after s joins the incoming one,
// every clause that falls out, and the breaks.
func (w *walker[V, X]) clauses(label string, s ast.Stmt, block *ast.BlockStmt, guard X) {
	t := w.push(label, false)
	pre := w.env
	out := maps.Clone(pre)
	var fall env[V]
	for _, c := range block.List {
		w.env, w.dead = maps.Clone(pre), false
		body := w.clause(s, c, guard)
		w.resume(fall)
		w.fr.fall = nil
		w.stmts(body)
		fall = w.fr.fall
		if !w.dead {
			w.joinInto(out, w.env)
		}
	}
	w.env, w.dead = out, false
	w.pop(t)
}

// clause runs the prologue of clause c of s and returns its body: a
// switch clause evaluates and assumes its cases, a type-switch clause
// binds its own implicit object for the guard's value, and a select
// clause runs its communication.
func (w *walker[V, X]) clause(s, c ast.Stmt, guard X) []ast.Stmt {
	switch s := s.(type) {
	case *ast.SwitchStmt:
		cc := c.(*ast.CaseClause)
		w.d.refineCase(s.Tag, cc)
		for _, x := range cc.List {
			w.d.expr(x)
			if s.Tag == nil {
				w.d.refine(x, true)
			}
		}
		return cc.Body
	case *ast.TypeSwitchStmt:
		cc := c.(*ast.CaseClause)
		if obj := w.info.Implicits[cc]; obj != nil {
			w.d.set(obj, guard)
		}
		return cc.Body
	}
	cc := c.(*ast.CommClause)
	if cc.Comm != nil {
		w.stmt(cc.Comm)
		w.d.selected(s.(*ast.SelectStmt), cc)
	}
	return cc.Body
}

// assign stores v to lhs.
func (w *walker[V, X]) assign(lhs ast.Expr, v X) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
		if obj := identObj(w.info, id); obj != nil {
			w.d.set(obj, v)
		}
		return
	}
	w.d.store(lhs, v)
}

func (w *walker[V, X]) assignStmt(s *ast.AssignStmt) {
	switch {
	case s.Tok != token.ASSIGN && s.Tok != token.DEFINE:
		for i, lhs := range s.Lhs {
			x := w.d.expr(lhs)
			w.assign(lhs, w.d.arith(s.Tok, x, w.d.expr(s.Rhs[i]), lhs))
		}
	case len(s.Lhs) > 1 && len(s.Rhs) == 1:
		w.tuple(s.Lhs, s.Rhs[0])
	case len(s.Lhs) == 1:
		w.assign(s.Lhs[0], w.d.expr(s.Rhs[0]))
	default:
		// Every right-hand side is evaluated before any store.
		var buf [4]X
		vals := buf[:0]
		for _, r := range s.Rhs {
			vals = append(vals, w.d.expr(r))
		}
		for i, lhs := range s.Lhs {
			w.assign(lhs, vals[i])
		}
	}
}

// tuple assigns the results of one call to several lvalues, per result
// when the domain recorded per-result values.
func (w *walker[V, X]) tuple(lhs []ast.Expr, rhs ast.Expr) {
	v := w.d.expr(rhs)
	per := w.perResult(rhs)
	if len(per) != len(lhs) {
		per = nil
	}
	for i, l := range lhs {
		if per != nil {
			w.assign(l, per[i])
		} else {
			w.assign(l, w.d.elem(v))
		}
	}
}

// perResult is the per-result vector recorded for rhs, when it is a
// call.
func (w *walker[V, X]) perResult(rhs ast.Expr) []X {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		return w.calls[call]
	}
	return nil
}

func (w *walker[V, X]) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		switch {
		case len(vs.Values) == 1 && len(vs.Names) > 1:
			lhs := make([]ast.Expr, len(vs.Names))
			for i, n := range vs.Names {
				lhs[i] = n
			}
			w.tuple(lhs, vs.Values[0])
		case len(vs.Values) == len(vs.Names):
			for i, n := range vs.Names {
				w.assign(n, w.d.expr(vs.Values[i]))
			}
		default:
			// var x T holds the zero value.
			var zero X
			for _, n := range vs.Names {
				w.assign(n, zero)
			}
		}
	}
}

func (w *walker[V, X]) returnStmt(s *ast.ReturnStmt) {
	var vals []X
	switch len(s.Results) {
	case 0:
		// A naked return reads the frame's named results.
		if ft := w.fr.ft; ft != nil && ft.Results != nil {
			for _, f := range ft.Results.List {
				for _, name := range f.Names {
					vals = append(vals, w.d.read(w.info.Defs[name]))
				}
			}
		}
	case 1:
		v := w.d.expr(s.Results[0])
		if per := w.perResult(s.Results[0]); len(per) > 1 {
			vals = per
		} else {
			vals = []X{v}
		}
	default:
		for _, r := range s.Results {
			vals = append(vals, w.d.expr(r))
		}
	}
	w.d.exit(s.Pos(), s, vals)
	w.fr.exits = w.joined(w.fr.exits)
	w.dead = true
}

// ---- type and object helpers ----

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

func isPkgName(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.PkgName)
	return ok
}

func isFuncExpr(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

func isMapType(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isPointerish reports whether passing x can hand the callee a handle
// to the caller's memory (pointer, or explicit address-of).
func isPointerish(info *types.Info, x ast.Expr) bool {
	if u, ok := ast.Unparen(x).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return true
	}
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isPtr := tv.Type.Underlying().(*types.Pointer)
	return isPtr
}

func resultArity(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return 1
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		return tuple.Len()
	}
	return 1
}

// calleeExpr strips parentheses and generic instantiation from a
// call's function expression.
func calleeExpr(info *types.Info, call *ast.CallExpr) ast.Expr {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(info, ix.X) {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	return fun
}

// conversionType returns the type a call converts to, or nil when the
// call is not a conversion.
func conversionType(info *types.Info, fun ast.Expr) *types.TypeName {
	switch f := fun.(type) {
	case *ast.Ident:
		tn, _ := identObj(info, f).(*types.TypeName)
		return tn
	case *ast.SelectorExpr:
		tn, _ := identObj(info, f.Sel).(*types.TypeName)
		return tn
	}
	return nil
}

// BaseObj unwraps an lvalue/handle chain (x, x.f, x[i], *x, &x and
// combinations) to the variable object at its base, or nil.
func BaseObj(info *types.Info, x ast.Expr) types.Object {
	for {
		switch v := x.(type) {
		case *ast.ParenExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil
			}
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		case *ast.SelectorExpr:
			if id, ok := v.X.(*ast.Ident); ok && isPkgName(info, id) {
				return info.Uses[v.Sel]
			}
			x = v.X
		case *ast.Ident:
			if obj, ok := identObj(info, v).(*types.Var); ok {
				return obj
			}
			return nil
		default:
			return nil
		}
	}
}

// Callee resolves a call's static target — a package-level function or
// a method with a concrete declaration — or nil for builtins,
// conversions, function-typed values, and interface methods whose
// concrete target is unknown. Generic instantiations are unwrapped.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := calleeExpr(info, call).(type) {
	case *ast.Ident:
		fn, _ := identObj(info, f).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := identObj(info, f.Sel).(*types.Func)
		return fn
	}
	return nil
}

// FuncKey renders a stable cross-package key for fn:
// "pkgpath.Name" for functions and "pkgpath.Recv.Name" for methods
// (pointer receivers dereferenced), the form the value analyzers use
// to index their built-in contract tables.
func FuncKey(fn *types.Func) string {
	path := fn.Pkg().Path()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return path + "." + fn.Name()
}

// isTerminatorCall reports calls after which the current path does not
// return normally: panic, os.Exit, log.Fatal*, runtime.Goexit.
func isTerminatorCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		b, ok := identObj(info, fun).(*types.Builtin)
		return ok && b.Name() == "panic"
	case *ast.SelectorExpr:
		fn, _ := identObj(info, fun.Sel).(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "log":
			return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
		case "runtime":
			return fn.Name() == "Goexit"
		}
	}
	return false
}
