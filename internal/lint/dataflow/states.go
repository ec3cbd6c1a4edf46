// The protocol-state domain, for typestate: RunProto tracks a small
// finite-state machine per protocol object — "this Writer is active",
// "this Group is closed" — on the shared walker, with strong updates on
// the happy path, plus the two features protocols need that taint does
// not: deferred calls applied at every function exit (so `defer
// g.Close()` discharges a completion obligation), and must-complete
// checking at exits (an object that cannot be in an accepting state on
// some exit path is reported there).
//
// Interprocedural precision comes from per-(callee, parameter, input
// state) summaries: when a tracked object is passed to a same-package
// function, the domain runs the callee's body with the parameter seeded
// in each current state, memoizes the (output states, escaped) result,
// and applies it at the call site; cycles resolve to the conservative
// "escaped" summary, which silences obligations rather than inventing
// violations.
//
// Soundness posture: the domain is deliberately quiet. Any flow it
// cannot follow — returning the object, storing it into a field, slice,
// map, or channel, or (per-protocol) passing it to an unknown function
// — marks the object escaped, which disables all further checks on it.
// Escape can hide a misuse; it cannot fabricate one.

package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// StateSet is a bitset over one protocol's states (at most 32).
type StateSet uint32

// SingleState returns the set containing only state i.
func SingleState(i int) StateSet { return 1 << uint(i) }

// Has reports whether state i is in the set.
func (s StateSet) Has(i int) bool { return s&SingleState(i) != 0 }

// Empty reports whether the set has no states.
func (s StateSet) Empty() bool { return s == 0 }

// states iterates the members of the set in increasing order.
func (s StateSet) states(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if s.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Proto is one declarative protocol: a state machine over the method
// calls observed on a tracked value.
type Proto struct {
	// Name labels the protocol in diagnostics ("trace.Sink").
	Name string
	// Doc is the one-line protocol summary appended to diagnostics
	// ("protocol is Begin, then Tick*, then End").
	Doc string
	// States names the machine's states; diagnostics print them.
	States []string
	// Start is the state a freshly created value is in.
	Start int
	// Methods maps a method name to its transition vector. A method
	// absent from the map is protocol-neutral: it leaves the state
	// unchanged (accessors like Err or Size).
	Methods map[string]ProtoMethod
	// Accepting marks the states in which abandoning the value is
	// legal. Only consulted when MustComplete is set.
	Accepting StateSet
	// CompleteDoc names the completing call ("End", "Close") in
	// must-complete diagnostics; when empty, the accepting state names
	// are used.
	CompleteDoc string
	// MustComplete requires every tracked value to be possibly-accepting
	// at every exit it is still live on: if no state in the value's set
	// is accepting when a path leaves the function, the path is
	// reported.
	MustComplete bool
	// EscapeOnPass controls what passing the value as an argument to an
	// unsummarized call means: true (sinks, writers) hands off the
	// remaining obligations to the callee and stops tracking; false
	// (groups) assumes callees observe but do not drive the protocol,
	// keeping the caller's obligations alive.
	EscapeOnPass bool
}

// ProtoMethod is the transition vector of one method: Next[s] is the
// post-state when called in state s, or a negative value when the call
// violates the protocol in s.
type ProtoMethod struct {
	Next []int
	// ErrReleases marks a method that cleans up after its own failure
	// (a failed fileSink.Begin closes the file it opened): when the
	// method's error result is checked non-nil, the value owes nothing
	// in that branch.
	ErrReleases bool
}

// ProtoViolation is one protocol misuse finding.
type ProtoViolation struct {
	// Pos anchors the violating call (or the exit statement, for
	// must-complete findings).
	Pos token.Pos
	// Origin is where the tracked value was created.
	Origin token.Pos
	Proto  *Proto
	Msg    string
}

// StateAnalysis configures one RunProto invocation.
type StateAnalysis struct {
	Info *types.Info
	Fset *token.FileSet

	// Origin classifies a call as creating a tracked value: it returns
	// the protocol and the index of the call result that carries the
	// value.
	Origin func(call *ast.CallExpr) (p *Proto, result int, ok bool)

	// Decl resolves a same-package function to its declaration, for
	// interprocedural summaries. nil disables summaries (tracked
	// arguments then follow the protocol's EscapeOnPass rule).
	Decl func(fn *types.Func) *ast.FuncDecl

	// Report receives each violation once (deduplicated by position).
	Report func(v ProtoViolation)
}

// RunProto interprets body under a, reporting protocol violations
// through a.Report. ft is the function's type (for named results and
// naked returns). It is the typestate counterpart of Run.
func RunProto(ft *ast.FuncType, body *ast.BlockStmt, a *StateAnalysis) {
	d := newProtocols(a, nil)
	d.pushFrame()
	d.body(ft, body)
}

// objState is one tracked value's abstract state.
type objState struct {
	proto   *Proto
	states  StateSet
	origin  token.Pos
	escaped bool
}

// protoRef is what an expression means to the protocol domain.
type protoRef struct {
	// obj is the tracked variable the value carries, also through &, *
	// and type assertions: returning it escapes it.
	obj types.Object
	// named reports that the expression names obj itself: assigning it
	// moves the tracking to the new name, storing it escapes it.
	named bool
	// call is the constructor call the value comes from. With origin
	// set it is the tracked result, and the variable it is assigned to
	// starts being tracked; otherwise it is another result of the call.
	call   *ast.CallExpr
	origin *Proto
	// guards is the tracked value an error result vouches for (a method
	// that cleans up after its own failure).
	guards types.Object
}

// deferredCall is one recorded defer, applied at function exits in
// reverse order.
type deferredCall struct {
	obj    types.Object // nil when lit is set
	method string
	pos    token.Pos
	lit    *ast.FuncLit
}

// protoFrame scopes defers and created objects to one function (the
// top declaration or a literal).
type protoFrame struct {
	defers  []deferredCall
	created []types.Object
}

type sumKey struct {
	fn    *types.Func
	param int // -1 is the receiver
	in    int
}

type sumVal struct {
	out     StateSet
	escaped bool
}

// protocols is the protocol-state domain. A variable missing from the
// environment is untracked.
type protocols struct {
	walker[objState, protoRef]
	a        *StateAnalysis
	frames   []*protoFrame
	reported map[token.Pos]bool
	sums     map[sumKey]sumVal
	running  map[sumKey]bool
	// errGuard links an error variable to the tracked value it vouches
	// for: in the branch where the error is non-nil the value is nil
	// (or already released), so its obligations vanish there. Both maps
	// are made on first use.
	errGuard map[types.Object]types.Object
	// made maps a constructor call to the variable its tracked result
	// was last assigned to.
	made map[*ast.CallExpr]types.Object
	// A summary run carries the seeded object whose exit states it
	// collects.
	seedObj   types.Object
	seedOut   StateSet
	seedAtRet bool
}

// newProtocols readies a run. A summary run shares its caller's
// report dedup set and summary memo.
func newProtocols(a *StateAnalysis, caller *protocols) *protocols {
	d := &protocols{a: a}
	if caller != nil {
		d.reported, d.sums, d.running = caller.reported, caller.sums, caller.running
	} else {
		d.reported, d.sums, d.running = make(map[token.Pos]bool), make(map[sumKey]sumVal), make(map[sumKey]bool)
	}
	d.init(d, a.Info)
	return d
}

func (d *protocols) pushFrame() { d.frames = append(d.frames, &protoFrame{}) }

func (d *protocols) popFrame() *protoFrame {
	f := d.frames[len(d.frames)-1]
	d.frames = d.frames[:len(d.frames)-1]
	return f
}

func (d *protocols) topFrame() *protoFrame { return d.frames[len(d.frames)-1] }

func (d *protocols) report(pos, origin token.Pos, p *Proto, msg string) {
	if d.reported[pos] {
		return
	}
	d.reported[pos] = true
	if d.a.Report != nil {
		d.a.Report(ProtoViolation{Pos: pos, Origin: origin, Proto: p, Msg: msg})
	}
}

// track starts tracking obj in proto's start state.
func (d *protocols) track(obj types.Object, p *Proto, origin token.Pos) {
	d.env[obj] = objState{proto: p, states: SingleState(p.Start), origin: origin}
	f := d.topFrame()
	f.created = append(f.created, obj)
}

// escape stops enforcing anything about obj.
func (d *protocols) escape(obj types.Object) {
	if obj == nil {
		return
	}
	if st, ok := d.env[obj]; ok && !st.escaped {
		st.escaped = true
		d.env[obj] = st
	}
}

// join unions the states; escape is sticky.
func (d *protocols) join(a, b objState) objState {
	a.states |= b.states
	a.escaped = a.escaped || b.escaped
	return a
}

func (d *protocols) absentTop() bool { return false }

func (d *protocols) loop(pass int, pre, _, out env[objState]) (env[objState], bool) {
	return carryTwice(&d.walker, pass, pre, out)
}

// read is a named result at a naked return: a tracked one escapes to
// the caller, as it would through an explicit return.
func (d *protocols) read(obj types.Object) protoRef { return protoRef{obj: obj} }

func (d *protocols) elem(protoRef) protoRef                                   { return protoRef{} }
func (d *protocols) arith(token.Token, protoRef, protoRef, ast.Expr) protoRef { return protoRef{} }
func (d *protocols) refineCase(ast.Expr, *ast.CaseClause)                     {}
func (d *protocols) selected(*ast.SelectStmt, *ast.CommClause)                {}

// set binds v to the variable obj: a constructor result starts
// tracking, an error result guards its value, and a tracked value moves
// to its new name. Reassigning a variable drops the tracked value it
// held (its obligations were either discharged or the value escaped
// when it arrived).
func (d *protocols) set(obj types.Object, v protoRef) {
	if v.origin != nil {
		d.track(obj, v.origin, v.call.Pos())
		if d.made == nil {
			d.made = make(map[*ast.CallExpr]types.Object)
		}
		d.made[v.call] = obj
		return
	}
	if (v.call != nil || v.guards != nil) && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
		g := v.guards
		if g == nil {
			g = d.made[v.call]
		}
		if g != nil {
			if d.errGuard == nil {
				d.errGuard = make(map[types.Object]types.Object)
			}
			d.errGuard[obj] = g
		}
		return
	}
	if isGlobalVar(obj) {
		// A package-level variable: the value escapes there.
		if v.named {
			d.escape(v.obj)
		}
		return
	}
	if src := v.obj; v.named && src != obj {
		// Aliasing: both names now refer to the same value, so strong
		// updates through either would be unsound — escape the source
		// and move its state to the destination.
		st := d.env[src]
		d.escape(src)
		st.escaped = false
		d.env[obj] = st
		d.topFrame().created = append(d.topFrame().created, obj)
		return
	}
	if _, tracked := d.env[obj]; tracked {
		d.escape(obj)
	}
}

// store escapes a tracked value stored into a field, element, map,
// channel or the blank identifier.
func (d *protocols) store(_ ast.Expr, v protoRef) {
	if v.named {
		d.escape(v.obj)
	}
}

// refine drops the value an error guards in the branch where the error
// is non-nil.
func (d *protocols) refine(cond ast.Expr, truth bool) {
	if guarded, neq := d.nilGuard(cond); guarded != nil && neq == truth {
		d.escape(guarded)
	}
}

// rangeVals escapes a tracked value ranged over.
func (d *protocols) rangeVals(_ *ast.RangeStmt, x protoRef) (protoRef, protoRef) {
	d.escape(x.obj)
	return protoRef{}, protoRef{}
}

func (d *protocols) deferred(s *ast.DeferStmt) {
	call := s.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok && len(call.Args) == 0 {
		f := d.topFrame()
		f.defers = append(f.defers, deferredCall{lit: lit, pos: s.Pos()})
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if obj := d.trackedBase(sel.X); obj != nil {
			f := d.topFrame()
			f.defers = append(f.defers, deferredCall{obj: obj, method: sel.Sel.Name, pos: s.Pos()})
			for _, a := range call.Args {
				d.evalArg(a)
			}
			return
		}
	}
	// Any other defer: evaluate normally (arguments may escape).
	d.expr(call)
}

// exit escapes the returned values (they hand their obligations to the
// caller), collects a summary's seed state, and checks obligations.
func (d *protocols) exit(pos token.Pos, ret *ast.ReturnStmt, vals []protoRef) {
	for _, v := range vals {
		d.escape(v.obj)
	}
	if d.seedObj != nil && (ret != nil || len(d.frames) == 1) {
		if st, ok := d.env[d.seedObj]; ok {
			d.seedOut |= st.states
			if st.escaped {
				d.seedAtRet = true
			}
		}
	}
	d.check(pos)
}

// check applies the current frame's defers (in reverse) to a copy of
// the state and checks completion obligations on that copy.
func (d *protocols) check(pos token.Pos) {
	saved := d.env
	d.env = maps.Clone(saved)
	f := d.topFrame()
	for i := len(f.defers) - 1; i >= 0; i-- {
		df := f.defers[i]
		if df.lit != nil {
			d.funcLit(df.lit)
			continue
		}
		d.applyMethod(df.obj, df.method, df.pos)
	}
	for _, obj := range f.created {
		st, ok := d.env[obj]
		if !ok || st.escaped || !st.proto.MustComplete {
			continue
		}
		if st.states&st.proto.Accepting == 0 {
			d.report(pos, st.origin, st.proto,
				st.proto.Name+" value does not reach "+acceptingHint(st.proto)+
					" on this path ("+st.proto.Doc+")")
			// Latch accepting so later exits on joined paths do not
			// repeat the finding for the same object.
			st.states |= st.proto.Accepting
			saved[obj] = st
		}
	}
	d.env = saved
}

// acceptingHint names the completing call or, failing that, the
// accepting states, for the must-complete messagd.
func acceptingHint(p *Proto) string {
	if p.CompleteDoc != "" {
		return p.CompleteDoc
	}
	names := ""
	for _, i := range p.Accepting.states(len(p.States)) {
		if names != "" {
			names += " or "
		}
		names += p.States[i]
	}
	if names == "" {
		return "completion"
	}
	return names
}

// ---- expressions ----

// expr walks x and returns the tracked value it denotes. Composite
// literal elements escape into the literal.
func (d *protocols) expr(x ast.Expr) protoRef {
	switch x := x.(type) {
	case *ast.Ident:
		if obj := d.trackedBase(x); obj != nil {
			return protoRef{obj: obj, named: true}
		}
	case *ast.ParenExpr:
		return d.expr(x.X)
	case *ast.UnaryExpr:
		return protoRef{obj: d.expr(x.X).obj}
	case *ast.StarExpr:
		return protoRef{obj: d.expr(x.X).obj}
	case *ast.TypeAssertExpr:
		return protoRef{obj: d.expr(x.X).obj}
	case *ast.BinaryExpr:
		d.expr(x.X)
		d.expr(x.Y)
	case *ast.IndexExpr:
		d.expr(x.X)
		d.expr(x.Index)
	case *ast.IndexListExpr:
		d.expr(x.X)
	case *ast.SliceExpr:
		d.expr(x.X)
	case *ast.SelectorExpr:
		d.expr(x.X)
	case *ast.KeyValueExpr:
		d.escape(d.expr(x.Value).obj)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			d.escape(d.expr(elt).obj)
		}
	case *ast.CallExpr:
		return d.call(x)
	case *ast.FuncLit:
		d.funcLit(x)
	}
	return protoRef{}
}

// funcLit walks a literal's body inline, sharing the environment (its
// captures observe and drive the same protocol objects), with its own
// defer/created frame so objects born inside it are checked at its end.
func (d *protocols) funcLit(lit *ast.FuncLit) {
	d.pushFrame()
	d.body(lit.Type, lit.Body)
	// Objects created inside the literal are out of scope now.
	for _, obj := range d.popFrame().created {
		delete(d.env, obj)
	}
}

// trackedBase resolves x to a live tracked object, or nil.
func (d *protocols) trackedBase(x ast.Expr) types.Object {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok || len(d.env) == 0 {
		return nil
	}
	obj := identObj(d.a.Info, id)
	if obj == nil {
		return nil
	}
	if st, tracked := d.env[obj]; tracked && !st.escaped {
		return obj
	}
	return nil
}

// call interprets one call: constructor, protocol method, summarized
// same-package call, or unknown call.
func (d *protocols) call(call *ast.CallExpr) protoRef {
	if d.a.Origin != nil {
		if p, idx, ok := d.a.Origin(call); ok {
			// Arguments first (they may escape); the result is tracked
			// once it is assigned to a variable.
			for _, a := range call.Args {
				d.evalArg(a)
			}
			ref := protoRef{origin: p, call: call}
			if n := resultArity(d.a.Info, call); n > 1 {
				per := make([]protoRef, n)
				for i := range per {
					per[i] = protoRef{call: call}
				}
				if idx < n {
					per[idx] = ref
				}
				d.record(call, per)
			}
			return ref
		}
	}

	fun := ast.Unparen(call.Fun)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if obj := d.trackedBase(sel.X); obj != nil {
			if m, isProtoMethod := d.env[obj].proto.Methods[sel.Sel.Name]; isProtoMethod {
				for _, a := range call.Args {
					d.evalArg(a)
				}
				d.applyMethod(obj, sel.Sel.Name, call.Pos())
				if m.ErrReleases {
					return protoRef{guards: obj}
				}
				return protoRef{}
			}
			// Unknown method on a tracked value: try a same-package
			// summary over the receiver; otherwise protocol-neutral.
			if fn := Callee(d.a.Info, call); fn != nil {
				d.applySummary(fn, obj, -1)
			}
			for _, a := range call.Args {
				d.expr(a)
			}
			return protoRef{}
		}
	}

	// Tracked values passed as arguments.
	fn := Callee(d.a.Info, call)
	for i, arg := range call.Args {
		obj := d.trackedBase(arg)
		if obj == nil {
			d.expr(arg)
			continue
		}
		if fn != nil && d.applySummary(fn, obj, i) {
			continue
		}
		if d.env[obj].proto.EscapeOnPass {
			d.escape(obj)
		}
	}
	if sel, isSel := fun.(*ast.SelectorExpr); isSel {
		d.expr(sel.X)
	} else {
		d.expr(fun)
	}
	return protoRef{}
}

// evalArg walks one call argument: a bare tracked value escapes only
// when its protocol says passing hands off responsibility.
func (d *protocols) evalArg(a ast.Expr) {
	if obj := d.trackedBase(a); obj != nil {
		if d.env[obj].proto.EscapeOnPass {
			d.escape(obj)
		}
		return
	}
	d.expr(a)
}

// applyMethod transitions obj on a call to method at pos.
func (d *protocols) applyMethod(obj types.Object, method string, pos token.Pos) {
	st, ok := d.env[obj]
	if !ok || st.escaped {
		return
	}
	m, ok := st.proto.Methods[method]
	if !ok {
		return
	}
	var next StateSet
	bad := -1
	anyOK := false
	for _, s := range st.states.states(len(st.proto.States)) {
		if m.Next[s] < 0 {
			if bad < 0 {
				bad = s
			}
			continue
		}
		anyOK = true
		next |= SingleState(m.Next[s])
	}
	if bad >= 0 {
		d.report(pos, st.origin, st.proto,
			st.proto.Name+"."+method+" called in state "+quote(st.proto.States[bad])+
				" ("+st.proto.Doc+")")
	}
	if anyOK {
		st.states = next
		d.env[obj] = st
	}
	// No legal source state: keep the old state to avoid cascading
	// reports from one mistakd.
}

func quote(s string) string { return "\"" + s + "\"" }

// applySummary applies the memoized (callee, param, state) summary when
// the callee has a same-package body; it reports violations found
// inside the callee once, at their own positions.
func (d *protocols) applySummary(fn *types.Func, obj types.Object, param int) bool {
	if d.a.Decl == nil {
		return false
	}
	decl := d.a.Decl(fn)
	if decl == nil || decl.Body == nil {
		return false
	}
	st := d.env[obj]
	var out StateSet
	escaped := false
	for _, s := range st.states.states(len(st.proto.States)) {
		sv := d.summarize(fn, decl, st.proto, param, s, st.origin)
		out |= sv.out
		escaped = escaped || sv.escaped
	}
	if out.Empty() {
		out = st.states
	}
	st.states = out
	st.escaped = st.escaped || escaped
	d.env[obj] = st
	return true
}

// summarize computes (memoized) what the callee does to a value of
// proto arriving in state `in` through parameter `param` (-1 is the
// receiver). Cycles resolve to "escaped", which silences rather than
// reports.
func (d *protocols) summarize(fn *types.Func, decl *ast.FuncDecl, p *Proto, param, in int, origin token.Pos) sumVal {
	key := sumKey{fn: fn, param: param, in: in}
	if sv, ok := d.sums[key]; ok {
		return sv
	}
	if d.running[key] {
		return sumVal{out: SingleState(in), escaped: true}
	}
	d.running[key] = true
	defer delete(d.running, key)

	var seedVar types.Object
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil {
		if param < 0 {
			seedVar = sig.Recv()
		} else if param < sig.Params().Len() {
			seedVar = sig.Params().At(param)
		}
	}
	if seedVar == nil {
		sv := sumVal{out: SingleState(in), escaped: true}
		d.sums[key] = sv
		return sv
	}

	sub := newProtocols(d.a, d) // shared dedup: callee findings print once
	sub.env[seedVar] = objState{proto: p, states: SingleState(in), origin: origin}
	sub.seedObj = seedVar
	sub.pushFrame()
	sub.body(decl.Type, decl.Body)
	out := sub.seedOut
	if out.Empty() {
		out = SingleState(in)
	}
	sv := sumVal{out: out, escaped: sub.seedAtRet}
	d.sums[key] = sv
	return sv
}

// nilGuard recognizes `x != nil` / `x == nil` conditions over an error
// variable that guards a tracked value, returning the tracked object
// and whether the comparison was !=.
func (d *protocols) nilGuard(cond ast.Expr) (types.Object, bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.NEQ && b.Op != token.EQL) {
		return nil, false
	}
	operand := b.X
	if id, isNil := ast.Unparen(b.X).(*ast.Ident); isNil && id.Name == "nil" {
		operand = b.Y
	} else if id, isNil := ast.Unparen(b.Y).(*ast.Ident); !isNil || id.Name != "nil" {
		return nil, false
	}
	id, ok := ast.Unparen(operand).(*ast.Ident)
	if !ok {
		return nil, false
	}
	errObj := identObj(d.a.Info, id)
	if errObj == nil {
		return nil, false
	}
	tracked := d.errGuard[errObj]
	if tracked == nil {
		return nil, false
	}
	return tracked, b.Op == token.NEQ
}

// isGlobalVar reports whether obj is a package-level variable (its
// scope's parent is the universe scope).
func isGlobalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	p := v.Parent()
	return p != nil && p.Parent() == types.Universe
}
