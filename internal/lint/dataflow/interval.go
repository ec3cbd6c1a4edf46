// The interval domain: a min/max lattice in which every numeric
// variable and expression carries an Interval [Lo, Hi] of the values
// it may take, with ±Inf as the unbounded ends. Reassignment replaces
// a variable's interval, branch merges take the hull, loop heads widen
// (a bound that grew between passes goes straight to its infinity, so
// loops converge in one widening step), and branch conditions refine:
// inside `if x < k` the then-arm meets x with (-inf, k) and the
// else-arm with [k, +inf), including through &&, ||, !, and constant
// switch cases.
//
// Constants are folded exactly through go/constant (Info.Types[x].Value
// covers arbitrarily nested constant expressions), and three hooks let
// analyzers re-interpret values: Call supplies per-call result
// intervals (where callgraph-memoized function summaries plug in, the
// way detflow's taint summaries do), Const re-homes typed constants
// (rangecheck places sim.Time constants in offset-from-now space), and
// Convert does the same for non-constant conversions.
//
// Soundness posture: an interval is an over-approximation of the
// runtime values reaching a program point, under the standard
// assume/guarantee reading of seeded parameter ranges. Anything the
// domain cannot see — address-taken variables, values written by
// closures that may run later, stores through pointers passed to
// unknown callees — degrades to Top, never to a narrower guess.

package dataflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"math"
	"sort"
	"strconv"
)

// Interval is a closed numeric range with ±Inf as open ends. The zero
// Interval is the point 0; use TopInterval for "unknown".
type Interval struct {
	Lo, Hi float64
}

// TopInterval is the unbounded interval (-inf, +inf).
func TopInterval() Interval {
	return Interval{math.Inf(-1), math.Inf(1)}
}

// PointInterval is the single-value interval [v, v].
func PointInterval(v float64) Interval { return Interval{v, v} }

// AtLeast is [lo, +inf).
func AtLeast(lo float64) Interval { return Interval{lo, math.Inf(1)} }

// AtMost is (-inf, hi].
func AtMost(hi float64) Interval { return Interval{math.Inf(-1), hi} }

// IsTop reports whether iv carries no information.
func (iv Interval) IsTop() bool {
	return math.IsInf(iv.Lo, -1) && math.IsInf(iv.Hi, 1)
}

// Contains reports whether v lies inside iv.
func (iv Interval) Contains(v float64) bool { return iv.Lo <= v && v <= iv.Hi }

// Within reports iv ⊆ other.
func (iv Interval) Within(other Interval) bool {
	return other.Lo <= iv.Lo && iv.Hi <= other.Hi
}

// Join is the lattice join (interval hull).
func (iv Interval) Join(other Interval) Interval {
	return Interval{math.Min(iv.Lo, other.Lo), math.Max(iv.Hi, other.Hi)}
}

// Meet intersects two intervals; ok is false when they are disjoint.
func (iv Interval) Meet(other Interval) (Interval, bool) {
	m := Interval{math.Max(iv.Lo, other.Lo), math.Min(iv.Hi, other.Hi)}
	if m.Lo > m.Hi {
		return Interval{}, false
	}
	return m, true
}

// Widen jumps any bound of next that moved past iv to its infinity —
// the loop-head widening operator that makes fixpoints converge in one
// step per direction.
func (iv Interval) Widen(next Interval) Interval {
	if next.Lo < iv.Lo {
		next.Lo = math.Inf(-1)
	}
	if next.Hi > iv.Hi {
		next.Hi = math.Inf(1)
	}
	return next
}

// Neg is -iv.
func (iv Interval) Neg() Interval { return Interval{-iv.Hi, -iv.Lo} }

// Add is iv + other (interval sum; inf absorbs).
func (iv Interval) Add(other Interval) Interval {
	return Interval{addBound(iv.Lo, other.Lo, -1), addBound(iv.Hi, other.Hi, 1)}
}

// Sub is iv - other.
func (iv Interval) Sub(other Interval) Interval { return iv.Add(other.Neg()) }

// addBound sums two bounds; an inf−inf clash resolves toward the
// conservative side (sign = -1 for lower bounds, +1 for upper).
func addBound(a, b float64, sign int) float64 {
	s := a + b
	if math.IsNaN(s) {
		return math.Inf(sign)
	}
	return s
}

// Mul is iv × other.
func (iv Interval) Mul(other Interval) Interval {
	if iv.IsTop() || other.IsTop() {
		return TopInterval()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, a := range [2]float64{iv.Lo, iv.Hi} {
		for _, b := range [2]float64{other.Lo, other.Hi} {
			p := a * b
			if math.IsNaN(p) { // 0 × ±inf: the limit is 0
				p = 0
			}
			lo = math.Min(lo, p)
			hi = math.Max(hi, p)
		}
	}
	return Interval{lo, hi}
}

// Div is iv ÷ other. A divisor interval containing zero yields Top:
// the division either panics (integers) or produces ±Inf (floats),
// and the range checks report that hazard separately.
func (iv Interval) Div(other Interval) Interval {
	if iv.IsTop() || other.IsTop() || other.Contains(0) {
		return TopInterval()
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, a := range [2]float64{iv.Lo, iv.Hi} {
		for _, b := range [2]float64{other.Lo, other.Hi} {
			var q float64
			switch {
			case math.IsInf(a, 0) && math.IsInf(b, 0):
				q = math.Inf(1)
				if (a < 0) != (b < 0) {
					q = math.Inf(-1)
				}
			case math.IsInf(b, 0):
				q = 0
			default:
				q = a / b
			}
			lo = math.Min(lo, q)
			hi = math.Max(hi, q)
		}
	}
	return Interval{lo, hi}
}

// Rem approximates iv % other for the integer case: when the dividend
// is provably nonnegative and the divisor excludes zero the result is
// [0, max|other|); everything else is Top.
func (iv Interval) Rem(other Interval) Interval {
	if other.Contains(0) || iv.Lo < 0 {
		return TopInterval()
	}
	m := math.Max(math.Abs(other.Lo), math.Abs(other.Hi))
	if math.IsInf(m, 1) {
		return Interval{0, math.Inf(1)}
	}
	return Interval{0, m - 1}
}

// String renders the interval with round brackets on unbounded ends:
// "[0, +inf)", "(-inf, 45000]", "[2, 7]".
func (iv Interval) String() string {
	open, close := "[", "]"
	lo, hi := formatBound(iv.Lo), formatBound(iv.Hi)
	if math.IsInf(iv.Lo, -1) {
		open = "("
	}
	if math.IsInf(iv.Hi, 1) {
		close = ")"
	}
	return open + lo + ", " + hi + close
}

func formatBound(v float64) string {
	switch {
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsInf(v, 1):
		return "+inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// IntervalEffect is the transfer function of one call under the
// interval interpretation.
type IntervalEffect struct {
	// Results gives per-result intervals; nil (or wrong arity) means
	// every result is Top.
	Results []Interval
	// NoMutation suppresses the conservative rule that an unknown call
	// may scribble over any pointer-typed argument or pointer receiver.
	NoMutation bool
}

// IntervalAnalysis configures one interval run.
type IntervalAnalysis struct {
	Info *types.Info
	Fset *token.FileSet

	// Call classifies one call given the intervals of its receiver and
	// arguments. ok=false selects the default: Top results plus the
	// pointer-argument mutation rule.
	Call func(call *ast.CallExpr, recv Interval, args []Interval) (IntervalEffect, bool)

	// Const, when non-nil, may re-home a folded constant expression
	// (rangecheck maps sim.Time constants into offset-from-now space).
	// v is the exactly folded value.
	Const func(x ast.Expr, v Interval) (Interval, bool)

	// Convert, when non-nil, may re-interpret a non-constant conversion
	// T(x); v is the operand's interval.
	Convert func(call *ast.CallExpr, v Interval) (Interval, bool)

	// Seed pre-assigns intervals to parameters or the receiver —
	// declared //lint:range contracts, or a summary probe.
	Seed map[*types.Var]Interval
}

// IntervalReturn is the per-result interval vector observed at one
// return site of the analyzed function (function literals keep their
// returns to themselves).
type IntervalReturn struct {
	Pos     token.Pos
	Results []Interval
}

// IntervalResult is the outcome of one interval run.
type IntervalResult struct {
	// Expr records, for every expression occurrence, the join of the
	// intervals it evaluated to across all passes — what analyzers look
	// up for sink arguments.
	Expr map[ast.Expr]Interval
	// Objects is the final interval state of tracked variables.
	Objects map[types.Object]Interval
	// Returns lists the function's own return sites in source order.
	Returns []IntervalReturn
}

// maxIntervalLoopPasses bounds the loop-head fixpoint: pass 1 observes
// growth, pass 2 runs on the widened head, pass 3 confirms
// convergence (widening to ±inf makes that certain).
const maxIntervalLoopPasses = 3

// RunIntervals interprets body under a and returns the recorded
// result. ft is the function's type (for named results and naked
// returns); it may be nil for synthetic bodies.
func RunIntervals(ft *ast.FuncType, body *ast.BlockStmt, a *IntervalAnalysis) *IntervalResult {
	d := &intervals{
		a:        a,
		rec:      make(map[ast.Expr]Interval),
		retSites: make(map[*ast.ReturnStmt]*IntervalReturn),
		poisoned: make(map[types.Object]bool),
	}
	d.init(d, a.Info)
	// Named results are zero-initialized by the language.
	if ft != nil && ft.Results != nil {
		for _, f := range ft.Results.List {
			for _, name := range f.Names {
				if obj := a.Info.Defs[name]; obj != nil && isNumericObj(obj) {
					d.env[obj] = PointInterval(0)
				}
			}
		}
	}
	for v, iv := range a.Seed {
		d.env[v] = iv
	}
	d.body(ft, body)
	res := &IntervalResult{Expr: d.rec, Objects: d.env}
	for _, r := range d.retSites {
		res.Returns = append(res.Returns, *r)
	}
	sort.Slice(res.Returns, func(i, j int) bool { return res.Returns[i].Pos < res.Returns[j].Pos })
	return res
}

// intervals is the interval domain. A variable missing from the
// environment is Top.
type intervals struct {
	walker[Interval, Interval]
	a        *IntervalAnalysis
	rec      map[ast.Expr]Interval
	retSites map[*ast.ReturnStmt]*IntervalReturn
	poisoned map[types.Object]bool // address-taken: permanently Top
	writes   map[types.Object]bool // non-nil inside a function literal
	litDepth int
	quiet    bool // suppress expr recording (refinement re-evaluation)
}

func (d *intervals) join(a, b Interval) Interval { return a.Join(b) }
func (d *intervals) absentTop() bool             { return true }

// loop re-runs the body from the loop head joined with what the last
// pass fell out with, widened: a bound that grew jumps to its
// infinity. The exit state is the converged head. The ¬cond refinement
// is deliberately not applied: a break leaves with cond still true.
func (d *intervals) loop(pass int, _, head, out env[Interval]) (env[Interval], bool) {
	if out == nil {
		return head, true
	}
	next := make(env[Interval], len(head))
	for o, hv := range head {
		if ov, ok := out[o]; ok {
			if w := hv.Widen(hv.Join(ov)); !w.IsTop() {
				next[o] = w
			}
		}
	}
	return next, pass+1 == maxIntervalLoopPasses || maps.Equal(next, head)
}

func (d *intervals) setObj(o types.Object, iv Interval) {
	if o == nil || d.poisoned[o] || !isNumericObj(o) {
		return
	}
	if d.writes != nil {
		d.writes[o] = true
	}
	if iv.IsTop() {
		delete(d.env, o)
		return
	}
	d.env[o] = iv
}

func (d *intervals) intervalOf(o types.Object) Interval {
	if o == nil || d.poisoned[o] {
		return TopInterval()
	}
	if iv, ok := d.env[o]; ok {
		return iv
	}
	return TopInterval()
}

// poison marks an address-taken variable permanently unknown: any
// alias may rewrite it at any time.
func (d *intervals) poison(o types.Object) {
	if o == nil {
		return
	}
	if d.writes != nil {
		d.writes[o] = true
	}
	d.poisoned[o] = true
	delete(d.env, o)
}

func (d *intervals) read(obj types.Object) Interval            { return d.intervalOf(obj) }
func (d *intervals) elem(Interval) Interval                    { return TopInterval() }
func (d *intervals) set(obj types.Object, iv Interval)         { d.setObj(obj, iv) }
func (d *intervals) selected(*ast.SelectStmt, *ast.CommClause) {}
func (d *intervals) deferred(s *ast.DeferStmt)                 { d.expr(s.Call) }

// arith applies x op= y, x++ and x--: the operator is known exactly.
func (d *intervals) arith(op token.Token, x, y Interval, opnd ast.Expr) Interval {
	switch op {
	case token.INC:
		return x.Add(PointInterval(1))
	case token.DEC:
		return x.Sub(PointInterval(1))
	}
	if bop, ok := compoundOp(op); ok {
		return d.binop(bop, x, y, opnd)
	}
	return TopInterval()
}

// store evaluates the operands of an element, field, indirect or
// channel store; the memory it writes is not modeled.
func (d *intervals) store(lhs ast.Expr, _ Interval) {
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name != "_" {
			d.expr(x)
		}
	case *ast.ParenExpr:
		d.store(x.X, Interval{})
	case *ast.StarExpr:
		d.expr(x.X)
	case *ast.SelectorExpr:
		d.expr(x.X)
	case *ast.IndexExpr:
		d.expr(x.X)
		d.expr(x.Index)
	}
}

// rangeVals models the key variable of `range x`: slice, array, and
// string indices are nonnegative; an integer range is [0, x-1]; map
// keys and channel values are unknown. Values are unknown.
func (d *intervals) rangeVals(s *ast.RangeStmt, _ Interval) (Interval, Interval) {
	key := TopInterval()
	if tv, ok := d.a.Info.Types[s.X]; ok && tv.Type != nil {
		switch t := tv.Type.Underlying().(type) {
		case *types.Slice, *types.Array, *types.Pointer:
			key = AtLeast(0)
		case *types.Basic:
			switch {
			case t.Info()&types.IsString != 0:
				key = AtLeast(0)
			case t.Info()&types.IsInteger != 0:
				n := d.evalQuiet(s.X)
				key = Interval{0, math.Max(0, n.Hi-1)}
			}
		}
	}
	return key, TopInterval()
}

// exit joins the per-result intervals of each of the function's own
// return sites across passes; a literal's returns are not the
// function's returns.
func (d *intervals) exit(pos token.Pos, ret *ast.ReturnStmt, ivs []Interval) {
	if ret == nil || d.litDepth > 0 {
		return
	}
	if prev, ok := d.retSites[ret]; ok && len(prev.Results) == len(ivs) {
		for i := range prev.Results {
			prev.Results[i] = prev.Results[i].Join(ivs[i])
		}
		return
	}
	d.retSites[ret] = &IntervalReturn{Pos: pos, Results: ivs}
}

// refineCase meets a constant-cased switch tag with the hull of the
// clause's case values.
func (d *intervals) refineCase(tag ast.Expr, cc *ast.CaseClause) {
	obj := refinableObj(d.a.Info, tag)
	if obj == nil || len(cc.List) == 0 {
		return
	}
	hull := Interval{math.Inf(1), math.Inf(-1)}
	for _, x := range cc.List {
		tv, ok := d.a.Info.Types[x]
		if !ok || tv.Value == nil {
			return
		}
		p, ok := constInterval(tv.Value)
		if !ok {
			return
		}
		hull.Lo = math.Min(hull.Lo, p.Lo)
		hull.Hi = math.Max(hull.Hi, p.Hi)
	}
	if m, ok := d.intervalOf(obj).Meet(hull); ok {
		d.setObj(obj, m)
	}
}

func compoundOp(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	case token.REM_ASSIGN:
		return token.REM, true
	}
	return token.ILLEGAL, false
}

// ---- expressions ----

// expr computes the interval of x in the current state, recording the
// join across evaluations (loop passes, branch arms).
func (d *intervals) expr(x ast.Expr) Interval {
	if x == nil {
		return TopInterval()
	}
	v := d.eval(x)
	if !d.quiet {
		if old, ok := d.rec[x]; ok {
			v = old.Join(v)
		}
		d.rec[x] = v
	}
	return v
}

// evalQuiet evaluates without recording (refinement re-evaluation).
func (d *intervals) evalQuiet(x ast.Expr) Interval {
	saved := d.quiet
	d.quiet = true
	v := d.eval(x)
	d.quiet = saved
	return v
}

func (d *intervals) eval(x ast.Expr) Interval {
	// Constant folding first: go/constant has already evaluated any
	// constant expression exactly, however deeply nested.
	if tv, ok := d.a.Info.Types[x]; ok && tv.Value != nil {
		if iv, ok := constInterval(tv.Value); ok {
			if d.a.Const != nil {
				if h, hok := d.a.Const(x, iv); hok {
					return h
				}
			}
			return iv
		}
		return TopInterval()
	}
	switch x := x.(type) {
	case *ast.Ident:
		obj := identObj(d.a.Info, x)
		if v, ok := obj.(*types.Var); ok {
			return d.intervalOf(v)
		}
		return TopInterval()
	case *ast.ParenExpr:
		return d.expr(x.X)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && isPkgName(d.a.Info, id) {
			return TopInterval() // mutable package-level variable
		}
		d.expr(x.X)
		return TopInterval() // field read: not modeled
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			return d.expr(x.X).Neg()
		case token.ADD:
			return d.expr(x.X)
		case token.AND:
			// Address taken: any alias may rewrite the base from here on.
			d.expr(x.X)
			d.poison(BaseObj(d.a.Info, x.X))
			return TopInterval()
		default:
			d.expr(x.X)
			return TopInterval()
		}
	case *ast.BinaryExpr:
		lv := d.expr(x.X)
		rv := d.expr(x.Y)
		return d.binop(x.Op, lv, rv, x.X)
	case *ast.StarExpr:
		d.expr(x.X)
		return TopInterval()
	case *ast.IndexExpr:
		d.expr(x.X)
		d.expr(x.Index)
		return TopInterval()
	case *ast.IndexListExpr:
		d.expr(x.X)
		return TopInterval()
	case *ast.SliceExpr:
		d.expr(x.X)
		d.expr(x.Low)
		d.expr(x.High)
		d.expr(x.Max)
		return TopInterval()
	case *ast.KeyValueExpr:
		d.expr(x.Value)
		return TopInterval()
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			d.expr(elt)
		}
		return TopInterval()
	case *ast.TypeAssertExpr:
		d.expr(x.X)
		return TopInterval()
	case *ast.FuncLit:
		return d.funcLit(x)
	case *ast.CallExpr:
		return d.call(x)
	}
	return TopInterval()
}

// binop applies an arithmetic operator; opnd carries the operand type
// (for integer-vs-float behavior of division).
func (d *intervals) binop(op token.Token, lv, rv Interval, opnd ast.Expr) Interval {
	switch op {
	case token.ADD:
		if isStringExpr(d.a.Info, opnd) {
			return TopInterval()
		}
		return lv.Add(rv)
	case token.SUB:
		return lv.Sub(rv)
	case token.MUL:
		return lv.Mul(rv)
	case token.QUO:
		q := lv.Div(rv)
		if q.IsTop() {
			return q
		}
		if isIntegerExpr(d.a.Info, opnd) {
			// Integer division truncates toward zero; the real-valued
			// quotient hull is a superset after rounding outward.
			q = Interval{math.Floor(q.Lo), math.Ceil(q.Hi)}
		}
		return q
	case token.REM:
		return lv.Rem(rv)
	}
	return TopInterval() // shifts, bitwise ops, comparisons, &&, ||
}

// funcLit analyzes a literal body against a snapshot of the current
// state, then discards its effects except that every captured variable
// the literal writes becomes Top in the enclosing state: the closure
// may run at any later time, so nothing downstream may rely on a value
// it can overwritd.
func (d *intervals) funcLit(lit *ast.FuncLit) Interval {
	savedState := d.env
	d.env = maps.Clone(savedState)
	savedWrites := d.writes
	d.writes = make(map[types.Object]bool)
	d.litDepth++
	d.body(lit.Type, lit.Body)
	d.litDepth--
	written := d.writes
	d.writes = savedWrites
	d.env = savedState
	for o := range written {
		if d.writes != nil {
			d.writes[o] = true
		}
		delete(d.env, o)
	}
	return TopInterval()
}

// call interprets one call expression.
func (d *intervals) call(call *ast.CallExpr) Interval {
	fun := calleeExpr(d.a.Info, call)

	// Builtins and conversions first.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := identObj(d.a.Info, id).(*types.Builtin); ok {
			return d.builtin(b.Name(), call)
		}
	}
	if tn := conversionType(d.a.Info, fun); tn != nil {
		return d.conversion(call, tn)
	}

	var recv Interval = TopInterval()
	var recvExpr ast.Expr
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, isIdent := sel.X.(*ast.Ident); !isIdent || !isPkgName(d.a.Info, id) {
			recvExpr = sel.X
			recv = d.expr(sel.X)
		}
	}
	args := make([]Interval, len(call.Args))
	for i, a := range call.Args {
		args[i] = d.expr(a)
	}
	if Callee(d.a.Info, call) == nil && recvExpr == nil {
		d.expr(fun) // dynamic callee: record the function value too
	}

	eff, ok := IntervalEffect{}, false
	if d.a.Call != nil {
		eff, ok = d.a.Call(call, recv, args)
	}
	if !ok {
		eff = IntervalEffect{}
	}

	// Mutation rule: an unknown callee may scribble over any
	// pointer-typed argument and any pointer receiver.
	if !eff.NoMutation {
		if recvExpr != nil && isPointerish(d.a.Info, recvExpr) {
			d.setObj(BaseObj(d.a.Info, recvExpr), TopInterval())
		}
		for _, a := range call.Args {
			if isPointerish(d.a.Info, a) {
				d.setObj(BaseObj(d.a.Info, a), TopInterval())
			}
		}
	}

	arity := resultArity(d.a.Info, call)
	per := eff.Results
	if len(per) != arity {
		per = nil
	}
	if per != nil {
		d.record(call, per)
		out := per[0]
		for _, p := range per[1:] {
			out = out.Join(p)
		}
		if arity == 1 {
			return per[0]
		}
		return out
	}
	return TopInterval()
}

// conversion interprets T(x).
func (d *intervals) conversion(call *ast.CallExpr, tn *types.TypeName) Interval {
	if len(call.Args) != 1 {
		for _, a := range call.Args {
			d.expr(a)
		}
		return TopInterval()
	}
	v := d.expr(call.Args[0])
	if d.a.Convert != nil {
		if h, ok := d.a.Convert(call, v); ok {
			return h
		}
	}
	return convertDefault(tn.Type(), v)
}

// convertDefault models a numeric conversion: a value provably inside
// the target type's range passes through (rounded outward for
// float→integer truncation); anything that could wrap degrades to Top.
func convertDefault(to types.Type, v Interval) Interval {
	b, ok := to.Underlying().(*types.Basic)
	if !ok {
		return TopInterval()
	}
	switch {
	case b.Info()&types.IsInteger != 0:
		v = Interval{math.Floor(v.Lo), math.Ceil(v.Hi)}
		lo, hi, known := intTypeRange(b.Kind())
		if !known || v.Lo < lo || v.Hi > hi {
			return TopInterval()
		}
		return v
	case b.Info()&types.IsFloat != 0:
		return v
	}
	return TopInterval()
}

// intTypeRange gives the representable range of an integer kind as
// float64 bounds (the 2^63-scale constants are exact in float64).
func intTypeRange(k types.BasicKind) (lo, hi float64, ok bool) {
	switch k {
	case types.Int, types.Int64:
		return -(1 << 63), 1 << 63, true
	case types.Int32, types.UntypedRune:
		return math.MinInt32, math.MaxInt32, true
	case types.Int16:
		return math.MinInt16, math.MaxInt16, true
	case types.Int8:
		return math.MinInt8, math.MaxInt8, true
	case types.Uint, types.Uint64, types.Uintptr:
		return 0, 1 << 64, true
	case types.Uint32:
		return 0, math.MaxUint32, true
	case types.Uint16:
		return 0, math.MaxUint16, true
	case types.Uint8:
		return 0, math.MaxUint8, true
	case types.UntypedInt:
		return math.Inf(-1), math.Inf(1), true
	}
	return 0, 0, false
}

func (d *intervals) builtin(name string, call *ast.CallExpr) Interval {
	args := make([]Interval, len(call.Args))
	for i, a := range call.Args {
		args[i] = d.expr(a)
	}
	switch name {
	case "len", "cap":
		return AtLeast(0)
	case "min":
		out := args[0]
		for _, a := range args[1:] {
			out = Interval{math.Min(out.Lo, a.Lo), math.Min(out.Hi, a.Hi)}
		}
		return out
	case "max":
		out := args[0]
		for _, a := range args[1:] {
			out = Interval{math.Max(out.Lo, a.Lo), math.Max(out.Hi, a.Hi)}
		}
		return out
	}
	return TopInterval()
}

// ---- branch-condition refinement ----

// refine narrows variable intervals under the assumption that cond
// evaluated to truth. Unrefinable shapes are left alone (sound: the
// state only ever over-approximates).
func (d *intervals) refine(cond ast.Expr, truth bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			d.refine(x.X, !truth)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if truth { // both conjuncts hold
				d.refine(x.X, true)
				d.refine(x.Y, true)
			}
		case token.LOR:
			if !truth { // both disjuncts failed
				d.refine(x.X, false)
				d.refine(x.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			op := x.Op
			if !truth {
				op = negateCmp(op)
			}
			d.refineCmp(x.X, op, x.Y)
			d.refineCmp(x.Y, flipCmp(op), x.X)
		}
	}
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	}
	return op
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op // ==, != are symmetric
}

// refineCmp narrows lhs (when it is a plain tracked variable) under
// `lhs op rhs`.
func (d *intervals) refineCmp(lhs ast.Expr, op token.Token, rhs ast.Expr) {
	obj := refinableObj(d.a.Info, lhs)
	if obj == nil {
		return
	}
	bound := d.evalQuiet(rhs)
	cur := d.intervalOf(obj)
	integral := isIntegerExpr(d.a.Info, lhs)
	var constraint Interval
	switch op {
	case token.LSS:
		hi := bound.Hi
		if integral {
			hi-- // x < k over integers means x <= k-1; -inf is absorbing
		}
		constraint = AtMost(hi)
	case token.LEQ:
		constraint = AtMost(bound.Hi)
	case token.GTR:
		lo := bound.Lo
		if integral {
			lo++
		}
		constraint = AtLeast(lo)
	case token.GEQ:
		constraint = AtLeast(bound.Lo)
	case token.EQL:
		constraint = bound
	case token.NEQ:
		// Only a point disequality against an integral endpoint shaves
		// anything off a closed interval.
		if integral && bound.Lo == bound.Hi && !math.IsInf(bound.Lo, 0) { //lint:allow floateq (exact lattice test: is the bound a single integral point)
			p := bound.Lo
			next := cur
			if cur.Lo == p { //lint:allow floateq (integral endpoints are exact in float64)
				next.Lo = p + 1
			}
			if cur.Hi == p { //lint:allow floateq (integral endpoints are exact in float64)
				next.Hi = p - 1
			}
			if next.Lo <= next.Hi {
				d.setObj(obj, next)
			}
		}
		return
	default:
		return
	}
	if m, ok := cur.Meet(constraint); ok {
		d.setObj(obj, m)
	}
	// An empty meet means this branch is unreachable under the current
	// approximation; keep the original interval rather than invent ond.
}

// refinableObj returns the variable object behind a plain (possibly
// parenthesized) identifier, or nil.
func refinableObj(info *types.Info, x ast.Expr) types.Object {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := identObj(info, id).(*types.Var); ok {
		return v
	}
	return nil
}

// constInterval folds a go/constant value to a point interval.
func constInterval(v constant.Value) (Interval, bool) {
	switch v.Kind() {
	case constant.Int, constant.Float:
		f, _ := constant.Float64Val(v)
		return PointInterval(f), true
	}
	return Interval{}, false
}

func isNumericObj(o types.Object) bool {
	if o == nil || o.Type() == nil {
		return false
	}
	b, ok := o.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

func isIntegerExpr(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isStringExpr(info *types.Info, x ast.Expr) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
