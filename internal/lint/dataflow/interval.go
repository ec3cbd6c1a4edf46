// Numeric interval abstract interpretation — the third engine in this
// package, beside the taint engine (dataflow.go) and the protocol
// engine (states.go). It interprets one function body over a min/max
// lattice: every numeric variable and expression carries an Interval
// [Lo, Hi] of the values it may take, with ±Inf as the unbounded ends.
// The engine is flow-sensitive with strong updates (reassignment
// replaces a variable's interval), joins at branch merges, widening at
// loop heads (a bound that grew between passes goes straight to its
// infinity, so loops converge in one widening step), and
// branch-condition refinement: inside `if x < k` the then-arm meets x
// with (-inf, k) and the else-arm with [k, +inf), including through
// &&, ||, !, and constant switch cases.
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
// engine cannot see — address-taken variables, values written by
// closures that may run later, stores through pointers passed to
// unknown callees — degrades to Top, never to a narrower guess.
package dataflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
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

// IntervalAnalysis configures one interval-engine run.
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

// IntervalResult is the outcome of one interval-engine run.
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
	e := &ivEngine{
		a:        a,
		state:    make(map[types.Object]Interval),
		expr:     make(map[ast.Expr]Interval),
		calls:    make(map[*ast.CallExpr][]Interval),
		retSites: make(map[*ast.ReturnStmt]*IntervalReturn),
		poisoned: make(map[types.Object]bool),
		curFT:    ft,
	}
	// Named results are zero-initialized by the language.
	if ft != nil && ft.Results != nil {
		for _, f := range ft.Results.List {
			for _, name := range f.Names {
				if obj := a.Info.Defs[name]; obj != nil && isNumericObj(obj) {
					e.state[obj] = PointInterval(0)
				}
			}
		}
	}
	for v, iv := range a.Seed {
		e.state[v] = iv
	}
	e.stmt(body)
	res := &IntervalResult{Expr: e.expr, Objects: e.state}
	for _, r := range e.retSites {
		res.Returns = append(res.Returns, *r)
	}
	sort.Slice(res.Returns, func(i, j int) bool { return res.Returns[i].Pos < res.Returns[j].Pos })
	return res
}

// ivEngine is the mutable interpreter state.
type ivEngine struct {
	a        *IntervalAnalysis
	state    map[types.Object]Interval // absent = Top
	expr     map[ast.Expr]Interval
	calls    map[*ast.CallExpr][]Interval
	retSites map[*ast.ReturnStmt]*IntervalReturn
	poisoned map[types.Object]bool // address-taken: permanently Top
	writes   map[types.Object]bool // non-nil inside a function literal
	curFT    *ast.FuncType
	litDepth int
	quiet    bool // suppress expr recording (refinement re-evaluation)
}

func (e *ivEngine) setObj(o types.Object, iv Interval) {
	if o == nil || e.poisoned[o] || !isNumericObj(o) {
		return
	}
	if e.writes != nil {
		e.writes[o] = true
	}
	if iv.IsTop() {
		delete(e.state, o)
		return
	}
	e.state[o] = iv
}

func (e *ivEngine) intervalOf(o types.Object) Interval {
	if o == nil || e.poisoned[o] {
		return TopInterval()
	}
	if iv, ok := e.state[o]; ok {
		return iv
	}
	return TopInterval()
}

// poison marks an address-taken variable permanently unknown: any
// alias may rewrite it at any time.
func (e *ivEngine) poison(o types.Object) {
	if o == nil {
		return
	}
	if e.writes != nil {
		e.writes[o] = true
	}
	e.poisoned[o] = true
	delete(e.state, o)
}

func (e *ivEngine) copyState() map[types.Object]Interval {
	out := make(map[types.Object]Interval, len(e.state))
	for k, v := range e.state {
		out[k] = v
	}
	return out
}

// joinInto joins other into the live state (branch merge: a variable
// bound in only one arm degrades to Top, i.e. leaves the map).
func (e *ivEngine) joinInto(other map[types.Object]Interval) {
	for o := range e.state {
		ov, ok := other[o]
		if !ok {
			delete(e.state, o)
			continue
		}
		e.state[o] = e.state[o].Join(ov)
	}
}

func ivStatesEqual(a, b map[types.Object]Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// ---- statements ----

func (e *ivEngine) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			e.stmt(st)
		}
	case *ast.ExprStmt:
		e.eval(s.X)
	case *ast.AssignStmt:
		e.assignStmt(s)
	case *ast.IncDecStmt:
		one := PointInterval(1)
		v := e.eval(s.X)
		if s.Tok == token.INC {
			v = v.Add(one)
		} else {
			v = v.Sub(one)
		}
		e.store(s.X, v)
	case *ast.DeclStmt:
		e.declStmt(s)
	case *ast.ReturnStmt:
		e.returnStmt(s)
	case *ast.IfStmt:
		e.ifStmt(s)
	case *ast.ForStmt:
		e.forStmt(s)
	case *ast.RangeStmt:
		e.rangeStmt(s)
	case *ast.SwitchStmt:
		e.switchStmt(s)
	case *ast.TypeSwitchStmt:
		e.typeSwitchStmt(s)
	case *ast.SelectStmt:
		e.selectStmt(s)
	case *ast.SendStmt:
		e.eval(s.Chan)
		e.eval(s.Value)
	case *ast.GoStmt:
		e.eval(s.Call)
	case *ast.DeferStmt:
		e.eval(s.Call)
	case *ast.LabeledStmt:
		e.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
		// The structural joins over-approximate early exits.
	}
}

func (e *ivEngine) ifStmt(s *ast.IfStmt) {
	e.stmt(s.Init)
	e.eval(s.Cond)
	pre := e.copyState()
	e.refine(s.Cond, true)
	e.stmt(s.Body)
	thenState := e.state
	thenExits := terminates(s.Body)
	e.state = pre
	e.refine(s.Cond, false)
	e.stmt(s.Else) // nil-safe no-op keeps the refined fallthrough state
	elseExits := s.Else != nil && terminates(s.Else)
	switch {
	case thenExits && elseExits:
		// Neither arm falls through; whatever state follows is dead.
		// Keep the else state (arbitrary but consistent).
	case thenExits:
		// Only the else/fallthrough state survives — this is what makes
		// `if x < 0 { return err }` refine x to [0, +inf) afterwards.
	case elseExits:
		e.state = thenState
	default:
		e.joinInto(thenState)
	}
}

func (e *ivEngine) forStmt(s *ast.ForStmt) {
	e.stmt(s.Init)
	head := e.copyState()
	for pass := 0; pass < maxIntervalLoopPasses; pass++ {
		e.state = copyIvMap(head)
		e.eval(s.Cond)
		e.refine(s.Cond, true)
		e.stmt(s.Body)
		e.stmt(s.Post)
		next := joinIvStates(head, e.state)
		next = widenIvStates(head, next)
		if ivStatesEqual(next, head) {
			break
		}
		head = next
	}
	// Exit state is the loop-head fixpoint. The ¬cond refinement is
	// deliberately not applied: break statements exit with cond still
	// true, and the head already subsumes the zero-iteration state.
	e.state = copyIvMap(head)
}

func (e *ivEngine) rangeStmt(s *ast.RangeStmt) {
	e.eval(s.X)
	keyIv := e.rangeKeyInterval(s.X)
	head := e.copyState()
	for pass := 0; pass < maxIntervalLoopPasses; pass++ {
		e.state = copyIvMap(head)
		if s.Key != nil {
			e.store(s.Key, keyIv)
		}
		if s.Value != nil {
			e.store(s.Value, TopInterval())
		}
		e.stmt(s.Body)
		next := joinIvStates(head, e.state)
		next = widenIvStates(head, next)
		if ivStatesEqual(next, head) {
			break
		}
		head = next
	}
	e.state = copyIvMap(head)
}

// rangeKeyInterval models the key variable of `range x`: slice,
// array, and string indices are nonnegative; an integer range is
// [0, x-1]; map keys and channel values are unknown.
func (e *ivEngine) rangeKeyInterval(x ast.Expr) Interval {
	tv, ok := e.a.Info.Types[x]
	if !ok || tv.Type == nil {
		return TopInterval()
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Pointer:
		return AtLeast(0)
	case *types.Basic:
		b := tv.Type.Underlying().(*types.Basic)
		switch {
		case b.Info()&types.IsString != 0:
			return AtLeast(0)
		case b.Info()&types.IsInteger != 0:
			n := e.evalQuiet(x)
			return Interval{0, math.Max(0, n.Hi-1)}
		}
	case *types.Signature:
		return TopInterval() // range-over-func yields whatever it yields
	}
	return TopInterval()
}

func (e *ivEngine) switchStmt(s *ast.SwitchStmt) {
	e.stmt(s.Init)
	e.eval(s.Tag)
	pre := e.copyState()
	var outs []map[types.Object]Interval
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		e.state = copyIvMap(pre)
		e.refineCase(s.Tag, cc)
		for _, x := range cc.List {
			e.eval(x)
			if s.Tag == nil {
				e.refine(x, true) // expressionless switch: cases are conditions
			}
		}
		for _, st := range cc.Body {
			e.stmt(st)
		}
		if !caseTerminates(cc.Body) {
			outs = append(outs, e.state)
		}
	}
	// Join every falling-through clause with the no-match state.
	e.state = copyIvMap(pre)
	for _, out := range outs {
		e.joinInto(out)
	}
}

// refineCase meets a constant-cased switch tag with the hull of the
// clause's case values.
func (e *ivEngine) refineCase(tag ast.Expr, cc *ast.CaseClause) {
	obj := refinableObj(e.a.Info, tag)
	if obj == nil || len(cc.List) == 0 {
		return
	}
	hull := Interval{math.Inf(1), math.Inf(-1)}
	for _, x := range cc.List {
		tv, ok := e.a.Info.Types[x]
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
	if m, ok := e.intervalOf(obj).Meet(hull); ok {
		e.setObj(obj, m)
	}
}

func (e *ivEngine) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	e.stmt(s.Init)
	switch g := s.Assign.(type) {
	case *ast.ExprStmt:
		e.eval(g.X)
	case *ast.AssignStmt:
		e.eval(g.Rhs[0])
	}
	pre := e.copyState()
	var outs []map[types.Object]Interval
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CaseClause)
		e.state = copyIvMap(pre)
		for _, st := range cc.Body {
			e.stmt(st)
		}
		if !caseTerminates(cc.Body) {
			outs = append(outs, e.state)
		}
	}
	e.state = copyIvMap(pre)
	for _, out := range outs {
		e.joinInto(out)
	}
}

func (e *ivEngine) selectStmt(s *ast.SelectStmt) {
	pre := e.copyState()
	var outs []map[types.Object]Interval
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CommClause)
		e.state = copyIvMap(pre)
		e.stmt(cc.Comm)
		for _, st := range cc.Body {
			e.stmt(st)
		}
		if !caseTerminates(cc.Body) {
			outs = append(outs, e.state)
		}
	}
	e.state = copyIvMap(pre)
	for _, out := range outs {
		e.joinInto(out)
	}
}

func (e *ivEngine) assignStmt(s *ast.AssignStmt) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
	default:
		// Compound assignment: the operator is known exactly.
		op, hasOp := compoundOp(s.Tok)
		for i, lhs := range s.Lhs {
			cur := e.eval(lhs)
			rhs := e.eval(s.Rhs[i])
			if hasOp {
				e.store(lhs, e.binop(op, cur, rhs, lhs))
			} else {
				e.store(lhs, TopInterval())
			}
		}
		return
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		e.eval(s.Rhs[0])
		per := e.perResult(s.Rhs[0], len(s.Lhs))
		for i, lhs := range s.Lhs {
			iv := TopInterval()
			if per != nil {
				iv = per[i]
			}
			e.store(lhs, iv)
		}
		return
	}
	for i, lhs := range s.Lhs {
		e.store(lhs, e.eval(s.Rhs[i]))
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

func (e *ivEngine) perResult(rhs ast.Expr, want int) []Interval {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if per := e.calls[call]; len(per) == want {
		return per
	}
	return nil
}

func (e *ivEngine) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			e.eval(vs.Values[0])
			per := e.perResult(vs.Values[0], len(vs.Names))
			for i, name := range vs.Names {
				iv := TopInterval()
				if per != nil {
					iv = per[i]
				}
				e.setObj(e.a.Info.Defs[name], iv)
			}
			continue
		}
		for i, name := range vs.Names {
			var iv Interval
			switch {
			case len(vs.Values) == len(vs.Names):
				iv = e.eval(vs.Values[i])
			default:
				iv = PointInterval(0) // var x T is zero-valued
			}
			e.setObj(e.a.Info.Defs[name], iv)
		}
	}
}

func (e *ivEngine) returnStmt(s *ast.ReturnStmt) {
	var ivs []Interval
	switch {
	case len(s.Results) == 0:
		ivs = e.namedResultIntervals()
	case len(s.Results) == 1:
		v := e.eval(s.Results[0])
		if per := e.perResultAny(s.Results[0]); per != nil {
			ivs = per
		} else {
			ivs = []Interval{v}
		}
	default:
		for _, r := range s.Results {
			ivs = append(ivs, e.eval(r))
		}
	}
	if e.litDepth > 0 {
		return // a literal's returns are not the function's returns
	}
	if prev, ok := e.retSites[s]; ok && len(prev.Results) == len(ivs) {
		for i := range prev.Results {
			prev.Results[i] = prev.Results[i].Join(ivs[i])
		}
		return
	}
	e.retSites[s] = &IntervalReturn{Pos: s.Pos(), Results: ivs}
}

func (e *ivEngine) perResultAny(rhs ast.Expr) []Interval {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if per := e.calls[call]; len(per) > 1 {
		return per
	}
	return nil
}

func (e *ivEngine) namedResultIntervals() []Interval {
	ft := e.curFT
	if ft == nil || ft.Results == nil {
		return nil
	}
	var ivs []Interval
	for _, f := range ft.Results.List {
		for _, name := range f.Names {
			ivs = append(ivs, e.intervalOf(e.a.Info.Defs[name]))
		}
	}
	return ivs
}

// store writes iv to the lvalue lhs. Only plain variables are tracked;
// element, field, and indirect stores touch memory the domain does not
// model.
func (e *ivEngine) store(lhs ast.Expr, iv Interval) {
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := e.a.Info.Defs[x]
		if obj == nil {
			obj = e.a.Info.Uses[x]
		}
		e.setObj(obj, iv)
	case *ast.ParenExpr:
		e.store(x.X, iv)
	case *ast.StarExpr:
		e.eval(x.X)
	case *ast.SelectorExpr:
		e.eval(x.X)
	case *ast.IndexExpr:
		e.eval(x.X)
		e.eval(x.Index)
	}
}

// ---- expressions ----

// eval computes the interval of x in the current state, recording the
// join across evaluations (loop passes, branch arms).
func (e *ivEngine) eval(x ast.Expr) Interval {
	if x == nil {
		return TopInterval()
	}
	v := e.evalInner(x)
	if !e.quiet {
		if old, ok := e.expr[x]; ok {
			v2 := old.Join(v)
			e.expr[x] = v2
		} else {
			e.expr[x] = v
		}
	}
	return v
}

// evalQuiet evaluates without recording (refinement re-evaluation).
func (e *ivEngine) evalQuiet(x ast.Expr) Interval {
	saved := e.quiet
	e.quiet = true
	v := e.evalInner(x)
	e.quiet = saved
	return v
}

func (e *ivEngine) evalInner(x ast.Expr) Interval {
	// Constant folding first: go/constant has already evaluated any
	// constant expression exactly, however deeply nested.
	if tv, ok := e.a.Info.Types[x]; ok && tv.Value != nil {
		if iv, ok := constInterval(tv.Value); ok {
			if e.a.Const != nil {
				if h, hok := e.a.Const(x, iv); hok {
					return h
				}
			}
			return iv
		}
		return TopInterval()
	}
	switch x := x.(type) {
	case *ast.Ident:
		obj := identObj(e.a.Info, x)
		if v, ok := obj.(*types.Var); ok {
			return e.intervalOf(v)
		}
		return TopInterval()
	case *ast.ParenExpr:
		return e.eval(x.X)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && isPkgName(e.a.Info, id) {
			return TopInterval() // mutable package-level variable
		}
		e.eval(x.X)
		return TopInterval() // field read: not modeled
	case *ast.UnaryExpr:
		switch x.Op {
		case token.SUB:
			return e.eval(x.X).Neg()
		case token.ADD:
			return e.eval(x.X)
		case token.AND:
			// Address taken: any alias may rewrite the base from here on.
			e.eval(x.X)
			e.poison(BaseObj(e.a.Info, x.X))
			return TopInterval()
		default:
			e.eval(x.X)
			return TopInterval()
		}
	case *ast.BinaryExpr:
		lv := e.eval(x.X)
		rv := e.eval(x.Y)
		return e.binop(x.Op, lv, rv, x.X)
	case *ast.StarExpr:
		e.eval(x.X)
		return TopInterval()
	case *ast.IndexExpr:
		e.eval(x.X)
		e.eval(x.Index)
		return TopInterval()
	case *ast.IndexListExpr:
		e.eval(x.X)
		return TopInterval()
	case *ast.SliceExpr:
		e.eval(x.X)
		e.eval(x.Low)
		e.eval(x.High)
		e.eval(x.Max)
		return TopInterval()
	case *ast.KeyValueExpr:
		e.eval(x.Value)
		return TopInterval()
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			e.eval(elt)
		}
		return TopInterval()
	case *ast.TypeAssertExpr:
		e.eval(x.X)
		return TopInterval()
	case *ast.FuncLit:
		return e.funcLit(x)
	case *ast.CallExpr:
		return e.call(x)
	}
	return TopInterval()
}

// binop applies an arithmetic operator; opnd carries the operand type
// (for integer-vs-float behavior of division).
func (e *ivEngine) binop(op token.Token, lv, rv Interval, opnd ast.Expr) Interval {
	switch op {
	case token.ADD:
		if isStringExpr(e.a.Info, opnd) {
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
		if isIntegerExpr(e.a.Info, opnd) {
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
// it can overwrite.
func (e *ivEngine) funcLit(lit *ast.FuncLit) Interval {
	savedState := e.state
	e.state = copyIvMap(savedState)
	savedWrites := e.writes
	e.writes = make(map[types.Object]bool)
	savedFT := e.curFT
	e.curFT = lit.Type
	e.litDepth++
	e.stmt(lit.Body)
	e.litDepth--
	e.curFT = savedFT
	written := e.writes
	e.writes = savedWrites
	e.state = savedState
	for o := range written {
		if e.writes != nil {
			e.writes[o] = true
		}
		delete(e.state, o)
	}
	return TopInterval()
}

// call interprets one call expression.
func (e *ivEngine) call(call *ast.CallExpr) Interval {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if isFuncExpr(e.a.Info, ix.X) {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	// Builtins and conversions first.
	if id, ok := fun.(*ast.Ident); ok {
		switch obj := identObj(e.a.Info, id).(type) {
		case *types.Builtin:
			return e.builtin(obj.Name(), call)
		case *types.TypeName:
			return e.conversion(call, obj)
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if tn, isType := identObj(e.a.Info, sel.Sel).(*types.TypeName); isType {
			return e.conversion(call, tn)
		}
	}

	var recv Interval = TopInterval()
	var recvExpr ast.Expr
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, isIdent := sel.X.(*ast.Ident); !isIdent || !isPkgName(e.a.Info, id) {
			recvExpr = sel.X
			recv = e.eval(sel.X)
		}
	}
	args := make([]Interval, len(call.Args))
	for i, a := range call.Args {
		args[i] = e.eval(a)
	}
	if Callee(e.a.Info, call) == nil && recvExpr == nil {
		e.eval(fun) // dynamic callee: record the function value too
	}

	eff, ok := IntervalEffect{}, false
	if e.a.Call != nil {
		eff, ok = e.a.Call(call, recv, args)
	}
	if !ok {
		eff = IntervalEffect{}
	}

	// Mutation rule: an unknown callee may scribble over any
	// pointer-typed argument and any pointer receiver.
	if !eff.NoMutation {
		if recvExpr != nil && isPointerish(e.a.Info, recvExpr) {
			e.setObj(BaseObj(e.a.Info, recvExpr), TopInterval())
		}
		for _, a := range call.Args {
			if isPointerish(e.a.Info, a) {
				e.setObj(BaseObj(e.a.Info, a), TopInterval())
			}
		}
	}

	arity := resultArity(e.a.Info, call)
	per := eff.Results
	if len(per) != arity {
		per = nil
	}
	if per != nil {
		e.calls[call] = per
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
func (e *ivEngine) conversion(call *ast.CallExpr, tn *types.TypeName) Interval {
	if len(call.Args) != 1 {
		for _, a := range call.Args {
			e.eval(a)
		}
		return TopInterval()
	}
	v := e.eval(call.Args[0])
	if e.a.Convert != nil {
		if h, ok := e.a.Convert(call, v); ok {
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

func (e *ivEngine) builtin(name string, call *ast.CallExpr) Interval {
	args := make([]Interval, len(call.Args))
	for i, a := range call.Args {
		args[i] = e.eval(a)
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
func (e *ivEngine) refine(cond ast.Expr, truth bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			e.refine(x.X, !truth)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if truth { // both conjuncts hold
				e.refine(x.X, true)
				e.refine(x.Y, true)
			}
		case token.LOR:
			if !truth { // both disjuncts failed
				e.refine(x.X, false)
				e.refine(x.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			op := x.Op
			if !truth {
				op = negateCmp(op)
			}
			e.refineCmp(x.X, op, x.Y)
			e.refineCmp(x.Y, flipCmp(op), x.X)
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
func (e *ivEngine) refineCmp(lhs ast.Expr, op token.Token, rhs ast.Expr) {
	obj := refinableObj(e.a.Info, lhs)
	if obj == nil {
		return
	}
	bound := e.evalQuiet(rhs)
	cur := e.intervalOf(obj)
	integral := isIntegerExpr(e.a.Info, lhs)
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
				e.setObj(obj, next)
			}
		}
		return
	default:
		return
	}
	if m, ok := cur.Meet(constraint); ok {
		e.setObj(obj, m)
	}
	// An empty meet means this branch is unreachable under the current
	// approximation; keep the original interval rather than invent one.
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

// ---- helpers ----

func copyIvMap(m map[types.Object]Interval) map[types.Object]Interval {
	out := make(map[types.Object]Interval, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// joinIvStates is the pointwise join; a key missing on either side is
// Top and disappears.
func joinIvStates(a, b map[types.Object]Interval) map[types.Object]Interval {
	out := make(map[types.Object]Interval, len(a))
	for k, av := range a {
		if bv, ok := b[k]; ok {
			out[k] = av.Join(bv)
		}
	}
	return out
}

// widenIvStates widens next against the old head: any bound that grew
// jumps to its infinity.
func widenIvStates(head, next map[types.Object]Interval) map[types.Object]Interval {
	for k, nv := range next {
		if hv, ok := head[k]; ok {
			w := hv.Widen(nv)
			if w.IsTop() {
				delete(next, k)
			} else {
				next[k] = w
			}
		}
	}
	return next
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

// terminates reports whether a statement never falls through to its
// successor: it ends in return, break/continue/goto, a panic, or an
// if/else both of whose arms terminate. Used to keep guard-clause
// refinement (`if x < 0 { return }`) alive after the guard.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		if len(s.List) == 0 {
			return false
		}
		return terminates(s.List[len(s.List)-1])
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && terminates(s.Else)
	case *ast.LabeledStmt:
		return terminates(s.Stmt)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return true
		}
	}
	return false
}

func caseTerminates(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	return terminates(body[len(body)-1])
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
