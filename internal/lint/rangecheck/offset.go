package rangecheck

// The offset domain: every sim.Time value is tracked as its offset
// from the scheduling function's notion of "now". Engine.Now/Group.Now/
// Proc.Now return exactly [0, 0]; Time.Add shifts by the duration's
// interval; fabric bookings (netsim Send/Accept) only move time
// forward; a sim.Time constant c can sit anywhere at or below c (now
// itself is nonnegative), so it maps to (-inf, c]. Everything else is
// Top, which keeps the check sound and quiet: a violation is reported
// only when the offset's UPPER bound proves the event cannot land late
// enough. This is the compile-time face of the runtime past-event
// panic in internal/sim/engine.go.
//
// Sites and contracts:
//
//   - sim.Group.Post and sim.Group.ScheduleGlobal book events into
//     conservative windows whose horizon never trails now: an offset
//     provably negative can never clear the horizon. (At-now bookings
//     stay legal — setup-time coordinator globals use them before the
//     first window opens.) When the group was built by sim.NewGroup in
//     the same function with a known lookahead L, the conservative
//     discipline is enforced in full: an offset provably below L is
//     reported against L itself.
//   - sim.Engine.Schedule, sim.Engine.PostArrival and the mpi
//     World.post gateway reject events provably before now
//     (offset < 0) — the engine's past-event guard panics there.
//   - netsim Send/Accept/Control (Tree or the Fabric interface)
//     reject booking times provably before now.

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/dataflow"
)

const simPath = "repro/internal/sim"

var (
	point0 = dataflow.PointInterval(0)
	fwd    = dataflow.AtLeast(0)
)

// offsetResults are call summaries in the offset-from-now domain.
// Durations and forward-only times are [0, +inf); now is exactly 0.
var offsetResults = map[string][]dataflow.Interval{
	simPath + ".Engine.Now":      {point0},
	simPath + ".Group.Now":       {point0},
	simPath + ".Proc.Now":        {point0},
	simPath + ".Group.Lookahead": {fwd},

	"repro/internal/netsim.Tree.MinLatency":          {fwd},
	"repro/internal/netsim.Fabric.MinLatency":        {fwd},
	"repro/internal/netsim.Tree.SerializationTime":   {fwd},
	"repro/internal/netsim.Fabric.SerializationTime": {fwd},
}

// site describes one guarded call: which argument carries the event
// time and which contract it must clear.
type site struct {
	arg    int
	window bool // true: must clear the next window's horizon (Post/ScheduleGlobal)
	what   string
}

var sites = map[string]site{
	simPath + ".Group.Post":           {1, true, "cross-shard (sim.Group).Post"},
	simPath + ".Group.ScheduleGlobal": {0, true, "(sim.Group).ScheduleGlobal"},
	simPath + ".Engine.Schedule":      {0, false, "(sim.Engine).Schedule"},
	simPath + ".Engine.PostArrival":   {0, false, "(sim.Engine).PostArrival"},
	"repro/internal/mpi.World.post":   {2, false, "the mpi cross-rank gateway (World).post"},

	"repro/internal/netsim.Tree.Send":      {3, false, "(netsim.Tree).Send"},
	"repro/internal/netsim.Fabric.Send":    {3, false, "(netsim.Fabric).Send"},
	"repro/internal/netsim.Tree.Accept":    {3, false, "(netsim.Tree).Accept"},
	"repro/internal/netsim.Fabric.Accept":  {3, false, "(netsim.Fabric).Accept"},
	"repro/internal/netsim.Tree.Control":   {3, false, "(netsim.Tree).Control"},
	"repro/internal/netsim.Fabric.Control": {3, false, "(netsim.Fabric).Control"},
}

func (c *checker) offsetConfig() *dataflow.IntervalAnalysis {
	return &dataflow.IntervalAnalysis{
		Info:    c.pass.TypesInfo,
		Fset:    c.pass.Fset,
		Call:    c.offsetEffect,
		Const:   c.constTime,
		Convert: c.convertTime,
	}
}

// isSimTime reports whether t is the named type sim.Time.
func isSimTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == simPath && named.Obj().Name() == "Time"
}

// constTime re-homes sim.Time constants into the offset domain: an
// absolute time c sits at offset c - now, and now >= 0, so the best
// sound bound is (-inf, c]. Durations and plain numbers keep their
// point interval.
func (c *checker) constTime(x ast.Expr, v dataflow.Interval) (dataflow.Interval, bool) {
	tv, ok := c.pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil || !isSimTime(tv.Type) {
		return dataflow.Interval{}, false
	}
	return dataflow.AtMost(v.Hi), true
}

// convertTime does the same re-homing for non-constant conversions to
// sim.Time: sim.Time(x) is an absolute stamp, offset at most x.
func (c *checker) convertTime(call *ast.CallExpr, v dataflow.Interval) (dataflow.Interval, bool) {
	tv, ok := c.pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil || !isSimTime(tv.Type) {
		return dataflow.Interval{}, false
	}
	return dataflow.AtMost(v.Hi), true
}

// offsetEffect is the offset domain's call hook: now-anchors and fabric
// bookings first, time arithmetic next, then memoized same-package
// summaries.
func (c *checker) offsetEffect(call *ast.CallExpr, recv dataflow.Interval, args []dataflow.Interval) (dataflow.IntervalEffect, bool) {
	fn := dataflow.Callee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return dataflow.IntervalEffect{}, false
	}
	key := dataflow.FuncKey(fn)
	if rs, ok := offsetResults[key]; ok {
		return dataflow.IntervalEffect{Results: rs, NoMutation: true}, true
	}
	switch key {
	case simPath + ".Time.Add":
		if len(args) == 1 {
			return dataflow.IntervalEffect{Results: []dataflow.Interval{recv.Add(args[0])}, NoMutation: true}, true
		}
	case simPath + ".Time.Sub":
		if len(args) == 1 {
			return dataflow.IntervalEffect{Results: []dataflow.Interval{recv.Sub(args[0])}, NoMutation: true}, true
		}
	case "repro/internal/netsim.Tree.Send", "repro/internal/netsim.Fabric.Send":
		// (start, arrive): the fabric only moves time forward from
		// the booking stamp.
		if len(args) == 4 {
			after := dataflow.AtLeast(args[3].Lo)
			return dataflow.IntervalEffect{Results: []dataflow.Interval{after, after}, NoMutation: true}, true
		}
	case "repro/internal/netsim.Tree.Accept", "repro/internal/netsim.Fabric.Accept",
		"repro/internal/netsim.Tree.Control", "repro/internal/netsim.Fabric.Control":
		if len(args) == 4 {
			return dataflow.IntervalEffect{Results: []dataflow.Interval{dataflow.AtLeast(args[3].Lo)}, NoMutation: true}, true
		}
	}
	if rs, ok := c.offset.Of(fn); ok {
		return dataflow.IntervalEffect{Results: rs}, true
	}
	return dataflow.IntervalEffect{}, false
}

// checkSite applies the window / past-event contracts to one call's
// recorded offset interval. It returns the index of the argument it
// reported, or -1.
func (c *checker) checkSite(call *ast.CallExpr, fn *types.Func, res *dataflow.IntervalResult, looks map[types.Object]dataflow.Interval) int {
	st, ok := sites[dataflow.FuncKey(fn)]
	if !ok || st.arg >= len(call.Args) {
		return -1
	}
	arg := call.Args[st.arg]
	iv, ok := res.Expr[arg]
	if !ok {
		return -1
	}
	switch {
	case !st.window:
		if iv.Hi >= 0 {
			return -1
		}
		c.pass.Reportf(arg.Pos(), "%s schedules an event provably before Now() "+
			"(offset interval %v); the engine's past-event guard panics at run time", st.what, iv)
	case iv.Hi < 0:
		// Window sites: the horizon never trails now, so a provably
		// past event can never clear it. At-now bookings stay legal:
		// setup-time coordinator globals (meter.BaytechStrip.Spawn)
		// book the first tick at Now() before the first window opens.
		c.pass.Reportf(arg.Pos(), "%s books an event provably before Now() (offset interval %v); "+
			"it can never clear the window horizon", st.what, iv)
	default:
		look, ok := c.siteLookahead(call, looks)
		if !ok || iv.Hi >= look.Lo {
			return -1
		}
		c.pass.Reportf(arg.Pos(), "%s books an event only %v past Now(), below the group's "+
			"lookahead %v; the window-barrier contract panics at run time", st.what, iv, look)
	}
	return st.arg
}

// groupLookaheads maps group variables built by sim.NewGroup in this
// function to the interval of the lookahead they were built with.
func (c *checker) groupLookaheads(fd *ast.FuncDecl, res *dataflow.IntervalResult) map[types.Object]dataflow.Interval {
	out := make(map[types.Object]dataflow.Interval)
	info := c.pass.TypesInfo
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		fn := dataflow.Callee(info, call)
		if fn == nil || fn.Pkg() == nil || dataflow.FuncKey(fn) != simPath+".NewGroup" {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		if iv, ok := res.Expr[call.Args[1]]; ok && !iv.IsTop() {
			out[obj] = iv
		}
		return true
	})
	return out
}

// siteLookahead resolves the receiver of a window-site call to a
// lookahead recorded by groupLookaheads.
func (c *checker) siteLookahead(call *ast.CallExpr, looks map[types.Object]dataflow.Interval) (dataflow.Interval, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return dataflow.Interval{}, false
	}
	obj := dataflow.BaseObj(c.pass.TypesInfo, sel.X)
	if obj == nil {
		return dataflow.Interval{}, false
	}
	iv, ok := looks[obj]
	return iv, ok
}
