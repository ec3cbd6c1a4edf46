// Package rangecheck defines the numeric-contract analyzer: interval
// abstract interpretation (internal/lint/dataflow.RunIntervals) proves
// or refutes value-range obligations at API boundaries. Each function
// is analyzed in two interval domains over one shared call graph.
//
// The absolute domain checks obligations from two places:
//
//   - Declared contracts: a `//lint:range <param|recv|result> [lo,hi]`
//     line in a function's doc comment. Bounds are inclusive floats;
//     `inf`, `+inf`, and `-inf` are accepted endpoints. A param
//     contract is both checked at every same-package call site and
//     assumed when analyzing the function's own body (assume/guarantee
//     in the small); a result contract is checked at every return
//     statement and strengthens the function's call-site summary.
//
//   - Built-in physics contracts: the power-performance model's
//     dvfs/power/machine/netsim/trace/sim APIs take frequencies,
//     voltages, powers, energies, sizes, and times that must be
//     nonnegative, operating-point indices that must be in-bounds, and
//     step/shard counts with hard floors. These are keyed on the real
//     import paths, so they bind cross-package without a fact system.
//
// Additionally every division or modulo in analyzed code is checked
// for a divisor interval that is provably zero, or that straddles
// zero with both bounds finite (half-open intervals such as len()'s
// [0, +inf) carry no evidence of a zero and stay silent) — the
// energy/utilization math must never divide by zero.
//
// Verdicts come in two tiers: "provably outside" when the value
// interval and the contract are disjoint, and "may" when a finite
// interval endpoint crosses the bound (the finiteness requirement
// keeps widening-to-infinity loops from flagging every loop-carried
// value).
//
// The offset domain (offset.go) tracks sim.Time values as offsets from
// Now() and proves that event times reaching the sharded core's
// scheduling sites respect the conservative-window contract: nothing
// lands before Now(), and a window booking clears its group's known
// lookahead. When both domains flag the same event-time argument, only
// the offset finding is reported: a negative absolute time is a time
// before Now().
//
// Interprocedural precision inside a package comes from per-function
// result summaries (callgraph.Summaries), one memo per domain, the
// same shape detflow uses for taint.
package rangecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/dataflow"
)

// Analyzer reports numeric values that provably (or possibly, with
// finite evidence) violate declared //lint:range contracts, built-in
// physics ranges, or nonzero-divisor obligations, and event times that
// provably violate the lookahead window contract.
var Analyzer = &analysis.Analyzer{
	Name: "rangecheck",
	Doc: "interval-check numeric contracts: declared //lint:range bounds, nonnegative " +
		"physics values entering dvfs/power/machine/netsim/trace/sim APIs, in-bounds " +
		"operating-point indices, provably nonzero divisors, and event times reaching " +
		"cross-shard scheduling sites at or after now and one group lookahead past the horizon",
	Run: run,
}

// contract is one bounded numeric obligation, with the phrase the
// diagnostic uses to name the value ("power draw (watts)").
type contract struct {
	iv   dataflow.Interval
	what string
}

var (
	nonneg   = dataflow.AtLeast(0)
	atLeast1 = dataflow.AtLeast(1)
	atLeast2 = dataflow.AtLeast(2)
	unit     = dataflow.Interval{Lo: 0, Hi: 1}
)

// builtinArgs are the physics contracts of the model's own APIs,
// keyed "pkgpath.Name" for functions and "pkgpath.Recv.Name" for
// methods, value keyed by argument index.
var builtinArgs = map[string]map[int]contract{
	// power: watts, joules, and sample times are magnitudes.
	"repro/internal/power.Integrator.SetPower":      {0: {nonneg, "sample time"}, 1: {nonneg, "power draw (watts)"}},
	"repro/internal/power.Integrator.AddEnergy":     {0: {nonneg, "energy quantum (joules)"}},
	"repro/internal/power.NewCPUModel":              {1: {nonneg, "dynamic power at top frequency (watts)"}, 2: {nonneg, "leakage coefficient (W/V^2)"}, 3: {unit, "idle activity factor"}},
	"repro/internal/power.JoulesFromMilliwattHours": {0: {nonneg, "energy (mWh)"}},

	// dvfs: operating-point indices are in-bounds, frequencies are
	// magnitudes, and subdividing a table needs at least two steps.
	"repro/internal/dvfs.Table.At":            {0: {nonneg, "operating-point index"}},
	"repro/internal/dvfs.Table.StepDown":      {0: {nonneg, "operating-point index"}},
	"repro/internal/dvfs.Table.StepUp":        {0: {nonneg, "operating-point index"}},
	"repro/internal/dvfs.Table.Subdivide":     {0: {atLeast2, "subdivision steps"}},
	"repro/internal/dvfs.Table.MustSubdivide": {0: {atLeast2, "subdivision steps"}},
	"repro/internal/dvfs.Table.IndexOf":       {0: {nonneg, "frequency (Hz)"}},
	"repro/internal/dvfs.Table.ByFreq":        {0: {nonneg, "frequency (Hz)"}},
	"repro/internal/dvfs.Table.ClosestTo":     {0: {nonneg, "frequency (Hz)"}},
	"repro/internal/dvfs.Table.VoltageAt":     {0: {nonneg, "frequency (Hz)"}},

	// machine: work quanta (cycles, flops, rounds, bytes, idle time)
	// are magnitudes; the operating-point setter takes an index.
	"repro/internal/machine.Node.Compute":                {1: {nonneg, "cycle count"}},
	"repro/internal/machine.Node.ComputeFlops":           {1: {nonneg, "flop count"}},
	"repro/internal/machine.Node.MemoryRounds":           {1: {nonneg, "access count"}},
	"repro/internal/machine.Node.L2Rounds":               {1: {nonneg, "access count"}},
	"repro/internal/machine.Node.CopyBytes":              {1: {nonneg, "byte count"}},
	"repro/internal/machine.Node.CopyCycles":             {1: {nonneg, "cycle count"}},
	"repro/internal/machine.Node.IdleFor":                {1: {nonneg, "idle duration"}},
	"repro/internal/machine.Node.SetOperatingPointIndex": {1: {nonneg, "operating-point index"}},

	// netsim: ports, sizes, and booking times are magnitudes; a
	// fabric needs at least one port.
	"repro/internal/netsim.New":                    {1: {atLeast1, "port count"}},
	"repro/internal/netsim.Tree.Send":              {0: {nonneg, "source port"}, 1: {nonneg, "destination port"}, 2: {nonneg, "message size (bytes)"}, 3: {nonneg, "send time"}},
	"repro/internal/netsim.Tree.Accept":            {0: {nonneg, "source port"}, 1: {nonneg, "destination port"}, 2: {nonneg, "message size (bytes)"}, 3: {nonneg, "arrival time"}},
	"repro/internal/netsim.Tree.Transfer":          {0: {nonneg, "source port"}, 1: {nonneg, "destination port"}, 2: {nonneg, "message size (bytes)"}},
	"repro/internal/netsim.Tree.Control":           {0: {nonneg, "source port"}, 1: {nonneg, "destination port"}, 2: {nonneg, "message size (bytes)"}, 3: {nonneg, "send time"}},
	"repro/internal/netsim.Tree.SerializationTime": {0: {nonneg, "message size (bytes)"}},

	// trace and sim: the simulated clock never runs backwards past
	// zero, and a group needs at least one shard and one tick of
	// lookahead.
	"repro/internal/trace.Writer.Tick":      {0: {nonneg, "tick time"}},
	"repro/internal/sim.Engine.Schedule":    {0: {nonneg, "event time"}},
	"repro/internal/sim.Engine.PostArrival": {0: {nonneg, "arrival time"}},
	"repro/internal/sim.Engine.SpawnAt":     {0: {nonneg, "spawn time"}},
	"repro/internal/sim.NewGroup":           {0: {atLeast1, "shard count"}, 1: {atLeast1, "group lookahead"}},
}

// builtinResults are known result ranges of the model's APIs (and a
// few stdlib magnitudes), used as call summaries so caller analysis
// stays precise across package boundaries.
var builtinResults = map[string][]dataflow.Interval{
	"repro/internal/dvfs.Table.IndexOf":                   {dataflow.AtLeast(-1)},
	"repro/internal/dvfs.Table.Len":                       {nonneg},
	"repro/internal/dvfs.OperatingPoint.CyclesToDuration": {nonneg},
	"repro/internal/power.CPUModel.Dynamic":               {nonneg},
	"repro/internal/power.CPUModel.Power":                 {nonneg},
	"repro/internal/machine.Node.OPIndex":                 {nonneg},
	"repro/internal/netsim.Tree.Ports":                    {nonneg},
	"repro/internal/netsim.Tree.MinLatency":               {nonneg},
	"repro/internal/netsim.Tree.SerializationTime":        {nonneg},
	"repro/internal/sim.Engine.Now":                       {nonneg},
	"repro/internal/sim.Group.Now":                        {nonneg},
	"repro/internal/sim.Proc.Now":                         {nonneg},
	"repro/internal/sim.Group.Lookahead":                  {nonneg},
	"repro/internal/sim.Group.Size":                       {nonneg},
	"math.Abs":                                            {nonneg},
	"math.Sqrt":                                           {nonneg},
}

func run(pass *analysis.Pass) error {
	var files []*ast.File
	for _, f := range pass.Files {
		if !analysis.IsTestFile(pass.Fset, f.Pos()) {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil
	}
	c := &checker{
		pass:   pass,
		decls:  make(map[*types.Func]*declared),
		byLine: make(map[*ast.File]map[int]*rangeDirective),
	}
	g := callgraph.Build(pass.Fset, files, pass.TypesInfo)
	c.absolute = callgraph.NewSummaries(g, nil, c.absoluteSummary)
	c.offset = callgraph.NewSummaries(g, nil, func(fn *types.Func, n *callgraph.Node) []dataflow.Interval {
		return joinReturns(fn, n, c.offsetConfig())
	})
	c.parseDirectives(files)
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil {
					c.claimDoc(f, fd, fn)
				}
			}
		}
	}
	for _, d := range c.dirs {
		switch {
		case d.bad != "":
			pass.Reportf(d.pos, "malformed //lint:range directive: %s", d.bad)
		case !d.claimed:
			pass.Reportf(d.pos, "dangling //lint:range directive: not in a function doc comment")
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			abs := dataflow.RunIntervals(fd.Type, fd.Body, c.config(c.seedFor(fn)))
			off := dataflow.RunIntervals(fd.Type, fd.Body, c.offsetConfig())
			c.checkReturns(fd, fn, abs)
			c.checkBody(fd, abs, off)
		}
	}
	return nil
}

type checker struct {
	pass     *analysis.Pass
	absolute *callgraph.Summaries[[]dataflow.Interval]
	offset   *callgraph.Summaries[[]dataflow.Interval]
	decls    map[*types.Func]*declared
	dirs     []*rangeDirective
	byLine   map[*ast.File]map[int]*rangeDirective
}

// declared aggregates the //lint:range contracts bound to one
// function: per-parameter-index, receiver, and first-result bounds.
type declared struct {
	params map[int]contract
	recv   *contract
	result *contract
}

// rangeDirective is one //lint:range comment, before binding.
type rangeDirective struct {
	pos     token.Pos
	target  string
	iv      dataflow.Interval
	bad     string // non-empty when malformed
	claimed bool
}

// parseDirectives collects every //lint:range comment, indexed by file
// and line so claimDoc can bind doc-comment lines to their functions.
func (c *checker) parseDirectives(files []*ast.File) {
	for _, f := range files {
		byLine := make(map[int]*rangeDirective)
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				rest, ok := strings.CutPrefix(cm.Text, "//lint:range")
				if !ok {
					continue
				}
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				d := &rangeDirective{pos: cm.Pos()}
				if fields := strings.Fields(rest); len(fields) < 2 {
					d.bad = "want //lint:range <param|recv|result> [lo,hi]"
				} else {
					d.target = fields[0]
					d.iv, d.bad = parseBounds(strings.Join(fields[1:], ""))
				}
				byLine[c.pass.Fset.Position(cm.Pos()).Line] = d
				c.dirs = append(c.dirs, d)
			}
		}
		c.byLine[f] = byLine
	}
}

// parseBounds parses "[lo,hi]" with numeric, inf, +inf, or -inf
// endpoints. The second result is an error description, empty on
// success.
func parseBounds(s string) (dataflow.Interval, string) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return dataflow.Interval{}, "bounds must look like [lo,hi]"
	}
	parts := strings.Split(s[1:len(s)-1], ",")
	if len(parts) != 2 {
		return dataflow.Interval{}, "bounds must have exactly two endpoints"
	}
	lo, ok1 := parseBound(parts[0])
	hi, ok2 := parseBound(parts[1])
	if !ok1 || !ok2 {
		return dataflow.Interval{}, "endpoints must be numbers, inf, +inf, or -inf"
	}
	if lo > hi {
		return dataflow.Interval{}, "empty range: lo > hi"
	}
	return dataflow.Interval{Lo: lo, Hi: hi}, ""
}

func parseBound(s string) (float64, bool) {
	switch s = strings.TrimSpace(s); s {
	case "inf", "+inf":
		return math.Inf(1), true
	case "-inf":
		return math.Inf(-1), true
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// claimDoc binds the //lint:range lines of fd's doc comment to fn,
// validating each target against the signature.
func (c *checker) claimDoc(f *ast.File, fd *ast.FuncDecl, fn *types.Func) {
	if fd.Doc == nil {
		return
	}
	byLine := c.byLine[f]
	sig := fn.Type().(*types.Signature)
	for _, cm := range fd.Doc.List {
		d := byLine[c.pass.Fset.Position(cm.Pos()).Line]
		if d == nil {
			continue
		}
		d.claimed = true
		if d.bad != "" {
			continue // reported by the malformed sweep
		}
		switch d.target {
		case "recv":
			if r := sig.Recv(); r == nil || !isNumeric(r.Type()) {
				c.pass.Reportf(d.pos, "//lint:range recv on %s, which has no numeric receiver", fn.Name())
				continue
			}
			c.declFor(fn).recv = &contract{d.iv, "receiver"}
		case "result":
			if sig.Results().Len() == 0 || !isNumeric(sig.Results().At(0).Type()) {
				c.pass.Reportf(d.pos, "//lint:range result on %s, whose first result is not numeric", fn.Name())
				continue
			}
			c.declFor(fn).result = &contract{d.iv, "result"}
		default:
			idx := -1
			for i := 0; i < sig.Params().Len(); i++ {
				if sig.Params().At(i).Name() == d.target {
					idx = i
					break
				}
			}
			if idx < 0 {
				c.pass.Reportf(d.pos, "//lint:range names %q, which is not a parameter of %s", d.target, fn.Name())
				continue
			}
			if !isNumeric(sig.Params().At(idx).Type()) {
				c.pass.Reportf(d.pos, "//lint:range on non-numeric parameter %q of %s", d.target, fn.Name())
				continue
			}
			c.declFor(fn).params[idx] = contract{d.iv, "parameter " + strconv.Quote(d.target)}
		}
	}
}

func (c *checker) declFor(fn *types.Func) *declared {
	dc := c.decls[fn]
	if dc == nil {
		dc = &declared{params: make(map[int]contract)}
		c.decls[fn] = dc
	}
	return dc
}

// isNumeric reports whether t (possibly a named type like sim.Time)
// has a real-numeric underlying type.
func isNumeric(t types.Type) bool {
	bt, ok := t.Underlying().(*types.Basic)
	return ok && bt.Info()&types.IsNumeric != 0 && bt.Info()&types.IsComplex == 0
}

func (c *checker) config(seed map[*types.Var]dataflow.Interval) *dataflow.IntervalAnalysis {
	return &dataflow.IntervalAnalysis{
		Info: c.pass.TypesInfo,
		Fset: c.pass.Fset,
		Call: c.effect,
		Seed: seed,
	}
}

// seedFor turns fn's declared param/recv contracts into engine seeds,
// so the body is analyzed under its own preconditions.
func (c *checker) seedFor(fn *types.Func) map[*types.Var]dataflow.Interval {
	dc := c.decls[fn]
	if dc == nil {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	seed := make(map[*types.Var]dataflow.Interval)
	for i, ct := range dc.params {
		if i < sig.Params().Len() {
			seed[sig.Params().At(i)] = ct.iv
		}
	}
	if dc.recv != nil && sig.Recv() != nil {
		seed[sig.Recv()] = dc.recv.iv
	}
	return seed
}

// effect is the absolute domain's call hook: built-in result ranges
// first, then memoized same-package summaries; anything else falls to
// the engine's conservative default.
func (c *checker) effect(call *ast.CallExpr, recv dataflow.Interval, args []dataflow.Interval) (dataflow.IntervalEffect, bool) {
	fn := dataflow.Callee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return dataflow.IntervalEffect{}, false
	}
	if rs, ok := builtinResults[dataflow.FuncKey(fn)]; ok {
		return dataflow.IntervalEffect{Results: rs, NoMutation: true}, true
	}
	if rs, ok := c.absolute.Of(fn); ok {
		return dataflow.IntervalEffect{Results: rs}, true
	}
	return dataflow.IntervalEffect{}, false
}

// absoluteSummary is a same-package function's result intervals under
// its declared param contracts, with the first result strengthened by
// any declared result contract.
func (c *checker) absoluteSummary(fn *types.Func, n *callgraph.Node) []dataflow.Interval {
	out := joinReturns(fn, n, c.config(c.seedFor(fn)))
	if dc := c.decls[fn]; dc != nil && dc.result != nil && len(out) > 0 {
		if m, ok := out[0].Meet(dc.result.iv); ok {
			out[0] = m
		}
	}
	return out
}

// joinReturns runs fn's body under cfg and joins the per-result
// intervals across its return sites: nil without results, Top when no
// return site carries every result.
func joinReturns(fn *types.Func, n *callgraph.Node, cfg *dataflow.IntervalAnalysis) []dataflow.Interval {
	arity := fn.Type().(*types.Signature).Results().Len()
	if arity == 0 {
		return nil
	}
	res := dataflow.RunIntervals(n.Decl.Type, n.Body, cfg)
	var out []dataflow.Interval
	for _, ret := range res.Returns {
		if len(ret.Results) != arity {
			continue
		}
		if out == nil {
			out = append([]dataflow.Interval(nil), ret.Results...)
			continue
		}
		for i := range out {
			out[i] = out[i].Join(ret.Results[i])
		}
	}
	if out == nil {
		out = make([]dataflow.Interval, arity)
		for i := range out {
			out[i] = dataflow.TopInterval()
		}
	}
	return out
}

// checkReturns checks every return site of fd against its declared
// result contract.
func (c *checker) checkReturns(fd *ast.FuncDecl, fn *types.Func, res *dataflow.IntervalResult) {
	dc := c.decls[fn]
	if dc == nil || dc.result == nil {
		return
	}
	for _, ret := range res.Returns {
		if len(ret.Results) == 0 {
			continue
		}
		c.checkOne(ret.Pos, ret.Results[0], dc.result.iv,
			"result of "+analysis.FuncDeclName(fd), "declared //lint:range")
	}
}

// checkBody walks fd for scheduling-site contracts (offset domain),
// call-argument contracts, and zero divisors (absolute domain).
func (c *checker) checkBody(fd *ast.FuncDecl, abs, off *dataflow.IntervalResult) {
	looks := c.groupLookaheads(fd, off)
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		switch n := node.(type) {
		case *ast.CallExpr:
			fn := dataflow.Callee(c.pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			c.checkCall(n, fn, abs, c.checkSite(n, fn, off, looks))
		case *ast.BinaryExpr:
			if n.Op == token.QUO || n.Op == token.REM {
				c.checkDivisor(n.Y, abs)
			}
		case *ast.AssignStmt:
			if (n.Tok == token.QUO_ASSIGN || n.Tok == token.REM_ASSIGN) && len(n.Rhs) == 1 {
				c.checkDivisor(n.Rhs[0], abs)
			}
		}
		return true
	})
}

// checkCall checks call arguments against built-in physics contracts
// and (same-package) declared //lint:range contracts, and the
// receiver expression against a declared recv contract. Argument
// index skip was already reported by the offset domain.
func (c *checker) checkCall(call *ast.CallExpr, fn *types.Func, res *dataflow.IntervalResult, skip int) {
	want := builtinArgs[dataflow.FuncKey(fn)]
	var dc *declared
	if fn.Pkg() == c.pass.Pkg {
		dc = c.decls[fn]
	}
	if want == nil && dc == nil {
		return
	}
	display := funcDisplay(fn)
	check := func(idx int, ct contract, why string) {
		if idx >= len(call.Args) || idx == skip {
			return
		}
		if iv, ok := res.Expr[call.Args[idx]]; ok {
			c.checkOne(call.Args[idx].Pos(), iv, ct.iv, ct.what+" passed to "+display, why)
		}
	}
	for idx, ct := range want {
		if dc != nil {
			if _, dup := dc.params[idx]; dup {
				continue // the declared contract wins
			}
		}
		check(idx, ct, "required range")
	}
	if dc == nil {
		return
	}
	for idx, ct := range dc.params {
		check(idx, ct, "declared //lint:range")
	}
	if dc.recv != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if iv, ok := res.Expr[sel.X]; ok {
				c.checkOne(sel.X.Pos(), iv, dc.recv.iv, "receiver of "+display, "declared //lint:range")
			}
		}
	}
}

// checkDivisor reports divisors provably zero, or possibly zero with
// finite evidence on both sides (a half-open interval like [0, +inf)
// says nothing about the value and stays silent). For float divisors
// the zero must sit strictly inside the interval: strict float
// comparisons refine to closed bounds (no epsilon to step by), so an
// endpoint exactly at zero is usually a `d < 1` guard seen as d <= 1,
// not evidence of a reachable zero. Integer refinement steps by one,
// so a zero endpoint there is real and stays reported.
func (c *checker) checkDivisor(y ast.Expr, res *dataflow.IntervalResult) {
	tv, ok := c.pass.TypesInfo.Types[y]
	if !ok || tv.Type == nil || !isNumeric(tv.Type) {
		return
	}
	iv, ok := res.Expr[y]
	if !ok {
		return
	}
	bt := tv.Type.Underlying().(*types.Basic)
	integral := bt.Info()&types.IsInteger != 0
	straddles := iv.Lo < 0 && iv.Hi > 0
	if integral {
		straddles = iv.Contains(0)
	}
	switch {
	case iv.Lo == 0 && iv.Hi == 0:
		c.pass.Reportf(y.Pos(), "divisor is provably zero (interval %v)", iv)
	case straddles && !math.IsInf(iv.Lo, -1) && !math.IsInf(iv.Hi, 1):
		c.pass.Reportf(y.Pos(), "divisor may be zero (interval %v); guard the denominator", iv)
	}
}

// checkOne reports got escaping want: "provably outside" when the
// intervals are disjoint, "may" when a finite endpoint crosses the
// bound. Infinite endpoints from widening are not evidence.
func (c *checker) checkOne(pos token.Pos, got, want dataflow.Interval, what, why string) {
	switch {
	case got.Hi < want.Lo || got.Lo > want.Hi:
		c.pass.Reportf(pos, "%s is provably outside its %s %v: interval %v",
			what, why, want, got)
	case got.Lo < want.Lo && !math.IsInf(got.Lo, -1):
		c.pass.Reportf(pos, "%s may fall below its %s %v: interval %v; clamp or guard first",
			what, why, want, got)
	case got.Hi > want.Hi && !math.IsInf(got.Hi, 1):
		c.pass.Reportf(pos, "%s may exceed its %s %v: interval %v; clamp or guard first",
			what, why, want, got)
	}
}

// funcDisplay renders "(power.Integrator).SetPower" or
// "power.NewCPUModel" for diagnostics.
func funcDisplay(fn *types.Func) string {
	pkg := fn.Pkg().Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + pkg + "." + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}
