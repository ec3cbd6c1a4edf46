// Package detflow defines the determinism analyzer: simulation results
// must be a pure function of (config, seed). One table of
// nondeterminism sources drives two checks.
//
// The call-site ban: inside the deterministic packages (the simulator
// packages of analysis.IsSimulatorPackage: internal/sim and everything
// a running cell executes or derives its results in) any reference to
// a banned source is reported where it is made, whether or not its
// value flows anywhere. Simulated time comes from the sim clock,
// randomness from a seeded *rand.Rand carried in config.
//
// The flow check: everywhere else, detflow taints the VALUES sources
// produce and follows them along def-use chains (internal/lint/
// dataflow), reporting only when a tainted value reaches a result
// sink. Logging a wall-clock timestamp to stderr from a command is
// therefore legal without suppression, while printing one to stdout is
// not. A banned call inside a deterministic package is already a
// finding, so its value is not tracked further: one root cause, one
// report.
//
// Sources (what taints a value; all but map order are also banned):
//   - the wall clock and its timers: time.Now / Since / Until / Sleep /
//     After / AfterFunc / Tick / NewTimer / NewTicker
//   - the process environment and host identity: os.Getenv,
//     os.LookupEnv, os.Environ, os.Hostname, os.Getpid
//   - the globally-seeded math/rand functions (rand.Intn and friends;
//     rand.New(rand.NewSource(seed)) stays clean because the taint of a
//     seeded generator is just the taint of its seed)
//   - map iteration order: the key/value variables of a range over a
//     map, and maps.Keys / maps.Values
//   - scheduling order: values bound by a multi-case select
//   - pointer identity: fmt verbs formatting with %p
//
// Sanitizers (what cleans a value): sorting. sort.Strings over
// collected map keys yields a deterministic slice, so the engine kills
// the argument's taint at sort.Sort/Stable/Strings/Ints/Float64s/
// Slice/SliceStable and slices.Sort/SortFunc/SortStableFunc (and
// treats the slices.Sorted* forms as clean results).
//
// Sinks (where taint becomes a finding):
//   - results of exported functions and methods in the deterministic
//     packages;
//   - values handed to JSON/CSV encoders anywhere in the module
//     (json.Marshal, (*json.Encoder).Encode, (*csv.Writer).Write...);
//   - in the deterministic packages and in cmd/*, values emitted to a
//     non-local writer (fmt.Fprintf to a parameter or os.Stdout,
//     os.WriteFile, Write/WriteString methods). os.Stderr and the log
//     package are exempt: that is the logging-only allowance.
//
// Flow is composed interprocedurally inside each package by per-
// function summaries (callgraph.Summaries): for every same-package
// callee the analyzer computes (a) the internal taint of each result
// and (b) whether parameters flow to results, with cycles resolved
// conservatively. Cross-package calls propagate argument taint to
// results (and may store tainted arguments into pointer arguments),
// which keeps each package's verdict sound without whole-program
// analysis.
package detflow

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/dataflow"
)

// Analyzer bans nondeterminism sources in the deterministic packages
// and reports nondeterministic values that flow into simulation
// results, encoded output, or cmd/* emitted output.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "ban wall-clock time, timers, environment reads, and global math/rand in the " +
		"deterministic packages, and forbid nondeterministic values (those sources, map " +
		"iteration order, select order, %p) from flowing into exported results, " +
		"JSON/CSV encodings, or cmd output; sort map keys before emission",
	Run: run,
}

// isCmdPkg reports whether path is a command: everything a command
// prints (except stderr logging) is program output and must be
// deterministic.
func isCmdPkg(path string) bool {
	return strings.HasPrefix(path, "repro/cmd/") || strings.Contains(path, "/cmd/")
}

// source is one nondeterministic package-level function: the kind of
// nondeterminism its value carries, and the replacement a deterministic
// package must use instead. An entry without advice is flow-only:
// maps.Keys is fine once its result is sorted.
type source struct {
	kind, advice string
}

const useConfig = "thread configuration through Params/Config structs"

// sources is the one table of nondeterminism sources, keyed
// "pkgpath.Name". The globally-seeded math/rand functions are a rule,
// not entries (see globalRand).
var sources = map[string]source{
	"time.Now":       {"wall clock", "use the sim clock (sim.Engine.Now)"},
	"time.Since":     {"wall clock", "use sim.Time.Sub on simulated instants"},
	"time.Until":     {"wall clock", "use sim.Time.Sub on simulated instants"},
	"time.Sleep":     {"wall clock", "use sim.Proc.Sleep"},
	"time.After":     {"wall clock", "use sim.Engine.After"},
	"time.AfterFunc": {"wall clock", "use sim.Engine.After"},
	"time.Tick":      {"wall clock", "use a sim.Engine timer process"},
	"time.NewTimer":  {"wall clock", "use a sim.Engine timer process"},
	"time.NewTicker": {"wall clock", "use a sim.Engine timer process"},
	"os.Getenv":      {"process environment", useConfig},
	"os.LookupEnv":   {"process environment", useConfig},
	"os.Environ":     {"process environment", useConfig},
	"os.Hostname":    {"host identity", useConfig},
	"os.Getpid":      {"process identity", useConfig},
	"maps.Keys":      {"map iteration order", ""},
	"maps.Values":    {"map iteration order", ""},
}

// globalRand reports whether path.name draws from the process-global
// math/rand generator; only the New* constructors of explicitly seeded
// generators are exempt.
func globalRand(path, name string) bool {
	return (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(name, "New")
}

// sortKills are the sort-package sanitizers that order their first
// argument in place.
var sortKills = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true,
}

// slicesKills are the in-place slices-package sanitizers.
var slicesKills = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true,
}

// slicesClean are slices-package functions whose result is sorted and
// therefore deterministic regardless of input order.
var slicesClean = map[string]bool{
	"Sorted": true, "SortedFunc": true, "SortedStableFunc": true,
}

// fmtFormatArg gives, for fmt functions with a format string, the index
// of that format argument (for the %p source check).
var fmtFormatArg = map[string]int{
	"Sprintf": 0, "Printf": 0, "Errorf": 0, "Fprintf": 1, "Appendf": 1,
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
	d := &checker{pass: pass, det: analysis.IsSimulatorPackage(pass.Pkg.Path())}
	d.sums = callgraph.NewSummaries(callgraph.Build(pass.Fset, files, pass.TypesInfo),
		summary{argFlow: true}, d.summarize)
	for _, f := range files {
		if d.det {
			d.checkBanned(f)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			res := dataflow.Run(fd.Type, fd.Body, d.config(nil))
			d.checkReturnSink(fd, res)
			d.checkCallSinks(fd, res)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	det  bool // the package is deterministic: sources are banned, results are sinks
	sums *callgraph.Summaries[summary]
}

// summary is the interprocedural abstraction of one same-package
// function: the internal nondeterminism each result carries, and
// whether parameter taint flows to any result.
type summary struct {
	results []dataflow.Taint
	argFlow bool
}

// checkBanned reports every reference to a banned source in f, called
// or not.
func (d *checker) checkBanned(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path, ok := analysis.UsedPackage(d.pass.TypesInfo, sel)
		if !ok {
			return true
		}
		key := path + "." + sel.Sel.Name
		if src := sources[key]; src.advice != "" {
			d.pass.Reportf(sel.Pos(), "nondeterministic %s in deterministic package %s (%s via %s); %s",
				key, d.pass.Pkg.Path(), src.kind, key, src.advice)
		} else if _, isFunc := d.pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc && globalRand(path, sel.Sel.Name) {
			d.pass.Reportf(sel.Pos(), "globally-seeded %s in deterministic package %s; "+
				"draw from a seeded *rand.Rand carried in the workload/cluster config", key, d.pass.Pkg.Path())
		}
		return true
	})
}

func (d *checker) config(seed map[*types.Var]dataflow.Taint) *dataflow.Analysis {
	return &dataflow.Analysis{
		Info: d.pass.TypesInfo,
		Fset: d.pass.Fset,
		Call: d.effect,
		Seed: seed,
	}
}

// effect is the dataflow engine's call hook: it classifies sources,
// sanitizers, and same-package callees (via summaries); everything else
// falls back to the engine's conservative propagate-and-mutate default.
func (d *checker) effect(call *ast.CallExpr, recv dataflow.Taint, args []dataflow.Taint) (dataflow.Effect, bool) {
	info := d.pass.TypesInfo
	fn := dataflow.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return dataflow.Effect{}, false
	}
	path, name := fn.Pkg().Path(), fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil

	if !isMethod {
		key := path + "." + name
		src, isSource := sources[key]
		banned := src.advice != "" || globalRand(path, name)
		switch {
		case banned && d.det:
			// Already reported at the call site by checkBanned.
			return dataflow.Effect{NoMutation: true}, true
		case isSource:
			return d.source(call, src.kind+" via "+key), true
		case globalRand(path, name):
			return d.source(call, "unseeded "+key), true
		}
		switch path {
		case "math/rand", "math/rand/v2":
			// Seeded generators: as deterministic as their seed.
			return dataflow.Effect{Propagate: true, NoMutation: true}, true
		case "fmt":
			if idx, ok := fmtFormatArg[name]; ok && formatHasPointerVerb(info, call, idx) {
				return d.source(call, "pointer formatting (%p) via fmt."+name), true
			}
		case "sort":
			if sortKills[name] && len(call.Args) > 0 {
				return dataflow.Effect{Kills: call.Args[:1], NoMutation: true}, true
			}
		case "slices":
			if slicesKills[name] && len(call.Args) > 0 {
				return dataflow.Effect{Kills: call.Args[:1], NoMutation: true}, true
			}
			if slicesClean[name] {
				return dataflow.Effect{NoMutation: true}, true
			}
		}
	}

	if s, ok := d.sums.Of(fn); ok {
		return dataflow.Effect{
			Result:    dataflow.JoinAll(s.results),
			Results:   s.results,
			Propagate: s.argFlow,
		}, true
	}
	return dataflow.Effect{}, false
}

// source builds a source Effect whose description pins the origin
// position, so the eventual diagnostic names where taint entered.
func (d *checker) source(call *ast.CallExpr, desc string) dataflow.Effect {
	p := d.pass.Fset.Position(call.Pos())
	file := p.Filename
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		file = file[i+1:]
	}
	return dataflow.Effect{
		Result:     dataflow.Taint{Desc: desc + " (" + file + ":" + strconv.Itoa(p.Line) + ")"},
		NoMutation: true,
	}
}

// formatHasPointerVerb reports whether the call's format argument is a
// constant string containing a %p verb.
func formatHasPointerVerb(info *types.Info, call *ast.CallExpr, idx int) bool {
	if idx >= len(call.Args) {
		return false
	}
	tv, ok := info.Types[call.Args[idx]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	return strings.Contains(constant.StringVal(tv.Value), "%p")
}

// summarize computes the summary of one same-package function by
// running the engine twice over its body: once unseeded to find
// internal sources reaching its results, once with every parameter and
// the receiver seeded to detect parameter-to-result flow.
func (d *checker) summarize(fn *types.Func, n *callgraph.Node) summary {
	sig := fn.Type().(*types.Signature)
	arity := sig.Results().Len()

	resA := dataflow.Run(n.Decl.Type, n.Body, d.config(nil))
	results := make([]dataflow.Taint, arity)
	for _, ret := range resA.Returns {
		if len(ret.Taints) == arity {
			for i, t := range ret.Taints {
				results[i] = dataflow.Join(results[i], dataflow.Taint{Desc: t.Desc})
			}
			continue
		}
		j := dataflow.JoinAll(ret.Taints)
		for i := range results {
			results[i] = dataflow.Join(results[i], dataflow.Taint{Desc: j.Desc})
		}
	}

	seed := make(map[*types.Var]dataflow.Taint)
	if r := sig.Recv(); r != nil {
		seed[r] = dataflow.Taint{Param: true}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		seed[sig.Params().At(i)] = dataflow.Taint{Param: true}
	}
	argFlow := false
	if len(seed) > 0 && arity > 0 {
		resB := dataflow.Run(n.Decl.Type, n.Body, d.config(seed))
		for _, ret := range resB.Returns {
			if dataflow.JoinAll(ret.Taints).Param {
				argFlow = true
				break
			}
		}
	}
	return summary{results: results, argFlow: argFlow}
}

// checkReturnSink reports internal taint reaching the results of an
// exported function or method in a deterministic package.
func (d *checker) checkReturnSink(fd *ast.FuncDecl, res *dataflow.Result) {
	if !d.det || !fd.Name.IsExported() {
		return
	}
	for _, ret := range res.Returns {
		for _, t := range ret.Taints {
			if t.Desc != "" {
				d.pass.Reportf(ret.Pos, "nondeterministic value (%s) flows to the result of exported %s; "+
					"simulation results must be a pure function of (config, seed)", t.Desc, analysis.FuncDeclName(fd))
				break
			}
		}
	}
}

// checkCallSinks reports taint handed to encoders anywhere, and to
// non-local writers in deterministic packages and commands.
func (d *checker) checkCallSinks(fd *ast.FuncDecl, res *dataflow.Result) {
	info := d.pass.TypesInfo
	emissionPkg := d.det || isCmdPkg(d.pass.Pkg.Path())
	params := paramObjs(info, fd)

	ast.Inspect(fd.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := dataflow.Callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		fpath, name := fn.Pkg().Path(), fn.Name()
		sig, _ := fn.Type().(*types.Signature)
		isMethod := sig != nil && sig.Recv() != nil

		// Encoders are sinks module-wide: encoded bytes are results.
		switch {
		case fpath == "encoding/json" && !isMethod && (name == "Marshal" || name == "MarshalIndent"):
			d.reportTainted(res, call.Args, "JSON encoding")
			return true
		case fpath == "encoding/json" && isMethod && name == "Encode":
			d.reportTainted(res, call.Args, "JSON encoding")
			return true
		case fpath == "encoding/csv" && isMethod && (name == "Write" || name == "WriteAll"):
			d.reportTainted(res, call.Args, "CSV encoding")
			return true
		}

		if !emissionPkg {
			return true
		}

		// Writer sinks: emission to anything non-local. The log
		// package and os.Stderr are the logging-only allowance.
		if fpath == "log" {
			return true
		}
		switch {
		case fpath == "fmt" && (name == "Fprintf" || name == "Fprintln" || name == "Fprint"):
			if len(call.Args) > 0 && d.isEmissionDest(call.Args[0], params) {
				d.reportTainted(res, call.Args[1:], "emitted output")
			}
		case fpath == "fmt" && (name == "Printf" || name == "Println" || name == "Print"):
			d.reportTainted(res, call.Args, "emitted output (os.Stdout)")
		case fpath == "io" && name == "WriteString":
			if len(call.Args) > 0 && d.isEmissionDest(call.Args[0], params) {
				d.reportTainted(res, call.Args[1:], "emitted output")
			}
		case fpath == "os" && name == "WriteFile":
			d.reportTainted(res, call.Args[:len(call.Args)-1], "written file")
		case isMethod && strings.HasPrefix(name, "Write"):
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && d.isEmissionDest(sel.X, params) {
				d.reportTainted(res, call.Args, "emitted output")
			}
		}
		return true
	})
}

// reportTainted reports the first internally tainted argument (one
// finding per sink call keeps diagnostics readable).
func (d *checker) reportTainted(res *dataflow.Result, args []ast.Expr, what string) {
	for _, a := range args {
		if t := res.Expr[a]; t.Desc != "" {
			d.pass.Reportf(a.Pos(), "nondeterministic value (%s) flows into %s; "+
				"sort map keys (or derive the value from config/seed) before emitting", t.Desc, what)
			return
		}
	}
}

// isEmissionDest decides whether writing to dest emits program output:
// os.Stdout, package-level writers, writer parameters, and files are
// sinks; os.Stderr is logging; a local buffer is not a sink (taint
// accumulates in it instead, and is caught when the buffer is flushed
// to a real sink).
func (d *checker) isEmissionDest(dest ast.Expr, params map[types.Object]bool) bool {
	info := d.pass.TypesInfo
	if sel, ok := ast.Unparen(dest).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "os" {
				return sel.Sel.Name != "Stderr"
			}
		}
	}
	obj := dataflow.BaseObj(info, dest)
	if obj == nil {
		return true // unresolvable destination: assume it emits
	}
	if params[obj] {
		return true
	}
	if obj.Parent() == d.pass.Pkg.Scope() {
		return true // package-level writer
	}
	if tv, ok := info.Types[dest]; ok && tv.Type != nil {
		if isFileLike(tv.Type) {
			return true
		}
	}
	return false
}

// isFileLike recognizes writer types that reach the outside world even
// when held in a local variable: *os.File and the stdlib writers that
// wrap one.
func isFileLike(t types.Type) bool {
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "os.File", "bufio.Writer", "text/tabwriter.Writer", "encoding/csv.Writer":
		return true
	}
	return false
}

// paramObjs collects the parameter and receiver objects of fd, which
// count as emission destinations (the caller handed us its writer).
func paramObjs(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if o := info.Defs[name]; o != nil {
					out[o] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return out
}
