// Package shardown defines the shard-ownership analyzer for the
// sharded event core. The sim.Group API partitions simulator state
// across per-shard engines; within a lookahead window each shard
// advances concurrently, so state owned by one shard may only be
// touched from another through the sanctioned channels — Group.Post,
// Group.ScheduleGlobal (coordinator globals run at window barriers),
// the two-stage netsim Send/Accept booking, or read-only
// window-barrier globals. Everything else is a data race that the
// byte-equality tests can only catch after the fact; this analyzer
// catches it at lint time.
//
// Ownership is inferred from the API itself:
//
//   - a closure handed to Engine.Schedule/Spawn/SpawnAt/After/
//     PostArrival runs on that engine's shard; the engine's owner is
//     resolved through aliases (x := g.Engine(i), n := ranks[j],
//     eng := n.Engine(), range variables, rank-owned parameters);
//   - a closure handed to Group.Post(shard, ...) runs on that shard;
//   - a closure handed to Group.ScheduleGlobal runs in coordinator
//     context (sequential at the window barrier — exempt from checks);
//   - per-rank slot slices (finished[i], finishAt[i]) are inferred
//     from writes at the closure's own index and may be annotated
//     explicitly.
//
// Rank-owned types are machine.Node and mpi.Rank plus any
// same-package type annotated "//lint:ownedby rank". Functions that
// relay closures to another rank's shard declare it with
// "//lint:ownedby rank <param>" (mpi.(*World).post) or
// "//lint:ownedby coordinator"; dangling or malformed directives are
// reported like any other finding.
//
// In a shard context with a known home the analyzer reports:
//
//   - access (read or write) to a per-rank slot at a foreign index,
//     and capturing a whole slot slice;
//   - Schedule/Spawn/... on an engine owned by a different shard
//     ("route it through Group.Post");
//   - writes to captured locals of the enclosing function (the
//     window-barrier-global rule: coordinator state may be read from
//     shards, never written);
//   - any use of a rank-owned handle (selector, index, method call)
//     whose owner differs from the context's — the shape of the PR 7
//     mpi rendezvous collision, where a sender-shard closure keyed
//     receiver-side state by a sender-local handle.
//
// The internal/exec worker pool is the other concurrent context. The
// function literal passed as exec.Map's fn runs on a pool worker
// beside the other indices, and its home is its own index parameter:
// the captured-write and own-slot rules above apply to it, so a worker
// may write captured memory only under its own index's slot
// (out[i] = v, out[i].f = v) and may not read another index's slot. A
// worker's store is followed through selectors, dereferences and
// indexes to its base variable, so fields of captured structs and
// receivers and stores through captured pointers count as captured
// writes. A mutex around a captured write does not exempt it: the lock
// makes the write race-free, but which worker writes last still
// depends on the schedule.
//
// One interprocedural rule closes the argument across calls: nothing
// the package call graph (internal/lint/callgraph) reaches from an
// exec.Map worker, or from an exported function of a simulator package
// (analysis.IsSimulatorPackage; any of them may run inside a
// concurrently running cell), may write a package-level variable
// unless a sync mutex Lock lexically precedes the store. Writes
// through sync/atomic are calls, not stores, and pass. Each package is
// policed with its own roots, which closes the argument module-wide
// without whole-program analysis.
//
// Contexts the analyzer cannot resolve stay unchecked: like the rest
// of the suite, shardown only reports what it can prove, so an
// unresolvable home silences rather than guesses.
package shardown

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/dataflow"
)

// Analyzer reports simulator state touched from a shard that does not
// own it, outside the sanctioned cross-shard channels, and shared
// memory written from exec.Map workers.
var Analyzer = &analysis.Analyzer{
	Name: "shardown",
	Doc: "infer shard ownership from the sim.Group API (per-shard engines, rank-owned " +
		"types, per-rank slots, //lint:ownedby annotations) and forbid cross-shard " +
		"access outside Group.Post / Group.ScheduleGlobal / netsim Send+Accept; " +
		"exec.Map workers may write only their own index's slot, and no package-level " +
		"variable may be written unguarded where a worker or an exported simulator " +
		"function reaches",
	Run: run,
}

const (
	simPkg  = "repro/internal/sim"
	execPkg = "repro/internal/exec"
)

// builtinRankOwned are the module's per-rank aggregate types: a value
// of one of these belongs to the shard its engine lives on.
var builtinRankOwned = map[[2]string]bool{
	{"repro/internal/machine", "Node"}: true,
	{"repro/internal/mpi", "Rank"}:     true,
}

// schedulingMethods are the Engine methods that enqueue a closure onto
// the engine's shard.
var schedulingMethods = map[string]bool{
	"Schedule": true, "Spawn": true, "SpawnAt": true,
	"After": true, "PostArrival": true,
}

// A homeKind distinguishes the index spaces owners are named in.
type homeKind int

const (
	rankHome   homeKind = iota // an index into the per-rank arrays
	shardHome                  // an index into the group's engines
	workerHome                 // an exec.Map worker's index parameter
)

func (k homeKind) String() string {
	if k == shardHome {
		return "shard"
	}
	return "rank"
}

// A home names an owner as a canonical source expression ("i",
// "m.Dst", "0") in one index space. Two homes are comparable only
// within the same kind; differing text within a kind is reported,
// differing kinds are skipped.
type home struct {
	kind homeKind
	text string
}

// ctxKind classifies the execution context of a statement.
type ctxKind int

const (
	ctxRoot        ctxKind = iota // the function's own body: its caller's context
	ctxCoordinator                // sequential at a window barrier: exempt
	ctxShard                      // concurrent with a known home (a shard or a worker index): checked
	ctxUnknown                    // unresolvable: unchecked
)

// A context is where code runs; lit is the classified closure the
// context was established at (locals declared outside it are
// "captured").
type context struct {
	kind ctxKind
	home home
	lit  *ast.FuncLit
}

// where names a shard context in diagnostics; worker contexts have
// their own messages.
func (c context) where() string {
	return fmt.Sprintf("the shard owning %s %s", c.home.kind, c.home.text)
}

// directive is one parsed //lint:ownedby comment.
type directive struct {
	pos     token.Pos
	line    int
	file    string
	kind    string // "rank", "coordinator"
	param   string // for "rank <param>" on functions
	bad     string // non-empty for malformed directives
	claimed bool
}

// funcAnn is a function-level ownership annotation.
type funcAnn struct {
	coordinator bool
	rankParam   string
}

func run(pass *analysis.Pass) error {
	dirs := parseDirectives(pass)

	// Same-package rank-owned type annotations and function
	// annotations, claimed from declaration doc comments.
	rankOwnedTypes := make(map[*types.TypeName]bool)
	funcAnns := make(map[*types.Func]funcAnn)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				dir := dirs.claimDoc(pass.Fset, d.Doc)
				if dir == nil {
					continue
				}
				fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				switch {
				case dir.kind == "coordinator":
					funcAnns[fn] = funcAnn{coordinator: true}
				case dir.kind == "rank" && dir.param != "":
					if !hasParam(fn, dir.param) {
						dir.bad = fmt.Sprintf("function %s has no parameter %q", fn.Name(), dir.param)
						continue
					}
					funcAnns[fn] = funcAnn{rankParam: dir.param}
				default:
					dir.bad = "a function directive needs \"coordinator\" or \"rank <param>\""
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				dir := dirs.claimDoc(pass.Fset, d.Doc)
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if dir == nil {
						dir = dirs.claimDoc(pass.Fset, ts.Doc)
					}
					if dir == nil {
						continue
					}
					if dir.kind != "rank" || dir.param != "" {
						dir.bad = "a type directive must be exactly \"//lint:ownedby rank\""
						continue
					}
					if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
						rankOwnedTypes[tn] = true
					}
				}
			}
		}
	}

	own := &ownership{pass: pass, rankOwnedTypes: rankOwnedTypes, funcAnns: funcAnns, dirs: dirs}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || analysis.IsTestFile(pass.Fset, fd.Pos()) {
				continue
			}
			own.checkFunc(fd)
		}
	}

	checkGlobalWrites(pass)

	// Unclaimed or malformed directives are findings themselves, like
	// hotalloc's dangling markers.
	for _, d := range dirs.all {
		if analysis.IsTestFile(pass.Fset, d.pos) {
			continue
		}
		if d.bad != "" {
			pass.Reportf(d.pos, "malformed //lint:ownedby directive: %s", d.bad)
		} else if !d.claimed {
			pass.Reportf(d.pos, "dangling //lint:ownedby directive: no type, function, or slot declaration claims it")
		}
	}
	return nil
}

// checkGlobalWrites reports every package-level write without a
// preceding mutex Lock that the package call graph reaches from an
// exec.Map worker or, in a simulator package, from an exported
// function.
func checkGlobalWrites(pass *analysis.Pass) {
	var files []*ast.File
	for _, f := range pass.Files {
		if !analysis.IsTestFile(pass.Fset, f.Pos()) {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return
	}
	g := callgraph.Build(pass.Fset, files, pass.TypesInfo)
	var roots []*callgraph.Node
	why := make(map[*callgraph.Node]string)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isExecMap(dataflow.Callee(pass.TypesInfo, call)) || len(call.Args) != 3 {
				return true
			}
			var root *callgraph.Node
			switch arg := ast.Unparen(call.Args[2]).(type) {
			case *ast.FuncLit:
				root = g.LitNode(arg)
			case *ast.Ident:
				if fn, ok := pass.TypesInfo.Uses[arg].(*types.Func); ok {
					root = g.NodeOf(fn)
				}
			}
			if root != nil {
				roots = append(roots, root)
				why[root] = "exec.Map worker " + root.Name
			}
			return true
		})
	}
	if analysis.IsSimulatorPackage(pass.Pkg.Path()) {
		for _, n := range g.Nodes {
			if n.Fn != nil && n.Fn.Exported() {
				roots = append(roots, n)
				why[n] = "hot-path entry " + n.Name
			}
		}
	}
	for node, root := range g.Reachable(roots...) {
		for _, w := range node.GlobalWrites {
			if !w.Guarded {
				pass.Reportf(w.Pos, "unsynchronized write to package-level variable %s in %s "+
					"(reachable from %s); use sync/atomic, a mutex, or per-cell state",
					w.Var.Name(), node.Name, why[root])
			}
		}
	}
}

// isExecMap reports whether fn is repro/internal/exec.Map.
func isExecMap(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == execPkg && fn.Name() == "Map"
}

func hasParam(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == name {
			return true
		}
	}
	return false
}

// ---- directives ----

type directives struct {
	all    []*directive
	byLine map[string]map[int]*directive
}

// parseDirectives collects every //lint:ownedby comment.
func parseDirectives(pass *analysis.Pass) *directives {
	ds := &directives{byLine: make(map[string]map[int]*directive)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ownedby")
				if !ok {
					continue
				}
				// Tolerate a trailing comment ("//lint:ownedby rank // want ..."),
				// mirroring the hotalloc marker grammar.
				if cut, _, found := strings.Cut(rest, "//"); found {
					rest = cut
				}
				d := &directive{pos: c.Pos()}
				p := pass.Fset.Position(c.Pos())
				d.file, d.line = p.Filename, p.Line
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 1 && fields[0] == "coordinator":
					d.kind = "coordinator"
				case len(fields) >= 1 && fields[0] == "rank":
					d.kind = "rank"
					if len(fields) == 2 {
						d.param = fields[1]
					} else if len(fields) > 2 {
						d.bad = "expected \"rank\", \"rank <param>\", or \"coordinator\""
					}
				default:
					d.bad = "expected \"rank\", \"rank <param>\", or \"coordinator\""
				}
				ds.all = append(ds.all, d)
				if ds.byLine[d.file] == nil {
					ds.byLine[d.file] = make(map[int]*directive)
				}
				ds.byLine[d.file][d.line] = d
			}
		}
	}
	return ds
}

// claimDoc claims a directive attached to a doc comment group.
func (ds *directives) claimDoc(fset *token.FileSet, doc *ast.CommentGroup) *directive {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		p := fset.Position(c.Pos())
		if d := ds.byLine[p.Filename][p.Line]; d != nil && d.bad == "" {
			d.claimed = true
			return d
		}
	}
	return nil
}

// claimAt claims a slot directive ("//lint:ownedby rank", no param) on
// the statement's own line or the line above; other forms are left for
// the dangling report.
func (ds *directives) claimAt(fset *token.FileSet, pos token.Pos) *directive {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		d := ds.byLine[p.Filename][line]
		if d != nil && d.bad == "" && d.kind == "rank" && d.param == "" {
			d.claimed = true
			return d
		}
	}
	return nil
}

// ---- per-package ownership model ----

type ownership struct {
	pass           *analysis.Pass
	rankOwnedTypes map[*types.TypeName]bool
	funcAnns       map[*types.Func]funcAnn
	dirs           *directives
}

// rankOwned reports whether t (or its pointee) is a per-rank aggregate.
func (o *ownership) rankOwned(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if o.rankOwnedTypes[tn] {
		return true
	}
	if tn.Pkg() == nil {
		return false
	}
	return builtinRankOwned[[2]string{tn.Pkg().Path(), tn.Name()}]
}

// isSimType reports whether t is (a pointer to) sim.<name>.
func isSimType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	return tn.Name() == name && tn.Pkg() != nil && tn.Pkg().Path() == simPkg
}

// elemType returns the element type of a slice/array/map type.
func elemType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	}
	return nil
}

func (o *ownership) typeOf(x ast.Expr) types.Type {
	return o.pass.TypesInfo.Types[x].Type
}

// ---- per-function analysis ----

type funcCheck struct {
	o  *ownership
	fd *ast.FuncDecl
	// aliasHomes maps local objects (params, receivers, := aliases,
	// range variables) to their resolved owner.
	aliasHomes map[types.Object]home
	// slots are the per-rank slot slices of this function: annotated,
	// or inferred from a write at the owning index in a shard closure.
	slots map[types.Object]bool
	// litCtx pre-classifies ident-bound literals by their use sites.
	litCtx map[*ast.FuncLit]context
	// collecting is true during the slot-inference pass.
	collecting bool
	reported   map[token.Pos]bool
}

func (o *ownership) checkFunc(fd *ast.FuncDecl) {
	fc := &funcCheck{
		o:          o,
		fd:         fd,
		aliasHomes: make(map[types.Object]home),
		slots:      make(map[types.Object]bool),
		litCtx:     make(map[*ast.FuncLit]context),
		reported:   make(map[token.Pos]bool),
	}
	fc.buildAliases()
	fc.claimSlotAnnotations()
	fc.classifyBoundLits()
	// Pass 1 infers slots from own-index writes; pass 2 reports.
	fc.collecting = true
	fc.walk(fd.Body, context{kind: ctxRoot})
	fc.collecting = false
	fc.walk(fd.Body, context{kind: ctxRoot})
}

// buildAliases resolves the function's owner-carrying names: receiver
// and parameters of rank-owned types, := aliases of resolvable
// expressions, and range variables over rank-owned collections. Two
// passes settle forward references in source order.
func (fc *funcCheck) buildAliases() {
	info := fc.o.pass.TypesInfo
	if fc.fd.Recv != nil {
		for _, field := range fc.fd.Recv.List {
			for _, n := range field.Names {
				if obj := info.Defs[n]; obj != nil && fc.o.rankOwned(obj.Type()) {
					fc.aliasHomes[obj] = home{rankHome, n.Name}
				}
			}
		}
	}
	if fc.fd.Type.Params != nil {
		for _, field := range fc.fd.Type.Params.List {
			for _, n := range field.Names {
				if obj := info.Defs[n]; obj != nil && fc.o.rankOwned(obj.Type()) {
					fc.aliasHomes[obj] = home{rankHome, n.Name}
				}
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(fc.fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := info.Defs[id]
					if obj == nil {
						continue
					}
					if h, ok := fc.homeOf(s.Rhs[i]); ok {
						fc.aliasHomes[obj] = h
					}
				}
			case *ast.RangeStmt:
				if elem := elemType(fc.o.typeOf(s.X)); elem == nil || !fc.o.rankOwned(elem) {
					return true
				}
				vid, _ := s.Value.(*ast.Ident)
				if vid == nil || vid.Name == "_" {
					return true
				}
				obj := info.Defs[vid]
				if obj == nil {
					return true
				}
				// The value variable is owned by the key's index when
				// the key is named, else by its own name.
				idxText := vid.Name
				if kid, ok := s.Key.(*ast.Ident); ok && kid.Name != "_" {
					idxText = kid.Name
				}
				fc.aliasHomes[obj] = home{rankHome, idxText}
			}
			return true
		})
	}
}

// claimSlotAnnotations marks locals annotated //lint:ownedby rank (on
// the declaration's line or the line above) as per-rank slots.
func (fc *funcCheck) claimSlotAnnotations() {
	info := fc.o.pass.TypesInfo
	ast.Inspect(fc.fd.Body, func(n ast.Node) bool {
		var names []*ast.Ident
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					names = append(names, id)
				}
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					names = append(names, vs.Names...)
				}
			}
		default:
			return true
		}
		if len(names) == 0 {
			return true
		}
		d := fc.o.dirs.claimAt(fc.o.pass.Fset, n.Pos())
		if d == nil {
			return true
		}
		for _, id := range names {
			if obj := info.Defs[id]; obj != nil {
				fc.slots[obj] = true
			}
		}
		return true
	})
}

// classifyBoundLits classifies `name := func(){...}` literals by how
// name is used: handed to ScheduleGlobal it is coordinator code,
// handed to an engine-scheduling method it belongs to that shard.
// Conflicting uses leave it unknown (and therefore unchecked).
func (fc *funcCheck) classifyBoundLits() {
	info := fc.o.pass.TypesInfo
	bound := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(fc.fd.Body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok || s.Tok != token.DEFINE || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return true
		}
		lit, ok := s.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		if id, ok := s.Lhs[0].(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				bound[obj] = lit
			}
		}
		return true
	})
	if len(bound) == 0 {
		return
	}
	ast.Inspect(fc.fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for i, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			lit := bound[obj]
			if lit == nil {
				continue
			}
			ctx, classifies := fc.callArgContext(call, i)
			if !classifies {
				continue
			}
			if prev, seen := fc.litCtx[lit]; seen && (prev.kind != ctx.kind || prev.home != ctx.home) {
				ctx = context{kind: ctxUnknown}
			}
			ctx.lit = lit
			fc.litCtx[lit] = ctx
		}
		return true
	})
}

// callArgContext decides the execution context a closure argument of
// call would run in, or classifies=false when the call is not a
// dispatching API.
func (fc *funcCheck) callArgContext(call *ast.CallExpr, argIdx int) (ctx context, classifies bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if isSel {
		recvType := fc.o.typeOf(sel.X)
		if isSimType(recvType, "Group") {
			switch sel.Sel.Name {
			case "ScheduleGlobal":
				return context{kind: ctxCoordinator}, true
			case "Post":
				if len(call.Args) > 0 {
					return context{kind: ctxShard, home: home{shardHome, exprText(call.Args[0])}}, true
				}
				return context{kind: ctxUnknown}, true
			}
		}
		if isSimType(recvType, "Engine") && schedulingMethods[sel.Sel.Name] {
			if h, ok := fc.homeOf(sel.X); ok {
				return context{kind: ctxShard, home: h}, true
			}
			return context{kind: ctxUnknown}, true
		}
	}
	fn := dataflow.Callee(fc.o.pass.TypesInfo, call)
	// exec.Map's fn runs on a pool worker; walkLit names its home.
	if isExecMap(fn) {
		return context{kind: ctxShard, home: home{kind: workerHome}}, argIdx == 2
	}
	// Same-package functions annotated //lint:ownedby.
	if fn != nil {
		if ann, ok := fc.o.funcAnns[fn]; ok {
			if ann.coordinator {
				return context{kind: ctxCoordinator}, true
			}
			if idx := paramIndex(fn, ann.rankParam); idx >= 0 && idx < len(call.Args) {
				return context{kind: ctxShard, home: home{rankHome, exprText(call.Args[idx])}}, true
			}
			return context{kind: ctxUnknown}, true
		}
	}
	return context{}, false
}

func paramIndex(fn *types.Func, name string) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == name {
			return i
		}
	}
	return -1
}

// homeOf resolves the owner of an expression: aliases, per-rank
// elements (ranks[j]), owner-preserving selectors and method calls
// (r.node, n.Engine(), g.Engine(i)).
func (fc *funcCheck) homeOf(x ast.Expr) (home, bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		obj := fc.o.pass.TypesInfo.Uses[x]
		if obj == nil {
			obj = fc.o.pass.TypesInfo.Defs[x]
		}
		if obj == nil {
			return home{}, false
		}
		h, ok := fc.aliasHomes[obj]
		return h, ok
	case *ast.IndexExpr:
		if elem := elemType(fc.o.typeOf(x.X)); elem != nil && fc.o.rankOwned(elem) {
			return home{rankHome, exprText(x.Index)}, true
		}
		return home{}, false
	case *ast.SelectorExpr:
		// A rank-owned or engine-typed field keeps its base's owner
		// (w.ranks[j].node is owned by rank j).
		t := fc.o.typeOf(x)
		if fc.o.rankOwned(t) || isSimType(t, "Engine") {
			return fc.homeOf(x.X)
		}
		return home{}, false
	case *ast.CallExpr:
		sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
		if !ok {
			return home{}, false
		}
		// g.Engine(i) names shard i directly.
		if isSimType(fc.o.typeOf(sel.X), "Group") && sel.Sel.Name == "Engine" && len(x.Args) == 1 {
			return home{shardHome, exprText(x.Args[0])}, true
		}
		// A method returning the engine or a rank-owned value keeps
		// its receiver's owner (n.Engine(), r.eng()).
		t := fc.o.typeOf(x)
		if fc.o.rankOwned(t) || isSimType(t, "Engine") {
			return fc.homeOf(sel.X)
		}
		return home{}, false
	}
	return home{}, false
}

// exprText canonicalizes an index/owner expression for comparison.
func exprText(x ast.Expr) string { return types.ExprString(ast.Unparen(x)) }

// ---- the context walker ----

// walk traverses n, tracking execution context. Closure arguments of
// dispatching calls enter the derived context; other literals inherit
// (or use their bound-ident classification).
func (fc *funcCheck) walk(n ast.Node, ctx context) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		if !fc.checkCall(n, ctx) {
			fc.walk(n.Fun, ctx)
		}
		// len/cap observe a slot slice without touching foreign
		// elements, so their ident arguments are exempt.
		lenCap := false
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if _, builtin := fc.o.pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
				lenCap = id.Name == "len" || id.Name == "cap"
			}
		}
		for i, arg := range n.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				if argCtx, classifies := fc.callArgContext(n, i); classifies {
					argCtx.lit = lit
					fc.walkLit(lit, argCtx)
					continue
				}
			}
			if lenCap {
				if _, ok := ast.Unparen(arg).(*ast.Ident); ok {
					continue
				}
			}
			fc.walk(arg, ctx)
		}
		return
	case *ast.FuncLit:
		if pre, ok := fc.litCtx[n]; ok {
			fc.walkLit(n, pre)
			return
		}
		// Unclassified literal: it runs wherever the enclosing code
		// hands it, which we cannot see — inherit the enclosing
		// context (a literal built inside a shard closure usually runs
		// there too).
		inner := ctx
		if inner.lit == nil {
			inner.lit = n
		}
		fc.walkLit(n, inner)
		return
	case *ast.AssignStmt:
		if ctx.kind == ctxShard && !fc.collecting {
			for _, lhs := range n.Lhs {
				fc.checkWrite(lhs, ctx)
			}
		}
		if ctx.kind == ctxShard && fc.collecting {
			fc.collectSlots(ctx, n.Lhs...)
		}
		for _, r := range n.Rhs {
			fc.walk(r, ctx)
		}
		for _, l := range n.Lhs {
			fc.walk(l, ctx)
		}
		return
	case *ast.IncDecStmt:
		if ctx.kind == ctxShard && !fc.collecting {
			fc.checkWrite(n.X, ctx)
		}
		if ctx.kind == ctxShard && fc.collecting {
			fc.collectSlots(ctx, n.X)
		}
		fc.walk(n.X, ctx)
		return
	case *ast.IndexExpr:
		if ctx.kind == ctxShard && !fc.collecting {
			fc.checkSlotAccess(n, ctx)
			if fc.checkForeignHome(n, ctx) {
				fc.walk(n.Index, ctx)
				return
			}
		}
		// Indexing is the sanctioned way to touch a slot slice, so the
		// base ident is exempt from the whole-capture check.
		if _, plain := ast.Unparen(n.X).(*ast.Ident); !plain {
			fc.walk(n.X, ctx)
		}
		fc.walk(n.Index, ctx)
		return
	case *ast.SelectorExpr:
		if ctx.kind == ctxShard && !fc.collecting && fc.checkForeignHome(n, ctx) {
			return
		}
		fc.walk(n.X, ctx)
		return
	case *ast.Ident:
		if ctx.kind == ctxShard && !fc.collecting && fc.o.pass.TypesInfo.Uses[n] != nil {
			if !fc.checkWholeSlotCapture(n, ctx) {
				fc.checkForeignHome(n, ctx)
			}
		}
		return
	}
	// Generic traversal for everything else.
	seen := false
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if !seen {
			seen = true // skip n itself
			return true
		}
		fc.walk(c, ctx)
		return false
	})
}

func (fc *funcCheck) walkLit(lit *ast.FuncLit, ctx context) {
	if ctx.lit == nil {
		ctx.lit = lit
	}
	if ctx.home.kind == workerHome && ctx.lit == lit {
		ctx.home.text = indexParam(lit)
	}
	fc.walk(lit.Body, ctx)
}

// indexParam names an exec.Map worker's index parameter ("" when it
// has none, so no slot is its own).
func indexParam(lit *ast.FuncLit) string {
	if params := lit.Type.Params.List; len(params) > 0 && len(params[0].Names) > 0 {
		return params[0].Names[0].Name
	}
	return ""
}

func (fc *funcCheck) report(pos token.Pos, format string, args ...any) {
	if fc.reported[pos] {
		return
	}
	fc.reported[pos] = true
	fc.o.pass.Reportf(pos, format, args...)
}

// collectSlots infers per-rank slot slices: a local of the enclosing
// function written at exactly the context's own index inside a shard
// closure is a slot.
func (fc *funcCheck) collectSlots(ctx context, lhss ...ast.Expr) {
	for _, lhs := range lhss {
		ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			continue
		}
		obj := fc.localBase(ix.X, ctx)
		if obj == nil {
			continue
		}
		if exprText(ix.Index) == ctx.home.text {
			fc.slots[obj] = true
		}
	}
}

// localBase resolves x to a local of the enclosing function captured
// by the context's closure (declared inside fd but outside ctx.lit).
func (fc *funcCheck) localBase(x ast.Expr, ctx context) types.Object {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return nil
	}
	info := fc.o.pass.TypesInfo
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Pos() < fc.fd.Pos() || v.Pos() > fc.fd.End() {
		return nil // package-level or foreign
	}
	if ctx.lit != nil && v.Pos() >= ctx.lit.Pos() && v.Pos() <= ctx.lit.End() {
		return nil // the closure's own local
	}
	return obj
}

// checkWrite enforces the window-barrier-global rule inside checked
// contexts: captured locals of the enclosing function may be read but
// not written (slot writes are checked by index instead).
func (fc *funcCheck) checkWrite(lhs ast.Expr, ctx context) {
	if ctx.home.kind == workerHome {
		fc.checkWorkerWrite(lhs, ctx)
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := fc.localBase(l, ctx); obj != nil {
			fc.reportCapturedWrite(l.Pos(), l.Name, ctx)
		}
	case *ast.IndexExpr:
		obj := fc.localBase(l.X, ctx)
		if obj == nil || fc.slots[obj] && exprText(l.Index) == ctx.home.text {
			return // not captured, or the context's own slot
		}
		if fc.slots[obj] {
			fc.report(l.Pos(), "write to per-rank slot %s[%s] from %s; "+
				"cross-shard updates must go through Group.Post or Group.ScheduleGlobal",
				baseName(l.X), exprText(l.Index), ctx.where())
			return
		}
		fc.reportCapturedWrite(l.Pos(), baseName(l.X), ctx)
	}
}

// checkWorkerWrite follows an exec.Map worker's store through
// selectors, dereferences and indexes to its base variable. A captured
// base is reported unless the chain passes through the worker's own
// slot (out[i], out[i].f, grid[i][k]): a field of a captured struct or
// receiver, a store through a captured pointer and another index's
// element are all memory the other workers share.
func (fc *funcCheck) checkWorkerWrite(lhs ast.Expr, ctx context) {
	for x := lhs; ; {
		switch l := x.(type) {
		case *ast.ParenExpr:
			x = l.X
		case *ast.StarExpr:
			x = l.X
		case *ast.SelectorExpr:
			x = l.X
		case *ast.IndexExpr:
			if exprText(l.Index) == ctx.home.text {
				return // the worker's own slot
			}
			x = l.X
		case *ast.Ident:
			if fc.localBase(l, ctx) != nil {
				fc.reportCapturedWrite(lhs.Pos(), l.Name, ctx)
			}
			return
		default:
			return
		}
	}
}

// reportCapturedWrite reports a write to a captured local: a shard
// closure writing coordinator state, or an exec.Map worker writing
// anything but its own slot.
func (fc *funcCheck) reportCapturedWrite(pos token.Pos, name string, ctx context) {
	if ctx.home.kind == workerHome {
		fc.report(pos, "exec.Map worker writes captured variable %s; workers may only write "+
			"their own index's slot — return the value or use the result slice", name)
		return
	}
	fc.report(pos, "write to %q, a captured local of the enclosing function, from %s; "+
		"shard closures may read coordinator state but writes must go through Group.ScheduleGlobal",
		name, ctx.where())
}

// checkSlotAccess reports reads of a per-rank slot at a foreign index.
func (fc *funcCheck) checkSlotAccess(ix *ast.IndexExpr, ctx context) {
	obj := fc.localBase(ix.X, ctx)
	if obj == nil || !fc.slots[obj] || exprText(ix.Index) == ctx.home.text {
		return
	}
	if ctx.home.kind == workerHome {
		fc.report(ix.Pos(), "exec.Map worker for index %s reads %s[%s], another index's slot, "+
			"while that index's worker may be writing it; read it after exec.Map returns",
			ctx.home.text, baseName(ix.X), exprText(ix.Index))
		return
	}
	fc.report(ix.Pos(), "access to per-rank slot %s[%s] from %s; "+
		"cross-shard reads belong in a Group.ScheduleGlobal barrier global",
		baseName(ix.X), exprText(ix.Index), ctx.where())
}

// checkWholeSlotCapture reports a slot slice used as a value (ranged,
// passed, aliased) inside a shard closure; len/cap and indexing are
// fine, the whole slice is not.
func (fc *funcCheck) checkWholeSlotCapture(id *ast.Ident, ctx context) bool {
	obj := fc.o.pass.TypesInfo.Uses[id]
	if obj == nil || !fc.slots[obj] {
		return false
	}
	if fc.localBase(id, ctx) == nil {
		return false
	}
	if ctx.home.kind == workerHome {
		fc.report(id.Pos(), "exec.Map worker for index %s uses slot slice %q as a whole, "+
			"while the other workers write its slots; index it with %s or use it after exec.Map returns",
			ctx.home.text, id.Name, ctx.home.text)
		return true
	}
	fc.report(id.Pos(), "per-rank slot slice %q captured as a whole in %s; "+
		"index it with the owning rank or move the aggregate into a barrier global",
		id.Name, ctx.where())
	return true
}

// checkCall reports scheduling on a foreign shard's engine; true means
// the receiver subtree was covered by the report.
func (fc *funcCheck) checkCall(call *ast.CallExpr, ctx context) bool {
	if ctx.kind != ctxShard || fc.collecting {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if !isSimType(fc.o.typeOf(sel.X), "Engine") || !schedulingMethods[sel.Sel.Name] {
		return false
	}
	h, ok := fc.homeOf(sel.X)
	if !ok || h.kind != ctx.home.kind || h.text == ctx.home.text {
		return false
	}
	fc.report(call.Pos(), "%s on the engine owned by %s %s from %s; "+
		"cross-shard events must go through Group.Post",
		sel.Sel.Name, h.kind, h.text, ctx.where())
	return true
}

// checkForeignHome reports any use of a rank-owned handle whose owner
// is not the context's — the shape of the PR 7 rendezvous collision.
// True means the subtree is covered and need not be walked.
func (fc *funcCheck) checkForeignHome(x ast.Expr, ctx context) bool {
	h, ok := fc.homeOf(x)
	if !ok || h.kind != ctx.home.kind || h.text == ctx.home.text {
		return false
	}
	fc.report(x.Pos(), "access to state owned by %s %s from %s; "+
		"route it through Group.Post or the two-stage netsim Send/Accept booking",
		h.kind, h.text, ctx.where())
	return true
}

func baseName(x ast.Expr) string {
	if id, ok := ast.Unparen(x).(*ast.Ident); ok {
		return id.Name
	}
	return exprText(x)
}
