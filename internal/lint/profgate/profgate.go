// Package profgate defines the profile-guided perf-gate analyzer. The
// hotalloc analyzer enforces allocation-freedom on everything reachable
// from a //lint:hotpath annotation — but the annotations themselves
// were hand-placed, so two failure modes rot silently: a function that
// benchmark CPU profiles show to be hot but that no annotated root
// reaches (the allocation gate is not guarding it), and an annotated
// subtree that no profile touches anymore (enforcement effort pinned to
// a path that stopped being hot). profgate closes the loop: it parses
// the pprof CPU profiles that `make bench-profile` emits, attributes
// flat and cumulative samples to this package's declared functions
// (closure and inline frames fold into their declaring function), joins
// them against the //lint:hotpath reachability set from
// internal/lint/callgraph, and reports
//
//   - hot-but-unannotated functions: cumulative share ≥ the cum
//     threshold AND flat share ≥ the flat threshold in at least one
//     profile, yet not reachable from any annotated root. The flat
//     floor keeps high-level drivers (whose cumulative share is large
//     but who burn no CPU themselves) out of the report; the fix for
//     those lives in whichever callee holds the flat time.
//   - stale roots: an annotated root whose entire reachable subtree
//     stays below the cold threshold in every profile that otherwise
//     attributes samples to this package.
//
// Profiles are supplied out of band so the analyzer is a no-op in
// ordinary `make lint`/`go vet` runs: the REPOLINT_PROFILES environment
// variable names a directory of .pprof files or a comma-separated file
// list (see `make profgate`). Thresholds are the Default*Percent
// constants, percentages of the profile's total samples. Findings are
// suppressed with the usual grammar:
//
//	//lint:allow profgate (reason)
package profgate

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/lint/analysis"
	"repro/internal/lint/callgraph"
	"repro/internal/lint/hotalloc"
)

// Analyzer joins benchmark CPU profiles against //lint:hotpath
// reachability.
var Analyzer = &analysis.Analyzer{
	Name: "profgate",
	Doc: "join benchmark CPU profiles (REPOLINT_PROFILES) against //lint:hotpath " +
		"reachability: report hot functions no annotated root guards, and " +
		"annotated roots that are cold in every profile",
	Run: run,
}

// Thresholds, as percentages of a profile's total samples.
const (
	// DefaultCumPercent is the cumulative share at or above which a
	// function counts as hot.
	DefaultCumPercent = 5.0
	// DefaultFlatPercent is the flat (self) share a hot function must
	// also reach — drivers with big cumulative but ~zero self time are
	// not reported; their hot callees are.
	DefaultFlatPercent = 1.0
	// DefaultColdPercent is the cumulative share below which an
	// annotated subtree counts as cold.
	DefaultColdPercent = 0.5
)

// profiles are cached per source spec: the standalone driver runs the
// analyzer once per package of the module and must not re-read and
// re-decode the same files each time.
var (
	cacheMu sync.Mutex
	cache   = map[string][]*Profile{}
)

func run(pass *analysis.Pass) error {
	spec := os.Getenv("REPOLINT_PROFILES")
	if spec == "" {
		return nil
	}
	profs, err := loadProfiles(spec)
	if err != nil {
		return err
	}
	if len(profs) == 0 {
		return nil
	}

	var files []*ast.File
	for _, f := range pass.Files {
		if !analysis.IsTestFile(pass.Fset, f.Pos()) {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil
	}

	g := callgraph.Build(pass.Fset, files, pass.TypesInfo)
	roots, _ := hotalloc.FindRoots(pass, files, g) // dangling markers are hotalloc's report
	reached := g.Reachable(roots...)

	// Guarded covers a declared function when its node — or any literal
	// it lexically contains, transitively — is reachable from a root:
	// samples in a closure fold into the declaring function, so
	// reachability must fold the same way.
	guarded := make(map[string]bool)
	for node := range reached {
		guarded[canonName(topDecl(g, node).Name)] = true
	}

	// Attribute each profile to this package's functions.
	pkgPath := pass.Pkg.Path()
	type metrics struct{ flatPct, cumPct float64 }
	hottest := make(map[string]metrics) // decl -> best (cum-dominant) metrics over all profiles
	hotIn := make(map[string]string)    // decl -> profile name where thresholds were met
	covering := 0                       // profiles with ≥1 sample attributed to this package

	// Per-profile cumulative share for the stale-root check.
	perProfileCum := make([]map[string]float64, len(profs))

	for pi, p := range profs {
		flatBy, cumBy := attribute(p, pkgPath)
		if len(cumBy) == 0 {
			continue
		}
		covering++
		perProfileCum[pi] = make(map[string]float64, len(cumBy))
		for name, c := range cumBy {
			fPct := 100 * float64(flatBy[name]) / float64(p.Total)
			cPct := 100 * float64(c) / float64(p.Total)
			perProfileCum[pi][name] = cPct
			if cPct > hottest[name].cumPct {
				hottest[name] = metrics{flatPct: fPct, cumPct: cPct}
			}
			if cPct >= DefaultCumPercent && fPct >= DefaultFlatPercent && hotIn[name] == "" {
				hotIn[name] = p.Name
			}
		}
	}
	if covering == 0 {
		return nil // no profile exercises this package at all
	}

	// Hot-but-unannotated: report at the function's declaration.
	type finding struct {
		node *callgraph.Node
		name string
	}
	var hot []finding
	for _, node := range g.Nodes {
		if node.Decl == nil {
			continue
		}
		name := canonName(node.Name)
		prof := hotIn[name]
		if prof == "" || guarded[name] {
			continue
		}
		hot = append(hot, finding{node, name})
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].node.Decl.Pos() < hot[j].node.Decl.Pos() })
	for _, f := range hot {
		m := hottest[f.name]
		pass.Reportf(f.node.Decl.Pos(),
			"hot path not annotated: %s has %.1f%% cumulative (%.1f%% flat) CPU in profile %s "+
				"but is not reachable from any //lint:hotpath root; annotate it (or the caller that "+
				"owns this path) so hotalloc guards it",
			f.node.Name, m.cumPct, m.flatPct, hotIn[f.name])
	}

	// Stale roots: every covering profile leaves the root's whole
	// subtree below the cold threshold.
	for _, root := range roots {
		subtree := g.Reachable(root)
		stale := true
		for pi := range profs {
			if perProfileCum[pi] == nil {
				continue
			}
			for node := range subtree {
				if perProfileCum[pi][canonName(topDecl(g, node).Name)] >= DefaultColdPercent {
					stale = false
					break
				}
			}
			if !stale {
				break
			}
		}
		if stale {
			pos := root.Body.Pos()
			if root.Decl != nil {
				pos = root.Decl.Pos()
			}
			pass.Reportf(pos,
				"stale //lint:hotpath root: %s and everything it reaches stays below %.1f%% "+
					"cumulative CPU in all %d profile(s) covering %s; retire the annotation or "+
					"bench-profile the workload that exercises it",
				root.Name, DefaultColdPercent, covering, pkgPath)
		}
	}
	return nil
}

// loadProfiles resolves spec — a directory of .pprof files or a
// comma-separated list of files — and parses each profile once per
// process.
func loadProfiles(spec string) ([]*Profile, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := cache[spec]; ok {
		return p, nil
	}
	var paths []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		st, err := os.Stat(part)
		if err != nil {
			return nil, fmt.Errorf("REPOLINT_PROFILES: %v", err)
		}
		if st.IsDir() {
			entries, err := os.ReadDir(part)
			if err != nil {
				return nil, fmt.Errorf("REPOLINT_PROFILES: %v", err)
			}
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".pprof") {
					paths = append(paths, filepath.Join(part, e.Name()))
				}
			}
		} else {
			paths = append(paths, part)
		}
	}
	sort.Strings(paths)
	var profs []*Profile
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("REPOLINT_PROFILES: %v", err)
		}
		p, err := ParseProfile(filepath.Base(path), data)
		if err != nil {
			return nil, err
		}
		profs = append(profs, p)
	}
	cache[spec] = profs
	return profs, nil
}

// attribute computes flat and cumulative sample totals per declared
// function of pkgPath. Flat goes to the sample's leaf frame; cumulative
// counts each declared function once per sample it appears in.
func attribute(p *Profile, pkgPath string) (flat, cum map[string]int64) {
	flat = make(map[string]int64)
	cum = make(map[string]int64)
	seen := make(map[string]bool)
	for _, s := range p.Samples {
		if len(s.Stack) == 0 {
			continue
		}
		if name, ok := declOf(s.Stack[0], pkgPath); ok {
			flat[name] += s.Value
		}
		clear(seen)
		for _, sym := range s.Stack {
			name, ok := declOf(sym, pkgPath)
			if !ok || seen[name] {
				continue
			}
			seen[name] = true
			cum[name] += s.Value
		}
	}
	return flat, cum
}

// declOf maps one runtime symbol name to the canonical name of the
// declared function of pkgPath it belongs to, folding closures
// (".func1", nested ".func1.2"), method-value wrappers ("-fm"),
// goroutine/defer wrappers (".gowrap1", ".deferwrap1"), and generic
// instantiations ("[go.shape.int]") into their declaring function.
// ok is false for symbols of other packages and the runtime.
func declOf(sym, pkgPath string) (name string, ok bool) {
	prefix := pkgPath + "."
	if !strings.HasPrefix(sym, prefix) {
		return "", false
	}
	rest := stripBrackets(sym[len(prefix):])
	rest = strings.TrimSuffix(rest, "-fm")
	segs := strings.Split(rest, ".")
	for len(segs) > 1 && isWrapperSegment(segs[len(segs)-1]) {
		segs = segs[:len(segs)-1]
	}
	return canonName(strings.Join(segs, ".")), true
}

// isWrapperSegment reports whether a dot-separated symbol segment names
// a compiler-generated nested function rather than a declaration.
func isWrapperSegment(s string) bool {
	if s == "" {
		return true
	}
	for _, prefix := range []string{"func", "gowrap", "deferwrap"} {
		if n, found := strings.CutPrefix(s, prefix); found {
			if _, err := strconv.Atoi(n); err == nil {
				return true
			}
		}
	}
	_, err := strconv.Atoi(s)
	return err == nil
}

// stripBrackets removes generic instantiation arguments: a "[...]" span
// and everything inside it (bracket content may itself contain dots and
// brackets).
func stripBrackets(s string) string {
	if !strings.ContainsRune(s, '[') {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// canonName normalizes both runtime symbol suffixes and callgraph
// display names to one comparable form: receiver parentheses dropped,
// so runtime "(*Engine).Schedule" and "Time.Add" meet callgraph
// "(*Engine).Schedule" and "(Time).Add".
func canonName(name string) string {
	name = strings.ReplaceAll(name, "(", "")
	return strings.ReplaceAll(name, ")", "")
}

// topDecl walks containment up from a literal's node to the declared
// function whose body lexically holds it; callgraph names literals
// "Parent$n", so the declaration's name is the prefix before the first
// '$'. Declared nodes return themselves.
func topDecl(g *callgraph.Graph, node *callgraph.Node) *callgraph.Node {
	if node.Lit == nil {
		return node
	}
	base := node.Name
	if i := strings.IndexByte(base, '$'); i >= 0 {
		base = base[:i]
	}
	for _, n := range g.Nodes {
		if n.Decl != nil && n.Name == base {
			return n
		}
	}
	return node
}
