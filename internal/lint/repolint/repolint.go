// Package repolint assembles the repository's analyzer suite. The
// cmd/repolint multichecker and the repo-wide clean-lint meta-tests
// call All() for exactly the same list, so adding an analyzer to the
// registry here is the single step that wires it into every gate — and
// no driver can end up running a private subset, which is what let a
// suppression name a registered-but-never-loaded analyzer before the
// inventory test caught it.
package repolint

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/detflow"
	"repro/internal/lint/erraudit"
	"repro/internal/lint/floateq"
	"repro/internal/lint/hotalloc"
	"repro/internal/lint/panicfree"
	"repro/internal/lint/rangecheck"
	"repro/internal/lint/shardown"
	"repro/internal/lint/typestate"
	"repro/internal/lint/unitsafety"
)

// registry is the full repolint suite, in reporting order: the three
// intra-function gates from v1, the v2 error audit, the v3
// flow-sensitive gates built on internal/lint/dataflow, the v5
// shard-ownership gate (which also polices exec.Map workers and, over
// internal/lint/callgraph, package-level writes) and API-protocol gate
// for the parallel core, and the v6 numeric range gate built on the
// interval abstract domain (dataflow.RunIntervals).
var registry = []*analysis.Analyzer{
	floateq.Analyzer,
	unitsafety.Analyzer,
	panicfree.Analyzer,
	erraudit.Analyzer,
	detflow.Analyzer,
	hotalloc.Analyzer,
	shardown.Analyzer,
	typestate.Analyzer,
	rangecheck.Analyzer,
}

// All returns the registered analyzers in reporting order. The slice
// is a copy: a driver reordering or subsetting its run cannot perturb
// the registry other drivers see.
func All() []*analysis.Analyzer {
	out := make([]*analysis.Analyzer, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}
