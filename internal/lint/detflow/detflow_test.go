package detflow_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/detflow"
)

// TestDetflow runs the fixtures: a simulator package where every banned
// source is reported at its call site, a deterministic result package
// (the acceptance case — a map-range value reaching an exported result
// is reported, the same value passed through a sort is not), a package
// under internal/mpi that the ban covers like the kernel, a command
// whose emitted output is a sink, and a free package where banned
// sources, logging, and wall-clock returns are legal.
func TestDetflow(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, dir, detflow.Analyzer,
		"repro/internal/sim/fixture",
		"repro/internal/report/detfixture",
		"repro/internal/mpi/detfixture",
		"repro/cmd/detcmd",
		"fixtures/detflow/free",
	)
}
