package shardown_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/shardown"
)

// testdata is the lint suite's shared fixture tree.
func testdata(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestShardown runs the shard fixture package: each ownership rule's
// seeded violation (foreign slot access, cross-shard scheduling, captured
// coordinator writes, and the reconstructed mpi rendezvous collision)
// next to the clean shapes — own-index slot writes, engine aliases,
// annotated relays, coordinator globals — that must stay quiet.
func TestShardown(t *testing.T) {
	analysistest.Run(t, testdata(t), shardown.Analyzer, "fixtures/shardown")
}

// TestShardownSharedState runs the exec.Map worker fixtures: captured
// writes, mutex-guarded or not, through fields, pointers and other
// indexes' elements; reads of another index's slot; package-level
// writes a worker reaches; and the package-level writes an exported
// function of a simulator package reaches.
func TestShardownSharedState(t *testing.T) {
	analysistest.Run(t, testdata(t), shardown.Analyzer,
		"fixtures/sharedstate",
		"repro/internal/sim/statefixture",
	)
}
