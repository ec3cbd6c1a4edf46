package rangecheck_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/rangecheck"
)

// TestRangecheck runs the fixture package: seeded violations of the
// built-in physics contracts (negative watts, unguarded IndexOf miss
// sentinels, degenerate subdivision/shard counts), declared
// //lint:range params and results, provably/possibly zero divisors,
// and directive hygiene — each beside the clean guarded shape that
// must stay quiet, plus one //lint:allow suppression. The offset
// fixture seeds the scheduling-site contracts: variants of the engine
// past-event panic (PostArrival/Schedule before Now()), window bookings
// at or before Now(), a booking provably below a known group lookahead,
// past fabric bookings, and a helper-composed offset, beside the clean
// forward-looking shapes.
func TestRangecheck(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, dir, rangecheck.Analyzer,
		"fixtures/rangecheck",
		"fixtures/rangecheck/offset",
	)
}
