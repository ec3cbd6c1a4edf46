package main

import "testing"

// TestPaperBands runs the quick reproduction and holds every headline
// quantity to its paper band, so a change that drifts a figure inside
// its shape still fails go test. The check and divergence counts are
// pinned: adding or retiring a band is a deliberate edit here too.
func TestPaperBands(t *testing.T) {
	cs, err := checks(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 26 {
		t.Errorf("%d checks, want 26", len(cs))
	}
	if n := countDivergences(cs); n != 3 {
		t.Errorf("%d documented divergences, want 3", n)
	}
	for _, c := range cs {
		if c.verdict() == "FAIL" {
			t.Errorf("%s: measured %.4f outside [%g, %g] (paper %s)", c.name, c.measured, c.lo, c.hi, c.paper)
		}
	}
}
