// Package detfixture exercises detflow's result sinks: it mimics a
// deterministic-result package (its import path sits under
// repro/internal/report), where the return value of every exported
// function must be a pure function of (config, seed).
package detfixture

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// UnsortedKeys is the canonical finding: a map-range value reaches an
// exported result, so callers see a different order every run.
func UnsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out // want `map iteration order`
}

// SortedKeys is the same flow passed through a sanitizer: sorting kills
// the taint, so collecting keys and ordering them before returning is
// provably deterministic — no suppression needed.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Timestamp reads the wall clock, which a deterministic package may
// not do at all: the call itself is the finding.
func Timestamp() string {
	return time.Now().String() // want `wall clock via time\.Now`
}

// LogKeys writes map-ordered keys for stderr logging only, which is
// legal without any suppression: stderr is not a result sink.
func LogKeys(m map[string]int) {
	fmt.Fprintf(os.Stderr, "keys %v\n", keys(m))
}

// keys is an unexported helper; its return is not itself a sink, but
// its summary records the internal map-order taint...
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// ViaHelper shows the taint composing interprocedurally: the helper's
// summary carries the map-order provenance to this exported result.
func ViaHelper(m map[string]int) []string {
	return keys(m) // want `map iteration order`
}

// ViaHelperSorted sanitizes the helper's tainted result before
// returning it, which the flow analysis accepts.
func ViaHelperSorted(m map[string]int) []string {
	out := keys(m)
	sort.Strings(out)
	return out
}
