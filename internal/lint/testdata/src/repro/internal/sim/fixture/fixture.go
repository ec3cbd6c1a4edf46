// Package fixture exercises detflow's call-site ban inside a
// deterministic package path (repro/internal/sim/...): wall-clock
// reads, global math/rand, and environment lookups must all be flagged
// where they are made, while seeded generators and suppressed lines
// must not.
package fixture

import (
	"math/rand"
	"os"
	"time"
)

// Bad demonstrates each forbidden nondeterminism source.
func Bad() (int, string, time.Time) {
	wall := time.Now()                 // want `nondeterministic time\.Now`
	n := rand.Intn(10)                 // want `globally-seeded math/rand\.Intn`
	env := os.Getenv("SEED")           // want `nondeterministic os\.Getenv`
	time.Sleep(time.Nanosecond)        // want `nondeterministic time\.Sleep`
	rand.Shuffle(0, func(i, j int) {}) // want `globally-seeded math/rand\.Shuffle`
	return n, env, wall
}

// Good shows the sanctioned pattern: an explicitly seeded generator.
func Good(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// Suppressed shows the escape hatch; the analyzer must stay silent.
func Suppressed() time.Time {
	return time.Now() //lint:allow detflow (measuring the host, not the simulation)
}

// TypeRefsAreFine proves that mentioning rand types (not the global
// functions) is legal.
func TypeRefsAreFine(r *rand.Rand, s rand.Source) *rand.Rand {
	_ = s
	return r
}
