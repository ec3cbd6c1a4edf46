// Package detfixture sits under repro/internal/mpi, a simulator
// package outside the kernel: detflow's source ban covers every
// simulator package, so a wall-clock read returned from an exported
// function is reported here as it is in repro/internal/sim.
package detfixture

import "time"

// Stamp hands the wall clock to its callers as a message timestamp.
func Stamp() time.Time {
	return time.Now() // want `nondeterministic time\.Now in deterministic package repro/internal/mpi/detfixture`
}
