//go:build race

package mpi

// raceEnabled reports a race-detector build, whose runtime allocates on
// its own and so moves allocation counts.
const raceEnabled = true
