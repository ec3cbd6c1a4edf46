//go:build race

package main

// raceEnabled reports a race-detector build, under which the tests
// skip the 256-rank workloads.
const raceEnabled = true
