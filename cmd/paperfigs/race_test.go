//go:build race

package main

// raceEnabled reports a race-detector build, which runs the default
// reproduction about 18 times slower.
const raceEnabled = true
