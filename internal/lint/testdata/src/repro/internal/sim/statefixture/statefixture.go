// Package statefixture exercises shardown's simulator-package rooting
// rule: it lives under repro/internal/sim/, so every exported function
// is treated as reachable from a concurrently running simulation cell
// and must not touch package-level state unsynchronized — no exec.Map
// call in sight.
package statefixture

import "sync"

var (
	tick  int
	mu    sync.Mutex
	safe  int
	local int
)

// Step is exported, so it is a hot-path root.
func Step() {
	tick++ // want `unsynchronized write to package-level variable tick`
}

// Advance is exported and reaches the write through a helper.
func Advance() {
	bump()
}

func bump() {
	tick += 2 // want `unsynchronized write to package-level variable tick`
}

// Guarded takes the lock first.
func Guarded() {
	mu.Lock()
	defer mu.Unlock()
	safe++
}

// Suppressed documents a deliberate exception.
func Suppressed() {
	local = 1 //lint:allow shardown (single-threaded init path, set before any cell starts)
}

// unexportedScratch is not a root and nothing exported reaches it, so
// its write is not on any hot path.
func unexportedScratch() {
	local++
}
