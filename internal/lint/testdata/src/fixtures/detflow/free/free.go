// Package free shows detflow's allowances outside the deterministic
// packages: no source is banned, and wall-clock use for operator
// feedback and exported returns are legal here, while encoders stay
// sinks module-wide.
package free

import (
	"encoding/json"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"
)

// WallClock returns every banned source from an exported function —
// fine here: front-ends may time themselves and read their environment.
func WallClock() (time.Time, int, string) {
	return time.Now(), rand.Intn(10), os.Getenv("HOME")
}

// Elapsed returns a wall-clock duration from an exported function —
// fine here, because this package makes no determinism promise.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

// LogDone logs the wall clock; the log package is always exempt.
func LogDone() {
	log.Printf("done at %v", time.Now())
}

// Dump shows that JSON encoding is a sink everywhere: encoded bytes
// are results no matter which package produces them.
func Dump(m map[string]int) ([]byte, error) {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return json.Marshal(ks) // want `map iteration order`
}

// DumpSorted is the sanitized version of the same encoding.
func DumpSorted(m map[string]int) ([]byte, error) {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return json.Marshal(ks)
}
