// Package sim implements a deterministic process-oriented discrete-event
// simulation kernel. It provides a virtual clock, an event queue, and
// lightweight simulated processes, plus their coordination primitives:
// sleeping and conditions.
//
// Each process body runs on an iter.Pull coroutine, one at a time under
// the engine's control: the engine resumes a body and the body hands
// control back when it blocks or ends, each a direct goroutine switch
// that bypasses the Go scheduler. Coroutines are pooled per engine, so
// a process started after another one finished reuses its coroutine.
// Run ends the idle coroutines when it returns; Close unwinds the
// processes still parked. A body that calls runtime.Goexit (t.FailNow
// in a test) unwinds the goroutine that called Run.
//
// A Cond's zero value is ready to use, and its first waiter needs no
// allocation; signal it only on its waiters' shard, and do not copy it
// after first use. Code that waits as events rather than as a process
// counts the wait with Engine.Block, so a deadlock still shows.
//
// The kernel is the substrate for the cluster, network, MPI, and power
// models in this repository. All of those express behaviour as processes
// that consume virtual time; none of them use wall-clock time, so every
// simulation run is exactly reproducible.
package sim

import "fmt"

// Time is an absolute instant on the simulation clock, in nanoseconds
// since the start of the simulation. The zero Time is the simulation
// epoch.
type Time int64

// Duration is a span of simulated time in nanoseconds. Unlike
// time.Duration it never refers to wall-clock time.
type Duration int64

// Convenient duration units. These mirror the time package but are
// distinct types so simulated and real durations cannot be mixed up.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the instant as a floating-point number of seconds
// since the simulation epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration as seconds with microsecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// DurationOf converts a floating-point number of seconds into a Duration,
// rounding to the nearest nanosecond. It is the inverse of
// Duration.Seconds and is used by cost models that compute times as
// real-valued expressions (e.g. bytes/bandwidth).
func DurationOf(seconds float64) Duration {
	if seconds <= 0 {
		return 0
	}
	return Duration(seconds*float64(Second) + 0.5)
}
