// Package offset exercises rangecheck's offset-from-Now() domain: seeded
// variants of the engine past-event panic (arrivals and schedules
// provably before Now()), window bookings that cannot clear the
// horizon, bookings provably below a known group lookahead, fabric
// bookings in the past, offsets composed through a same-package
// helper, and the //lint:allow escape hatch — each beside the clean
// forward-looking shape that must stay quiet.
package offset

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ---- window sites: Group.Post / Group.ScheduleGlobal ----

func postInPast(g *sim.Group) {
	g.Post(1, g.Now().Add(-5), 0, 0, func() {}) // want `cross-shard \(sim\.Group\)\.Post books an event provably before Now\(\) \(offset interval \[-5, -5\]\); it can never clear the window horizon`
}

func belowLookahead() {
	g := sim.NewGroup(4, 100)
	g.Post(1, g.Now().Add(50), 0, 0, func() {})  // want `cross-shard \(sim\.Group\)\.Post books an event only \[50, 50\] past Now\(\), below the group's lookahead \[100, 100\]; the window-barrier contract panics at run time`
	g.Post(1, g.Now().Add(150), 0, 0, func() {}) // clean: one full lookahead past now
}

func globalBookings(g *sim.Group) {
	g.ScheduleGlobal(g.Now().Add(-7), 0, func() {})  // want `\(sim\.Group\)\.ScheduleGlobal books an event provably before Now\(\)`
	g.ScheduleGlobal(g.Now(), 0, func() {})          // clean: setup-time globals book the first tick at Now()
	g.ScheduleGlobal(g.Now().Add(200), 0, func() {}) // clean
}

func negativeConstant(g *sim.Group) {
	g.ScheduleGlobal(-5, 0, func() {})  // want `\(sim\.Group\)\.ScheduleGlobal books an event provably before Now\(\) \(offset interval \(-inf, -5\]\)`
	g.ScheduleGlobal(500, 0, func() {}) // clean: an absolute stamp may or may not clear the horizon
}

// ---- past-event sites: the engine.go:80 contract ----

func pastArrival(e *sim.Engine) {
	e.PostArrival(e.Now().Add(-3), 0, 0, func() {}) // want `\(sim\.Engine\)\.PostArrival schedules an event provably before Now\(\) \(offset interval \[-3, -3\]\); the engine's past-event guard panics at run time`
	e.PostArrival(e.Now(), 0, 0, func() {})         // clean: arrival at now is legal
}

func schedulePast(e *sim.Engine) {
	t := e.Now()
	e.Schedule(t.Add(-1), func() {}) // want `\(sim\.Engine\)\.Schedule schedules an event provably before Now\(\)`
	e.Schedule(t, func() {})         // clean
	// A negative constant also breaks the absolute domain's nonnegative
	// event-time contract; only the offset finding is reported.
	e.Schedule(-1, func() {}) // want `^\(sim\.Engine\)\.Schedule schedules an event provably before Now\(\) \(offset interval \(-inf, -1\]\)`
}

// backdated composes an offset through a same-package helper; its
// summary carries [-2, -2] to every caller.
func backdated(e *sim.Engine) sim.Time {
	return e.Now().Add(-2)
}

func viaHelper(e *sim.Engine) {
	e.Schedule(backdated(e), func() {}) // want `\(sim\.Engine\)\.Schedule schedules an event provably before Now\(\)`
}

func convertedStamp(e *sim.Engine, raw int64) {
	if raw < 0 {
		e.Schedule(sim.Time(raw), func() {}) // want `\(sim\.Engine\)\.Schedule schedules an event provably before Now\(\)`
	}
	e.Schedule(sim.Time(raw), func() {}) // clean: nothing is known about raw here
}

// ---- fabric bookings ----

func bookPast(sw *netsim.Tree, e *sim.Engine) {
	now := e.Now()
	sw.Send(0, 1, 4096, now.Add(-10)) // want `\(netsim\.Tree\)\.Send schedules an event provably before Now\(\)`
	_, arrive := sw.Send(0, 1, 4096, now)
	sw.Accept(0, 1, 4096, arrive) // clean: the fabric only moves time forward
}

// ---- suppression ----

func replayArrival(e *sim.Engine) {
	e.PostArrival(e.Now().Add(-1), 0, 0, func() {}) //lint:allow rangecheck (replay fixture: re-delivers a recorded past arrival)
}
