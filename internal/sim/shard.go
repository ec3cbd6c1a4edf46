package sim

// Conservative parallel discrete-event coordination. A Group owns K
// engines ("shards") and advances them concurrently in lookahead
// windows: if every cross-shard interaction is delivered at least L
// (the lookahead, derived from the minimum network link latency) after
// it was sent, then all events earlier than
//
//	H = min(next event time across shards) + L
//
// are causally independent across shards and can execute in parallel.
// The Group repeatedly computes H, fans the active shards out on the
// internal/exec pool, barriers, drains the cross-shard inboxes, and
// repeats. Determinism does not come from the windows — it comes from
// the event keys: arrivals carry a (source port, source sequence)
// priority that totally orders them regardless of drain order, so the
// same simulation produces byte-identical results at any shard count,
// including K=1 (which runs the identical windowed protocol inline,
// without worker goroutines).

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/exec"
)

// maxTime is an unreachable horizon sentinel.
const maxTime = Time(1<<63 - 1)

// arrival is one cross-shard event parked in an inbox until the next
// window barrier.
type arrival struct {
	t   Time
	src int
	seq uint64
	fn  func()
}

// inbox buffers arrivals posted to one shard while windows are running.
// Padding would be overkill: each inbox is touched once per cross-shard
// message, under its own mutex.
type inbox struct {
	mu  sync.Mutex
	evs []arrival
}

// Group coordinates a set of shard engines under a common conservative
// lookahead. All methods except Post and ScheduleGlobal must be called
// from the coordinating goroutine (the one that calls Run); Post and
// ScheduleGlobal may additionally be called from inside shard events.
type Group struct {
	engines []*Engine
	look    Duration
	inboxes []inbox

	// globals holds coordinator events: callbacks that need a consistent
	// view of every shard (figure snapshots, power-strip sampling,
	// completion checks). They run between windows, on the coordinating
	// goroutine, with all shard clocks advanced to their timestamp.
	// Globals must not resume or unblock simulated processes — they are
	// observers, and the deadlock check assumes they cannot wake anyone.
	globals eventHeap
	gmu     sync.Mutex
	gseq    uint64

	horizon Time // all shards have fully executed events before this time
	active  []int
	closed  bool
}

// NewGroup builds a group of shards engines sharing lookahead window
// size look. shards must be at least 1 and look strictly positive: a
// zero lookahead admits no window at all.
//
//lint:range shards [1,inf]
//lint:range look [1,inf]
func NewGroup(shards int, look Duration) *Group {
	if shards < 1 {
		panic("sim: NewGroup needs at least one shard") //lint:allow panicfree (constructor misuse; shard count is fixed at build time)
	}
	if look <= 0 {
		panic("sim: NewGroup needs a positive lookahead") //lint:allow panicfree (constructor misuse; lookahead is fixed at build time)
	}
	g := &Group{
		engines: make([]*Engine, shards),
		look:    look,
		inboxes: make([]inbox, shards),
	}
	for i := range g.engines {
		g.engines[i] = NewEngine()
		g.engines[i].shardTag = fmt.Sprintf(" (shard %d)", i)
	}
	return g
}

// Size reports the number of shards.
func (g *Group) Size() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Lookahead reports the conservative window size.
func (g *Group) Lookahead() Duration { return g.look }

// Now reports the group horizon: every shard has executed all events
// strictly before this time.
func (g *Group) Now() Time { return g.horizon }

// Post delivers a cross-shard event: fn runs on shard's engine at time
// t, ordered by the shard-count-invariant (t, src, seq) arrival key.
// It is safe to call from any shard while windows are running. The
// lookahead contract requires t to be at least one lookahead past the
// sender's current time; violations surface as past-time panics when
// the inbox is drained.
func (g *Group) Post(shard int, t Time, src int, seq uint64, fn func()) {
	in := &g.inboxes[shard]
	in.mu.Lock()
	in.evs = append(in.evs, arrival{t: t, src: src, seq: seq, fn: fn})
	in.mu.Unlock()
}

// ScheduleGlobal arranges for fn to run on the coordinating goroutine
// at time t with every shard stopped at exactly t. It is safe to call
// from inside shard events; scheduling from shard context at the
// sender's now + Lookahead() (or later) is always in the future.
// Globals due at the same time run ordered by pri (then by schedule
// order). Concurrent shards racing to schedule at the same (t, pri)
// would make the tie-break nondeterministic, so every independent
// source of same-time globals must use its own priority — distinct
// (t, pri) pairs give a total order that is identical at any shard
// count.
func (g *Group) ScheduleGlobal(t Time, pri uint64, fn func()) {
	g.gmu.Lock()
	if t < g.horizon {
		g.gmu.Unlock()
		panic(fmt.Sprintf("sim: ScheduleGlobal at %v before horizon %v (lookahead %v)", t, g.horizon, g.look)) //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
	}
	g.gseq++
	ev := event{t: t, pri: pri, seq: g.gseq, kind: evCall, fn: fn}
	g.globals.push(&ev)
	g.gmu.Unlock()
}

// drain moves every parked arrival into its shard's event heap. Called
// only between windows, so the inbox mutexes are uncontended. The
// lookahead contract is re-checked here, where the full window context
// is in hand: a violation names the shard, the offending event time,
// the window horizon, and the group lookahead, instead of the bare
// past-time panic the engine itself would raise.
func (g *Group) drain() {
	for i := range g.inboxes {
		in := &g.inboxes[i]
		in.mu.Lock()
		for _, a := range in.evs {
			if a.t < g.engines[i].Now() {
				g.lookaheadPanic(i, a)
			}
			g.engines[i].PostArrival(a.t, a.src, a.seq, a.fn)
		}
		in.evs = in.evs[:0]
		in.mu.Unlock()
	}
}

// lookaheadPanic reports a drained arrival that lands before its
// shard's clock, with the full window context. Kept as a panic-only
// helper so drain stays allocation-free on the hot coordinator path.
func (g *Group) lookaheadPanic(shard int, a arrival) {
	panic(fmt.Sprintf("sim: lookahead contract violated: arrival for shard %d at %v is before shard now %v (window horizon %v, lookahead %v, src shard %d, seq %d)", //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
		shard, a.t, g.engines[shard].Now(), g.horizon, g.look, a.src, a.seq))
}

// minNextEvent reports the earliest pending event time across shards.
func (g *Group) minNextEvent() (Time, bool) {
	m, any := maxTime, false
	for _, e := range g.engines {
		if t, ok := e.NextEventTime(); ok && t < m {
			m, any = t, true
		}
	}
	return m, any
}

func (g *Group) blockedTotal() int {
	n := 0
	for _, e := range g.engines {
		n += e.Blocked()
	}
	return n
}

func (g *Group) advanceAll(t Time) {
	for _, e := range g.engines {
		e.AdvanceTo(t)
	}
	if t > g.horizon {
		g.horizon = t
	}
}

// window executes all events strictly before h on every shard that has
// one. A single active shard runs inline; otherwise the active shards
// fan out on the exec pool, one worker slot per shard. The pool's
// barrier is also the memory barrier: everything a shard wrote in this
// window is visible to every shard in the next one.
//
//lint:hotpath the window loop runs a few thousand times per simulation
func (g *Group) window(h Time) error {
	g.active = g.active[:0]
	for i, e := range g.engines {
		if t, ok := e.NextEventTime(); ok && t < h {
			g.active = append(g.active, i) //lint:allow hotalloc (amortized growth; the active buffer is reused across windows)
		}
	}
	switch len(g.active) {
	case 0:
		return nil
	case 1:
		return g.engines[g.active[0]].RunUntil(h)
	}
	_, err := exec.Map(len(g.active), len(g.active), func(i int) (struct{}, error) { //lint:allow hotalloc (one closure per window, not per event)
		return struct{}{}, g.engines[g.active[i]].RunUntil(h)
	})
	return err
}

// runGlobals pops and runs every global event due exactly at t, in
// (pri, schedule) order. A global may schedule further globals,
// including at the same t.
func (g *Group) runGlobals(t Time) {
	for {
		g.gmu.Lock()
		if g.globals.Len() == 0 || g.globals.peek().t != t {
			g.gmu.Unlock()
			return
		}
		ev := g.globals.pop()
		g.gmu.Unlock()
		ev.fn()
	}
}

// Run advances the whole group until every shard's queue and the global
// queue drain, or until limit is reached (limit <= 0 means run to
// exhaustion): events at t <= limit execute, and the clocks stop at
// limit. It returns the final horizon. If the queues drain while
// processes remain blocked, Run returns ErrDeadlock. Like Engine.Run it
// ends every shard's idle coroutines when it returns; shards keep them
// across windows.
//
//lint:hotpath the coordinator loop runs once per lookahead window
func (g *Group) Run(limit Time) (Time, error) {
	if g.closed {
		return g.horizon, errors.New("sim: group is closed")
	}
	defer g.releaseIdle()
	for {
		g.drain()
		m, any := g.minNextEvent()
		var gt Time
		g.gmu.Lock()
		anyG := g.globals.Len() > 0
		if anyG {
			gt = g.globals.peek().t
		}
		g.gmu.Unlock()
		if !any {
			if n := g.blockedTotal(); n > 0 {
				return g.horizon, fmt.Errorf("%w (%d blocked)", ErrDeadlock, n) //lint:allow hotalloc (deadlock exit path, runs at most once per Run)
			}
			if !anyG {
				return g.horizon, nil
			}
		}
		if limit > 0 && (!any || m > limit) && (!anyG || gt > limit) {
			g.advanceAll(limit)
			return g.horizon, nil
		}
		h := maxTime
		if any {
			h = m.Add(g.look)
		}
		runG := false
		if anyG && gt <= h && (limit <= 0 || gt <= limit) {
			h = gt
			runG = true
		}
		if limit > 0 && h > limit {
			// The horizon overshoots the limit but events at or before the
			// limit remain; they are all inside the lookahead window, so run
			// them and park the clocks at the limit.
			if err := g.window(limit + 1); err != nil {
				return g.horizon, err
			}
			g.advanceAll(limit)
			continue
		}
		if err := g.window(h); err != nil {
			return g.horizon, err
		}
		g.advanceAll(h)
		if runG {
			g.runGlobals(h)
		}
	}
}

// releaseIdle ends every shard's idle coroutines.
func (g *Group) releaseIdle() {
	for _, e := range g.engines {
		e.releaseIdle()
	}
}

// Close terminates every live process on every shard and marks the
// group unusable. Idempotent.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, e := range g.engines {
		e.Close()
	}
}
