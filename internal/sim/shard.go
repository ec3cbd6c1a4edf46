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
// The Group repeatedly computes H, runs the active shards, barriers,
// drains the cross-shard inboxes, and repeats. Every window also stops
// at the next coordinator global. With K=1 no other shard can post an
// arrival, so a window runs to the next global or the run's limit
// instead of H; a global that a shard event books inside such a window
// cuts it there (ScheduleGlobal lowers the engine's horizon), and Post
// enqueues on the engine at once. A group of more than one
// shard starts one persistent worker goroutine per extra shard when
// Run begins and joins them before Run returns. In each window the
// coordinating goroutine (the one that called Run) runs the first
// active shard itself and hands the others to workers by bumping
// per-worker epoch counters; both sides then wait at a barrier that
// spins on the epoch for a while and then blocks. Waits spin only
// while the goroutines of every multi-shard Run in the process fit on
// the GOMAXPROCS processors, so that the awaited side can run
// meanwhile; otherwise they block at once. Determinism does not come
// from the windows — it comes from the event keys: arrivals carry
// a (source port, source sequence) priority that totally orders them
// regardless of drain order, so the same simulation produces
// byte-identical results at any shard count, including K=1 (which runs
// inline, without workers, from global to global).

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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
	windows uint64 // windows run so far (see Windows)
	closed  bool
	running bool

	// workers run every active shard but the first in a window; they
	// live only while Run does (startWorkers, stopWorkers). procs is
	// GOMAXPROCS when this Run began; see spin.
	workers []shardWorker
	procs   int64
}

// spinLoads bounds a barrier wait's spin; it yields the processor
// every spinYield loads. Spinning burns CPU time, so it pays only when
// it outlasts the other side's typical wait: a window (about 140
// events, ~50 µs, in a 256-rank FT), or a run of windows that a
// worker's shard sits out. On 2 cores that FT on 2 shards ran slower
// with 2^14 loads (~18 µs) than with two new goroutines per window,
// because a worker blocked between windows and every release paid a
// wake-up, and 10% slower with 2^17 loads (~180 µs) than with 2^20
// (~1 ms). spin keeps a failed spin off processors that other shard
// goroutines need.
const (
	spinLoads = 1 << 20
	spinYield = 1 << 10
)

// shardGoroutines counts the goroutines of every multi-shard Run in
// progress in the process: each Run's coordinator and its workers. It
// is process-wide, like the GOMAXPROCS it is compared with, because
// the Runs that compete for the processors need share nothing else
// (campaign cells build their own groups); it decides only whether
// waits spin, never a result.
var shardGoroutines atomic.Int64

// spin reports how many times a barrier wait loads its epoch before it
// blocks. A spin pays only while the side it waits for has a processor
// of its own, so a wait spins only while the goroutines of every
// multi-shard Run in the process fit on the GOMAXPROCS processors this
// Run began with. Otherwise (at GOMAXPROCS 1, with more shards than
// processors, or with sharded simulations run side by side) it blocks
// at once.
func (g *Group) spin() int {
	if shardGoroutines.Load() > g.procs {
		return 0
	}
	return spinLoads
}

// latch carries one direction of a window handoff between the
// coordinator and a shard worker: signal publishes an epoch and await
// waits for it, one goroutine on each side. The waiter spins on the
// epoch, then blocks on cond. A signaller delayed between its store
// and cond.Signal can wake the waiter's next wait, one window later:
// every wait therefore re-checks the epoch after each wake. (A
// one-token channel cannot replace mu and cond: the Go memory model
// orders nothing by a non-blocking send dropped because a token is
// already there, so the waiter's re-check after taking that token
// could miss the new epoch.)
type latch struct {
	epoch atomic.Uint64
	mu    sync.Mutex
	cond  sync.Cond // L is &mu
}

// signal publishes epoch n and wakes the waiter if it has blocked.
func (l *latch) signal(n uint64) {
	l.epoch.Store(n)
	l.mu.Lock()
	l.cond.Signal()
	l.mu.Unlock()
}

// await returns once the epoch has reached n. It loads the epoch up to
// spin times, yielding the processor every spinYield loads, and then
// blocks until a signal.
func (l *latch) await(n uint64, spin int) {
	for i := 1; i <= spin; i++ {
		if l.epoch.Load() >= n {
			return
		}
		if i%spinYield == 0 {
			runtime.Gosched()
		}
	}
	l.mu.Lock()
	for l.epoch.Load() < n {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// shardWorker is one persistent worker of a Group's Run, running one
// released window at a time on the shard the coordinator names. The
// coordinator writes shard and h before it releases a window and reads
// err, pan and goexit after the window's barrier; the latches order
// those accesses.
type shardWorker struct {
	g      *Group
	shard  int // shard to run in the released window; -1 ends the worker
	h      Time
	err    error  // the window's runUntil error
	pan    any    // the shard's recovered panic value
	goexit bool   // a shard event called runtime.Goexit, which ended the worker
	n      uint64 // windows released; the coordinator's count

	release, finish latch
}

// loop is the worker's goroutine: it runs each released window and
// reports its end, until it is handed shard -1.
func (w *shardWorker) loop() {
	defer w.exit()
	for n := uint64(1); ; n++ {
		w.release.await(n, w.g.spin())
		if w.shard < 0 {
			return
		}
		w.err = w.g.engines[w.shard].runUntil(w.h)
		w.finish.signal(n)
	}
}

// exit, deferred by loop, ends the worker: when it is handed shard -1,
// when its shard panics (recovered here, for the coordinator to
// re-raise) and when a process body on its shard calls runtime.Goexit
// (t.FailNow). A failed shard ends the Run, so the worker need not
// outlive it. The last epoch releases every later wait on the worker.
func (w *shardWorker) exit() {
	w.pan = recover()
	w.goexit = w.pan == nil && w.shard >= 0
	w.finish.signal(math.MaxUint64)
}

// result hands the worker's last window to the coordinator after the
// barrier: it re-raises the shard's runtime.Goexit or panic on the
// coordinator, as a 1-shard group would, or returns the window's error.
func (w *shardWorker) result() error {
	if w.goexit {
		runtime.Goexit()
	}
	if w.pan != nil {
		panic(w.pan) //lint:allow panicfree (re-panics the shard's original panic value on the coordinator; the lowest failing shard wins, as in a sequential loop)
	}
	return w.err
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
		g.engines[i] = &Engine{procs: make(map[*Proc]struct{}), g: g}
	}
	return g
}

// Size reports the number of shards.
func (g *Group) Size() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Windows reports how many windows the coordinator has run, empty ones
// included. Unlike the fired events it depends on the shard count: a
// group of one shard runs one window per global it stops at.
func (g *Group) Windows() uint64 { return g.windows }

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
// the inbox is drained. On one shard Post enqueues on the engine at
// once, through PostArrival with the same key: a window runs up to the
// next global there, so an inbox drained after it would hand the
// engine arrivals its clock has passed.
func (g *Group) Post(shard int, t Time, src int, seq uint64, fn func()) {
	if len(g.engines) == 1 {
		g.engines[0].PostArrival(t, src, seq, fn)
		return
	}
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
// count. On one shard a window runs to the next global it knew of when
// it began, so a global a shard event books before the window's
// horizon lowers the horizon to t: the window stops there, and the
// global runs before any shard event at t, as on more shards. A global
// before the group horizon panics; on one shard, whose window can run
// far past the group horizon, so does one before the shard's clock.
func (g *Group) ScheduleGlobal(t Time, pri uint64, fn func()) {
	g.gmu.Lock()
	one := len(g.engines) == 1
	floor := g.horizon
	if one {
		floor = g.engines[0].now
	}
	if t < floor {
		g.gmu.Unlock()
		panic(fmt.Sprintf("sim: ScheduleGlobal at %v before horizon %v (lookahead %v)", t, floor, g.look)) //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
	}
	g.gseq++
	ev := event{t: t, pri: pri, seq: g.gseq, fn: fn}
	g.globals.push(&ev)
	if one && t < g.engines[0].horizon {
		g.engines[0].horizon = t
	}
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
		if t, ok := e.nextEventTime(); ok && t < m {
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
		e.advanceTo(t)
	}
	if t > g.horizon {
		g.horizon = t
	}
}

// stop ends a Run: it advances every clock and the horizon to t or to
// the latest shard clock, whichever is later, and returns the horizon.
// A window that failed, or that a panic unwound, leaves the clocks of
// the shards that ran it past the horizon.
func (g *Group) stop(t Time) Time {
	for _, e := range g.engines {
		t = max(t, e.now)
	}
	g.advanceAll(t)
	return g.horizon
}

// window executes all events strictly before h on every shard that has
// one and returns the horizon it reached: h, or on a one-shard group
// the earlier time of a global booked while the window ran. A single
// active shard runs inline. Otherwise the coordinator
// releases the second and later active shards to workers 0, 1, ...,
// runs the first itself, and waits at the barrier for each worker it
// released. The barrier is also the memory barrier: everything a shard
// wrote in this window is visible to every shard in the next one.
// Failures are judged after the barrier, lowest shard first, so the
// coordinator's own error wins and its own panic unwinds through
// stopWorkers, which waits the window out.
//
//lint:hotpath the window loop runs a few thousand times per simulation
func (g *Group) window(h Time) (Time, error) {
	g.windows++
	g.active = g.active[:0]
	for i, e := range g.engines {
		if t, ok := e.nextEventTime(); ok && t < h {
			g.active = append(g.active, i) //lint:allow hotalloc (amortized growth; the active buffer is reused across windows)
		}
	}
	switch len(g.active) {
	case 0:
		return h, nil
	case 1:
		e := g.engines[g.active[0]]
		err := e.runUntil(h)
		return e.horizon, err
	}
	ws := g.workers[:len(g.active)-1]
	for i := range ws {
		w := &ws[i]
		w.shard, w.h = g.active[i+1], h
		w.n++
		w.release.signal(w.n)
	}
	err := g.engines[g.active[0]].runUntil(h)
	for i := range ws {
		ws[i].finish.await(ws[i].n, g.spin())
	}
	if err != nil {
		return h, err
	}
	for i := range ws {
		if err := ws[i].result(); err != nil {
			return h, err
		}
	}
	return h, nil
}

// startWorkers starts one worker per extra shard for this Run and
// counts the Run's goroutines in shardGoroutines.
func (g *Group) startWorkers() {
	g.procs = int64(runtime.GOMAXPROCS(0))
	shardGoroutines.Add(int64(len(g.engines)))
	g.workers = make([]shardWorker, len(g.engines)-1) //lint:allow hotalloc (once per Run)
	for i := range g.workers {
		w := &g.workers[i]
		w.g = g
		w.release.cond.L = &w.release.mu
		w.finish.cond.L = &w.finish.mu
		go w.loop() //lint:allow hotalloc (one goroutine per extra shard, started once per Run)
	}
}

// stopWorkers, deferred by Run, waits out any window a worker is still
// running (Run can leave by a panic from its own shard before the
// barrier), then hands every worker shard -1 and waits for its exit.
func (g *Group) stopWorkers() {
	for i := range g.workers {
		w := &g.workers[i]
		w.finish.await(w.n, g.spin())
		w.shard = -1
		w.n++
		w.release.signal(w.n)
		w.finish.await(w.n, g.spin())
	}
	g.workers = nil
	shardGoroutines.Add(-int64(len(g.engines)))
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
// limit, also when the queues drain before it. It returns the final
// horizon: the limit, or without one, once the queues drain, the last
// window's horizon on more than one shard and the time of the last
// event or global on one. A limit behind the clocks leaves them where
// they are. A process panic ends Run with its error and the clocks at
// the latest shard clock. If the queues drain while processes remain
// blocked, Run returns ErrDeadlock. It fails at once when called while
// the group is running, and it ends every shard's idle coroutines when
// it returns; shards keep them across windows. A group of more than one
// shard runs its shards on workers that Run starts and joins on every
// exit: return, error or panic. Every shard's Engine.Run is this Run.
//
//lint:hotpath the coordinator loop runs once per window
func (g *Group) Run(limit Time) (Time, error) {
	if g.closed {
		return g.horizon, errors.New("sim: group is closed")
	}
	if g.running {
		return g.horizon, errReentrant
	}
	g.running = true
	defer g.endRun()
	if len(g.engines) > 1 {
		g.startWorkers()
		defer g.stopWorkers()
	}
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
		}
		if !any && !anyG || limit > 0 && (!any || m > limit) && (!anyG || gt > limit) {
			// The queues have drained, or nothing is left at or before
			// the limit.
			return g.stop(limit), nil
		}
		// On one shard no arrival can land inside a window, so it runs
		// to the next global or the limit.
		h := maxTime
		if any && len(g.engines) > 1 {
			h = m.Add(g.look)
		}
		runG := false
		if anyG && gt <= h && (limit <= 0 || gt <= limit) {
			h = gt
			runG = true
		}
		park := limit > 0 && h > limit
		if park {
			// The horizon overshoots the limit but events at or before the
			// limit remain; they are all inside the window, so run them and
			// park the clocks at the limit.
			h = limit + 1
		}
		r, err := g.window(h)
		if err != nil {
			return g.stop(0), err
		}
		switch {
		case r < h:
			// One shard: a global that a shard event booked inside the
			// window stopped it at r.
			runG = true
		case park:
			r = limit
		case h == maxTime:
			// One shard with no global or limit ahead: the queue has
			// drained, and the clocks stay at its last event.
			r = g.engines[0].Now()
		}
		g.advanceAll(r)
		if runG {
			g.runGlobals(r)
		}
	}
}

// endRun, deferred by Run, clears the reentrancy guard and ends every
// shard's idle coroutines. It runs after stopWorkers has joined the
// workers, so clearing the guard races no shard event's read of it.
func (g *Group) endRun() {
	g.running = false
	for _, e := range g.engines {
		e.releaseIdle()
	}
}

// Close terminates every live process on every shard and marks the
// group unusable. Idempotent.
func (g *Group) Close() {
	for _, e := range g.engines {
		e.Close()
	}
}
