package sim

import (
	"errors"
	"fmt"
)

// ErrDeadlock is returned by Run when the event queue drains while
// simulated processes are still blocked on conditions that nothing will
// ever signal.
var ErrDeadlock = errors.New("sim: deadlock: no pending events but processes remain blocked")

// errReentrant is what Engine.Run and Group.Run return when called
// while the same engine or group is already running: from an event,
// a process body or a global.
var errReentrant = errors.New("sim: Run called reentrantly")

// Engine owns the virtual clock and the event queue, and schedules
// simulated processes. It is not safe for concurrent use from multiple
// goroutines: all interaction must happen either before Run, from inside
// process bodies, or from event callbacks.
// Started processes run on coroutines from the engine's idle list (see
// Proc, Run and Close).
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	procs   map[*Proc]struct{} // all live (not yet terminated) processes
	idle    []*coro            // coroutines whose last body ended, reused LIFO
	blocked int                // live processes currently parked on a primitive
	fired   uint64             // events fired so far (see Fired)
	running bool
	closed  bool
	failure error // first process panic, reported by Run

	// shardTag is " (shard N)" when the engine is owned by a Group,
	// empty for a standalone engine. Preformatted at construction so
	// the panic helpers stay allocation-free on the hot path.
	shardTag string

	// Trace, if non-nil, receives a line for every process state change.
	// Intended for debugging simulations, not for measurement.
	Trace func(t Time, format string, args ...any)
}

// NewEngine returns an engine with the clock at the simulation epoch.
func NewEngine() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run at absolute time t inside the engine.
// Scheduling in the past (t < Now) panics: it would silently reorder
// causality and make runs non-reproducible.
//
//lint:hotpath enqueue runs once per event; it must stay allocation-free
func (e *Engine) Schedule(t Time, fn func()) {
	e.scheduleEvent(event{t: t, kind: evCall, fn: fn})
}

// scheduleEvent is the common enqueue path: it stamps the determinism
// sequence number and pushes. Process wakes go through here with a kind
// and an intrusive *Proc instead of a closure, so the hot block/wake
// path allocates nothing. The past-time check calls out to a separate
// panic helper to keep this function inlinable.
func (e *Engine) scheduleEvent(ev event) {
	if ev.t < e.now {
		e.schedulePastPanic(ev.t)
	}
	e.seq++
	ev.seq = e.seq
	e.queue.push(&ev)
}

func (e *Engine) schedulePastPanic(t Time) {
	panic(fmt.Sprintf("sim: Schedule at %v before now %v%s", t, e.now, e.shardTag)) //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
}

// arrivalPastPanic carries the full lookahead-contract context: which
// shard received the arrival, where it came from, and the offending
// timestamp. Kept out of PostArrival so the hot delivery path stays
// inlinable.
func (e *Engine) arrivalPastPanic(t Time, srcPort int, srcSeq uint64) {
	panic(fmt.Sprintf("sim: cross-shard arrival at %v before now %v%s (src shard %d, seq %d): the lookahead contract was violated", //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
		t, e.now, e.shardTag, srcPort, srcSeq))
}

// PostArrival enqueues a cross-shard arrival event: fn runs at absolute
// time t, after every locally scheduled event with the same timestamp,
// ordered against other arrivals by (srcPort, srcSeq). The key is
// supplied by the sender, not stamped here, so the heap's order is
// independent of the order in which a Group drains its inboxes — the
// property the seq-vs-sharded equality gates rely on. Arrivals in the
// past panic like Schedule: the lookahead contract (arrivals land at
// least one link latency past the window horizon) has been violated.
//
//lint:hotpath runs once per cross-rank message on the delivery path
func (e *Engine) PostArrival(t Time, srcPort int, srcSeq uint64, fn func()) {
	if t < e.now {
		e.arrivalPastPanic(t, srcPort, srcSeq)
	}
	ev := event{t: t, pri: arrivalClass | uint64(srcPort), seq: srcSeq, kind: evCall, fn: fn}
	e.queue.push(&ev)
}

// After arranges for fn to run d from now. Negative d is treated as zero.
//
//lint:hotpath DVFS transitions and the kernel benchmarks schedule through here; as allocation-free as Schedule
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now.Add(d), fn)
}

func (e *Engine) tracef(format string, args ...any) {
	if e.Trace != nil {
		e.Trace(e.now, format, args...)
	}
}

// Run executes events until the queue is empty or until limit is reached
// (limit <= 0 means run to exhaustion). It returns the time of the last
// executed event. When the next event lies beyond limit, Run moves the
// clock forward to limit, never back (as AdvanceTo does), and returns
// the clock. If the queue drains while processes remain blocked, Run
// returns ErrDeadlock; the blocked processes can be inspected with
// Blocked and reaped with Close. On return Run ends the idle coroutines,
// so a run whose processes all finished leaves no goroutine behind; only
// parked processes keep theirs. A process body that calls runtime.Goexit
// (t.FailNow in a test) unwinds the goroutine that called Run.
//
//lint:hotpath the dispatch loop runs once per event
func (e *Engine) Run(limit Time) (Time, error) {
	if e.closed {
		return e.now, errors.New("sim: engine is closed")
	}
	if e.running {
		return e.now, errReentrant
	}
	e.running = true
	defer e.endRun()

	for e.queue.Len() > 0 {
		ev := e.queue.next()
		if limit > 0 && ev.t > limit {
			e.AdvanceTo(limit)
			return e.now, nil
		}
		e.fire(ev)
		if e.failure != nil {
			return e.now, e.failure
		}
	}
	if e.blocked > 0 {
		return e.now, fmt.Errorf("%w (%d blocked)", ErrDeadlock, e.blocked) //lint:allow hotalloc (deadlock exit path, runs at most once per Run)
	}
	return e.now, nil
}

// endRun, deferred by Run, clears the reentrancy guard and releases the
// idle coroutines.
func (e *Engine) endRun() {
	e.running = false
	e.releaseIdle()
}

// releaseIdle ends every idle coroutine.
func (e *Engine) releaseIdle() {
	for _, c := range e.idle {
		c.stop()
	}
	clear(e.idle)
	e.idle = e.idle[:0]
}

// RunUntil executes every event strictly before horizon h and returns.
// It is the shard-side half of a Group window: the coordinator picks h
// so that no other shard can inject an arrival earlier than h, and each
// shard drains its queue up to (not including) h with exclusive access
// to its own state. Unlike Run it performs no deadlock check — with
// multiple shards only the Group can tell whether a blocked process
// might still be woken by a message from elsewhere — and it leaves the
// clock at the last executed event; the Group advances all clocks to
// the common horizon at the barrier.
//
//lint:hotpath the sharded dispatch loop runs once per event
func (e *Engine) RunUntil(h Time) error {
	if e.closed {
		return errors.New("sim: engine is closed")
	}
	if e.running {
		return errors.New("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }() //lint:allow hotalloc (one closure per window, not per event)

	for e.queue.Len() > 0 {
		ev := e.queue.next()
		if ev.t >= h {
			break
		}
		e.fire(ev)
		if e.failure != nil {
			return e.failure
		}
	}
	return nil
}

// fire advances the clock to ev, the front event the queue's next
// returned, and runs it. ev keeps the heap's root, vacated, while it
// runs; its fields are copied first, since the first event it schedules
// takes the root. If it schedules none, the root is removed once it
// returns. A callback panic leaves the root vacated.
func (e *Engine) fire(ev *event) {
	if ev.t > e.now {
		e.now = ev.t
	}
	e.fired++
	kind, fn, p, tm := ev.kind, ev.fn, ev.p, ev.tm
	e.queue.vacated = true
	switch kind {
	case evCall: // fast path: no dispatch call for plain events
		fn()
	case evTimer:
		tm.fire()
	default:
		e.resumeProc(kind, p)
	}
	e.queue.settle()
}

// NextEventTime reports the timestamp of the earliest pending event, or
// false when the queue is empty.
func (e *Engine) NextEventTime() (Time, bool) {
	if e.queue.Len() == 0 {
		return 0, false
	}
	return e.queue.next().t, true
}

// AdvanceTo moves the clock forward to t without executing anything.
// The Group uses it at window barriers so that between-window reads
// (utilization extrapolation, energy integration) see a consistent
// "now" on every shard. Moving backwards is a no-op.
func (e *Engine) AdvanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// resumeProc fires a process-lifecycle event. Each kind checks the
// target's state first: a stale wake (the engine was closed and the
// process reaped, or a start raced a kill) is dropped, mirroring the
// guards the closure-based events used to carry. Delivered values are
// already sitting in p.wakeVal (deliverAt stores them when the wake is
// scheduled), so no payload crosses the event queue. The engine then
// switches to the process's coroutine and gets control back when the
// body blocks or ends.
func (e *Engine) resumeProc(kind eventKind, p *Proc) {
	var want procState
	switch kind {
	case evStart:
		want = procCreated
	case evWake:
		want = procParked
	case evDeliver:
		want = procWaking
	}
	if p.state != want {
		return
	}
	if e.Trace != nil {
		switch kind {
		case evStart:
			e.tracef("proc %s: start", p.name) //lint:allow hotalloc (nil-guarded debug tracing, off on the measured path)
		case evWake:
			e.tracef("proc %s: wake", p.name) //lint:allow hotalloc (nil-guarded debug tracing, off on the measured path)
		case evDeliver:
			e.tracef("proc %s: resume", p.name) //lint:allow hotalloc (nil-guarded debug tracing, off on the measured path)
		}
	}
	p.state = procRunning
	if kind == evStart {
		p.start()
		return
	}
	p.co.next()
}

// Fired reports how many events the engine has fired since it was
// created, stale process wakes included. A Group's total is the sum
// over its shard engines, and it does not depend on the shard count.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.Len() }

// Blocked reports how many live processes are parked on a primitive with
// nothing scheduled to wake them right now. It is meaningful after Run
// returns.
func (e *Engine) Blocked() int { return e.blocked }

// Live reports the number of processes that have been spawned and have
// not yet terminated.
func (e *Engine) Live() int { return len(e.procs) }

// Close terminates every live process, ends the idle coroutines and
// marks the engine unusable. A process that never started is dropped; a
// parked or waking one is unwound on its coroutine, running its
// deferred calls. Close must be called once a simulation is finished if
// any process may still be blocked (for example after a deadlock or a
// truncated run); otherwise their coroutines would leak for the lifetime
// of the host program. Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for p := range e.procs {
		switch p.state {
		case procCreated:
			p.state = procDone
		case procParked, procWaking:
			// stop makes the pending yield return false; the body
			// unwinds with errKilled and its coroutine ends.
			p.co.stop()
		}
	}
	e.releaseIdle()
	e.procs = nil
}
