package sim

import (
	"errors"
	"fmt"
	"slices"
)

// ErrDeadlock is returned by Run when the event queue drains while
// waits counted with Engine.Block are still open: a parked process or
// an event-driven record that nothing will ever wake.
var ErrDeadlock = errors.New("sim: deadlock: no pending events but processes remain blocked")

// errReentrant is what Group.Run, and so Engine.Run, returns when
// called while the group is already running: from an event, a process
// body or a global.
var errReentrant = errors.New("sim: Run called reentrantly")

// Engine owns the virtual clock and the event queue of one shard of a
// Group, and schedules simulated processes. It is not safe for
// concurrent use from multiple goroutines: all interaction must happen
// either before Run, from inside process bodies, or from event
// callbacks. Started processes run on coroutines from the engine's idle
// list (see Proc, Run and Close).
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	procs   map[*Proc]struct{} // all live (not yet terminated) processes
	idle    []*coro            // coroutines whose last body ended, reused LIFO
	blocked int                // waits counted by Block and not yet by Unblock
	fired   uint64             // events fired so far (see Fired)
	resumes uint64             // switches into a process so far (see Resumes)
	horizon Time               // runUntil's bound; see runUntil
	running bool
	closed  bool
	failure error  // first process panic, reported by Run
	g       *Group // the group this engine is a shard of
}

// NewEngine returns the engine of a new one-shard group, with the clock
// at the simulation epoch. One shard never uses the group's lookahead,
// so any positive one will do.
func NewEngine() *Engine {
	return NewGroup(1, Nanosecond).engines[0]
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run at absolute time t inside the engine.
// Scheduling in the past (t < Now) panics: it would silently reorder
// causality and make runs non-reproducible.
//
//lint:hotpath enqueue runs once per event; it must stay allocation-free
func (e *Engine) Schedule(t Time, fn func()) {
	e.scheduleEvent(event{t: t, fn: fn})
}

// scheduleEvent is the common enqueue path: it stamps the determinism
// sequence number and pushes. Process events go through here with an
// intrusive *Proc instead of a closure, so the hot park/wake path
// allocates nothing. The past-time check calls out to a separate panic
// helper to keep this function inlinable.
func (e *Engine) scheduleEvent(ev event) {
	if ev.t < e.now {
		e.schedulePastPanic(ev.t)
	}
	e.seq++
	ev.seq = e.seq
	e.queue.push(&ev)
}

func (e *Engine) schedulePastPanic(t Time) {
	panic(fmt.Sprintf("sim: Schedule at %v before now %v (shard %d)", t, e.now, slices.Index(e.g.engines, e))) //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
}

// arrivalPastPanic carries the full lookahead-contract context: which
// shard received the arrival, where it came from, and the offending
// timestamp. Kept out of PostArrival so the hot delivery path stays
// inlinable.
func (e *Engine) arrivalPastPanic(t Time, srcPort int, srcSeq uint64) {
	panic(fmt.Sprintf("sim: cross-shard arrival at %v before now %v (shard %d) (src shard %d, seq %d): the lookahead contract was violated", //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
		t, e.now, slices.Index(e.g.engines, e), srcPort, srcSeq))
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
	ev := event{t: t, pri: arrivalClass | uint64(srcPort), seq: srcSeq, fn: fn}
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

// Run is Group.Run of the engine's group, so on a shard of a larger
// group it advances every shard. After ErrDeadlock the blocked
// processes can be inspected with Blocked and reaped with Close.
func (e *Engine) Run(limit Time) (Time, error) { return e.g.Run(limit) }

// releaseIdle ends every idle coroutine.
func (e *Engine) releaseIdle() {
	for _, c := range e.idle {
		c.stop()
	}
	clear(e.idle)
	e.idle = e.idle[:0]
}

// runUntil executes every event strictly before horizon h and returns.
// It is the kernel's one dispatch loop, the shard-side half of a Group
// window: the coordinator picks h so that no other shard can inject an
// arrival earlier than h, and each shard drains its queue up to (not
// including) h with exclusive access to its own state. The horizon is
// kept in the engine while the window runs, because on a one-shard
// Group ScheduleGlobal lowers it to a global that an event books inside
// the window; the window then stops there. It performs no deadlock
// check — with multiple shards only the Group can tell whether a
// blocked process might still be woken by a message from elsewhere —
// and it leaves the clock at the last executed event; the Group
// advances all clocks to the horizon reached at the barrier. Its guard
// fails a window entered while the shard still runs one.
//
//lint:hotpath the dispatch loop runs once per event
func (e *Engine) runUntil(h Time) error {
	if e.closed {
		return errors.New("sim: engine is closed")
	}
	if e.running {
		return errors.New("sim: runUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }() //lint:allow hotalloc (one closure per window, not per event)

	e.horizon = h
	for e.queue.Len() > 0 {
		ev := e.queue.next()
		if ev.t >= e.horizon {
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
// returned, and runs it: its callback, or its process's start or
// resume. ev keeps the heap's root, vacated, while it runs; its fields
// are copied first, since the first event it schedules takes the root.
// If it schedules none, the root is removed once it returns. A callback
// panic leaves the root vacated.
func (e *Engine) fire(ev *event) {
	if ev.t > e.now {
		e.now = ev.t
	}
	e.fired++
	fn, p := ev.fn, ev.p
	e.queue.vacated = true
	if p == nil {
		fn()
	} else {
		e.resumeProc(p)
	}
	e.queue.settle()
}

// nextEventTime reports the timestamp of the earliest pending event, or
// false when the queue is empty.
func (e *Engine) nextEventTime() (Time, bool) {
	if e.queue.Len() == 0 {
		return 0, false
	}
	return e.queue.next().t, true
}

// advanceTo moves the clock forward to t without executing anything.
// The Group uses it at window barriers so that between-window reads
// (utilization extrapolation, energy integration) see a consistent
// "now" on every shard. Moving backwards is a no-op.
func (e *Engine) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// resumeProc fires a process event by the process's state: a created
// process starts, one whose resume Sleep or Wake booked switches in,
// and in any other state the event is stale and is dropped. The engine
// gets control back when the body blocks or ends.
func (e *Engine) resumeProc(p *Proc) {
	switch p.state {
	case procCreated:
		p.state = procRunning
		e.resumes++
		p.start()
	case procWaking:
		p.state = procRunning
		e.resumes++
		p.co.next()
	}
}

// Fired reports how many events the engine has fired since it was
// created, stale process wakes included. A Group's total is the sum
// over its shard engines, and it does not depend on the shard count.
func (e *Engine) Fired() uint64 { return e.fired }

// Resumes reports how many times the engine has switched into a
// process since it was created: each start, each resume that Sleep or
// Wake booked, and each Proc.Resume. It is the number of coroutine
// switches a run paid for, the dearest step of the event loop. A Group's total is the sum over its shard engines, and it does
// not depend on the shard count.
func (e *Engine) Resumes() uint64 { return e.resumes }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.Len() }

// Blocked reports how many waits have nothing booked to end them right
// now: those that Block counted and Unblock has not yet uncounted,
// whether a parked process's or an event-driven record's. It is
// meaningful after Run returns.
func (e *Engine) Blocked() int { return e.blocked }

// Block counts one wait as blocked, such as a process's that is about
// to Park or a record's whose next event is scheduled only when a
// message arrives, so that Run reports a deadlock if the queues drain
// while it waits. Unblock uncounts it once its wake is booked.
func (e *Engine) Block() { e.blocked++ }

// Unblock ends a wait that Block counted.
func (e *Engine) Unblock() { e.blocked-- }

// Live reports the number of processes that have been spawned and have
// not yet terminated.
func (e *Engine) Live() int { return len(e.procs) }

// Close terminates every live process, ends the idle coroutines and
// marks the engine, and so its group, unusable. A process that never
// started is dropped; a parked or sleeping one is unwound on its
// coroutine, running its deferred calls. Close must be called once a
// simulation is finished if any process may still be blocked (for
// example after a deadlock or a truncated run); otherwise their
// coroutines would leak for the lifetime of the host program. Close is
// idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.g.closed = true
	for p := range e.procs {
		switch p.state {
		case procCreated:
			p.state = procDone
		case procHeld, procWaking:
			// stop makes the pending yield return false; the body
			// unwinds with errKilled and its coroutine ends.
			p.co.stop()
		}
	}
	e.releaseIdle()
	e.procs = nil
}
