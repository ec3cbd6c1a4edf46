//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
)

// errKilled unwinds a process body when the engine is closed. It is
// recovered by the process wrapper and never escapes to user code.
var errKilled = errors.New("sim: process killed")

type procState uint8

const (
	procCreated procState = iota // spawned, start event not yet fired
	procRunning                  // currently executing user code
	procParked                   // blocked on a primitive, awaiting a waker
	procWaking                   // a wake event has been scheduled
	procDone                     // body returned or unwound
)

// coro is one pooled coroutine (iter.Pull). It runs the body of one
// process at a time: it is taken from the engine's idle list at a
// process's start event and goes back there when that body ends, so a
// Spawn reuses a finished process's coroutine instead of starting a
// goroutine. Control passes between the engine and the body by a
// direct goroutine switch, without the Go scheduler: next resumes the
// body, yield hands control back to the engine, and stop unwinds a
// parked body (yield returns false) or ends an idle coroutine.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // process whose body the coroutine runs, nil while idle
}

// Proc is a simulated process: a body function run on a coroutine and
// interleaved with other processes under the engine's control, so that
// exactly one process (or the engine itself) runs at any moment. A Proc
// handle is only valid inside the process's own body function; passing
// it to another process and calling its blocking methods there corrupts
// the scheduler.
type Proc struct {
	eng     *Engine
	name    string
	fn      func(p *Proc)
	co      *coro // from the start event until the body ends
	wakeVal any   // value handed over by the waker (Cond.Signal)
	state   procState
	counted bool // contributes to eng.blocked
}

// Spawn creates a process named name whose body fn starts executing at
// the current virtual time (once the engine regains control). The name
// appears in traces and panic messages.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time, which must not be in the
// past. It allocates only the Proc: the coroutine is bound at the start
// event.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, fn: fn, state: procCreated}
	e.procs[p] = struct{}{}
	e.scheduleEvent(event{t: t, kind: evStart, p: p})
	return p
}

// start binds p to an idle coroutine, or to a new one when none is
// idle, and runs its body until it first blocks or ends.
func (p *Proc) start() {
	e := p.eng
	var c *coro
	if n := len(e.idle); n > 0 {
		c, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		c = p.newCoro()
	}
	c.p = p
	p.co = c
	c.next()
}

// newCoro creates a coroutine for p's engine. It is kept out of start
// so that the variable its loop captures is allocated only here, not
// on every start, and it is a Proc method, like start, so that profiles
// fold the coroutine's own frames into the process layer.
func (p *Proc) newCoro() *coro {
	e := p.eng
	c := new(coro) //lint:allow hotalloc (one per coroutine, not per spawn: 560 coroutines serve 65,792 spawns per 256-rank FT run)
	// The loop first runs at c.next, once start has set c.p.
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) { //lint:allow hotalloc (one closure per coroutine, as above)
		c.yield = yield
		for {
			c.p.run()
			c.p = nil
			// A closing engine is unwinding its processes; their
			// coroutines end with them.
			if e.closed {
				return
			}
			e.idle = append(e.idle, c) //lint:allow hotalloc (grows to the peak number of coroutines, then reused)
			if !yield(struct{}{}) {
				return
			}
		}
	})
	return c
}

// run executes the body on the process's coroutine. A body that calls
// runtime.Goexit never returns here: iter.Pull re-raises the Goexit in
// the goroutine that resumed it, the one that called Run.
func (p *Proc) run() {
	defer p.exit()
	p.fn(p)
}

// exit, deferred by run, marks the process terminated and records a
// body panic on the engine, so Run returns it as an error instead of
// iter.Pull re-raising it in Run's caller.
func (p *Proc) exit() {
	if r := recover(); r != nil && r != errKilled { //nolint:errorlint // sentinel identity
		if p.eng.failure == nil {
			p.eng.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r) //lint:allow hotalloc (panic path, runs at most once per Run)
		}
	}
	p.state = procDone
	p.co = nil
	if p.counted {
		p.counted = false
		p.eng.blocked--
	}
	delete(p.eng.procs, p)
}

// yield parks the calling process until a wake is delivered, then returns
// the value the waker attached. counted reports whether the process
// should be considered "blocked with no scheduled wake" for deadlock
// accounting (true for conditions, false for Sleep, whose wake event is
// already queued).
func (p *Proc) yield(counted bool) any {
	if p.state != procRunning {
		panic("sim: blocking call from outside the process body") //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
	}
	p.state = procParked
	p.counted = counted
	if counted {
		p.eng.blocked++
	}
	if !p.co.yield(struct{}{}) {
		panic(errKilled) //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
	}
	v := p.wakeVal
	p.wakeVal = nil
	return v
}

// deliverAt schedules the parked process to resume at time t with val
// available as the yield result. The caller must ensure the process is
// currently parked; deliverAt transitions it to the waking state so no
// other waker can race.
//
//lint:hotpath every blocking primitive wakes through here
func (p *Proc) deliverAt(t Time, val any) {
	if p.state != procParked {
		panic("sim: wake of a process that is not parked") //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
	}
	p.state = procWaking
	if p.counted {
		p.counted = false
		p.eng.blocked--
	}
	// Store the value on the process now rather than boxing it into the
	// event: the procWaking transition guarantees no other waker can
	// touch wakeVal before the resume fires.
	p.wakeVal = val
	p.eng.scheduleEvent(event{t: t, kind: evDeliver, p: p})
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for d of virtual time. Zero or negative d
// still yields, letting same-time events scheduled earlier run first.
//
//lint:hotpath the Sleep/wake round trip is the PR 2 zero-alloc win
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	// Queue the wake before parking. The engine cannot run events while
	// this process holds control, so the wake cannot fire early; the
	// evWake dispatch's procParked guard protects against firing after a
	// Close reaped us. No closure and no boxed wake value: the entire
	// Sleep/wake round trip is allocation-free.
	p.eng.scheduleEvent(event{t: p.eng.now.Add(d), kind: evWake, p: p})
	p.yield(false)
}

// SleepUntil suspends the process until absolute time t (no-op if t is
// not in the future beyond event ordering).
func (p *Proc) SleepUntil(t Time) {
	if t < p.eng.now {
		t = p.eng.now
	}
	p.Sleep(t.Sub(p.eng.now))
}
