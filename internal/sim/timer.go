package sim

// Timer is a re-armable callback owned by an engine. Reset(at) behaves
// exactly like a Schedule(at, fn) made at that instant — the sequence
// number is claimed at the call, so the firing orders among same-time
// events just as that Schedule would — except that a Reset supersedes
// the previous one instead of adding to it: the timer keeps at most one
// queue entry, and re-arming allocates nothing. A timer fires at most
// once per Reset. It suits a timeout that is re-armed far more often
// than it fires, such as MPI's spin-then-block fallback, where one
// closure per wait would otherwise fill the queue with dead events.
type Timer struct {
	eng *Engine
	fn  func()
	// at and seq are the armed key: the one the timer fires at.
	at  Time
	seq uint64
	// queued reports that the timer has an entry in the queue, and
	// queuedAt is that entry's time. After a later Reset the entry
	// trails the armed key until it reaches the front of the queue,
	// where the engine re-files it (eventHeap.next).
	queued   bool
	queuedAt Time
}

// NewTimer returns an unarmed timer that runs fn on e each time it
// fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// Reset arms the timer to fire at absolute time t, superseding any
// earlier Reset that has not fired yet. Resetting into the past panics
// like Schedule.
//
//lint:hotpath MPI waits re-arm their rank's spin timer here; it must stay allocation-free
func (tm *Timer) Reset(t Time) {
	e := tm.eng
	if t < e.now {
		e.schedulePastPanic(t)
	}
	e.seq++
	tm.at, tm.seq = t, e.seq
	switch {
	case !tm.queued:
		tm.queued, tm.queuedAt = true, t
		ev := event{t: t, seq: tm.seq, kind: evTimer, tm: tm}
		e.queue.push(&ev)
	case t < tm.queuedAt:
		// The entry would fire too late.
		tm.queuedAt = t
		e.queue.rekey(tm, t, tm.seq)
	}
}

// fire runs the callback of a timer whose entry was just popped.
func (tm *Timer) fire() {
	tm.queued = false
	tm.fn()
}
