package sim

// Cond is a condition-style wait queue. Processes block on Wait in FIFO
// order; any code running under the engine (another process or an event
// callback) releases them with Signal or Broadcast. A value can be handed
// to the woken process, which is how the MPI matching layer transfers
// messages without an extra queue hop.
//
// The zero value is an empty queue ready for use, so a Cond can live by
// value inside the record whose wait it is. A waiter resumes at its own
// engine's clock, which is the signaller's: signal a Cond only on the
// shard its waiters run on. A Cond must not be copied after first use.
type Cond struct {
	waiters []*Proc
}

// Len reports the number of processes currently waiting.
func (c *Cond) Len() int { return len(c.waiters) }

// Wait parks the calling process until a Signal or Broadcast releases it,
// and returns the value the waker attached (nil for Broadcast).
func (c *Cond) Wait(p *Proc) any {
	c.waiters = append(c.waiters, p)
	return p.yield(true)
}

// Signal wakes the longest-waiting process, handing it val, and reports
// whether anyone was waiting. The woken process resumes at the current
// virtual time, after already-queued events.
func (c *Cond) Signal(val any) bool {
	if len(c.waiters) == 0 {
		return false
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	p.deliverAt(p.eng.now, val)
	return true
}

// Broadcast wakes every waiting process (each receives nil) and returns
// the number woken.
func (c *Cond) Broadcast() int {
	n := len(c.waiters)
	for _, p := range c.waiters {
		p.deliverAt(p.eng.now, nil)
	}
	c.waiters = c.waiters[:0]
	return n
}

// Remove withdraws p from the wait queue without waking it, reporting
// whether it was present. It supports wait-with-guard patterns where a
// process is parked on several queues conceptually and the winning waker
// must cancel the others before delivery.
func (c *Cond) Remove(p *Proc) bool {
	for i, w := range c.waiters {
		if w == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}
