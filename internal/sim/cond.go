package sim

// Cond is a condition-style wait queue. Processes block on Wait in FIFO
// order; any code running under the engine (another process or an event
// callback) releases them with Signal or Broadcast. A value can be handed
// to the woken process, which is how the MPI matching layer transfers
// messages without an extra queue hop.
//
// The zero value is an empty queue ready for use, so a Cond can live by
// value inside the record whose wait it is. The longest-waiting process
// is held inline and only the waiters behind it go in a slice, so a Cond
// that never holds two waiters at once allocates nothing. A waiter
// resumes at its own engine's clock, which is the signaller's: signal a
// Cond only on the shard its waiters run on. A Cond must not be copied
// after first use.
type Cond struct {
	head *Proc   // the longest-waiting process; nil when none waits
	rest []*Proc // the waiters behind head, in arrival order
}

// Len reports the number of processes currently waiting.
func (c *Cond) Len() int {
	if c.head == nil {
		return 0
	}
	return 1 + len(c.rest)
}

// Wait parks the calling process until a Signal or Broadcast releases it,
// and returns the value the waker attached (nil for Broadcast).
func (c *Cond) Wait(p *Proc) any {
	if c.head == nil {
		c.head = p
	} else {
		c.rest = append(c.rest, p)
	}
	return p.yield(true)
}

// Signal wakes the longest-waiting process, handing it val, and reports
// whether anyone was waiting. The woken process resumes at the current
// virtual time, after already-queued events.
func (c *Cond) Signal(val any) bool {
	p := c.head
	if p == nil {
		return false
	}
	c.popHead()
	p.deliverAt(p.eng.now, val)
	return true
}

// popHead drops the head waiter; the next in line, if any, takes its
// place.
func (c *Cond) popHead() {
	if len(c.rest) == 0 {
		c.head = nil
		return
	}
	c.head = c.rest[0]
	copy(c.rest, c.rest[1:])
	c.rest = c.rest[:len(c.rest)-1]
}

// Broadcast wakes every waiting process (each receives nil) and returns
// the number woken.
func (c *Cond) Broadcast() int {
	if c.head == nil {
		return 0
	}
	c.head.deliverAt(c.head.eng.now, nil)
	for _, p := range c.rest {
		p.deliverAt(p.eng.now, nil)
	}
	n := 1 + len(c.rest)
	c.head = nil
	c.rest = c.rest[:0]
	return n
}

// Remove withdraws p from the wait queue without waking it, reporting
// whether it was present. It supports wait-with-guard patterns where a
// process is parked on several queues conceptually and the winning waker
// must cancel the others before delivery.
func (c *Cond) Remove(p *Proc) bool {
	if p != nil && c.head == p {
		c.popHead()
		return true
	}
	for i, w := range c.rest {
		if w == p {
			c.rest = append(c.rest[:i], c.rest[i+1:]...)
			return true
		}
	}
	return false
}
