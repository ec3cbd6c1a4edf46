package mpi

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Send transmits size bytes to rank dst with the given tag, blocking
// with MPI_Send semantics: eager messages return once handed to the
// transport; rendezvous messages return when the payload has drained to
// the receiver. payload travels with the message for tests and
// workloads that care about content. tag must lie in [0, 2^28); the
// tags above belong to sub-communicators and collectives.
func (r *Rank) Send(p *sim.Proc, dst, tag int, size int64, payload any) {
	r.checkRank(dst)
	checkUserTag(tag)
	r.send(p, dst, tag, size, payload)
}

// checkUserTag rejects world tags outside the application range
// [0, commP2PBase): negative values are wildcards, and the tags above
// are the sub-communicators' point-to-point contexts and the
// collectives' reserved space.
func checkUserTag(tag int) {
	if tag < 0 || tag >= commP2PBase {
		panic(fmt.Sprintf("mpi: tag %d outside application range [0,%d)", tag, commP2PBase)) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
}

// checkRecvTag is checkUserTag for a receive pattern, which may also
// be AnyTag.
func checkRecvTag(tag int) {
	if tag != AnyTag {
		checkUserTag(tag)
	}
}

// send is Send without the tag guard, shared with the collectives
// (which use the reserved tag space): the overhead and byte charges,
// then the hand-off and, for a rendezvous message, the wait for the CTS
// and the payload's drain. The envelope sequence number is claimed on
// entry so posting order defines matching order.
func (r *Rank) send(p *sim.Proc, dst, tag int, size int64, payload any) {
	seq := r.claimSeq(dst)
	r.overhead(p, r.w.cfg.SendOverheadCycles)
	r.byteWork(p, size)
	x := r.handOff(seq, dst, tag, size, payload)
	if x == nil {
		return
	}
	r.waitOn(p, &x.ctsWait)
	// The sender's progress engine actively pushes the payload through
	// the socket until the last byte leaves its transmit link; it polls
	// (and eventually blocks) exactly like a receive-side wait. The
	// drain time is sender-local, so it needs no cross-shard state.
	r.spinUntil(p, r.sendData(x, payload))
}

// claimSeq reserves the next envelope sequence number toward dst.
func (r *Rank) claimSeq(dst int) int64 {
	seq := r.sendSeq[dst]
	r.sendSeq[dst] = seq + 1
	return seq
}

// handOff runs what follows a send's two charges, for blocking sends
// and Isend records alike: the traffic counters, then self-delivery,
// the eager transmit or, for a rendezvous message (one to another rank
// above EagerThreshold), its exchange record and RTS. It returns that
// record, whose CTS the sender must await, or nil when the send is
// complete.
func (r *Rank) handOff(seq int64, dst, tag int, size int64, payload any) *exchange {
	r.stats.MsgsSent++
	r.stats.BytesSent += size
	if dst != r.id && size > r.w.cfg.EagerThreshold {
		x := &exchange{} //lint:allow hotalloc (the one record per message above EagerThreshold; its data envelope is what Recv hands to its caller)
		x.rts = Message{Src: r.id, Dst: dst, Tag: tag, Size: size, kind: kindRTS, x: x, seq: seq}
		r.transmitControl(&x.rts)
		return x
	}
	m := &Message{Src: r.id, Dst: dst, Tag: tag, Size: size, Payload: payload, kind: kindEager, seq: seq} //lint:allow hotalloc (the one allocation per message: the envelope Recv hands to its caller)
	if dst == r.id {
		// Self-send: local copy only, delivered immediately.
		r.deliver(m)
	} else {
		r.transmit(m, size, size >= 1024)
	}
	return nil
}

// sendData streams the payload of rendezvous x once its CTS has
// arrived, and returns when the last byte leaves the sender.
func (r *Rank) sendData(x *exchange, payload any) sim.Time {
	x.data = Message{Src: r.id, Dst: x.rts.Dst, Tag: x.rts.Tag, Size: x.rts.Size, Payload: payload, kind: kindRData, x: x}
	return r.transmit(&x.data, x.data.Size, true)
}

// spinUntil holds the node in the spin-then-block wait pattern until
// absolute time t.
func (r *Rank) spinUntil(p *sim.Proc, t sim.Time) {
	now := p.Now()
	if t <= now {
		return
	}
	n := r.node
	remaining := t.Sub(now)
	thr := r.w.cfg.SpinThreshold
	if thr < 0 || remaining <= thr {
		n.SetState(machine.Spin)
		token := n.StateToken()
		p.Sleep(remaining)
		n.RestoreState(token, machine.Idle)
		return
	}
	n.SetState(machine.Spin)
	tokenSpin := n.StateToken()
	p.Sleep(thr)
	n.RestoreState(tokenSpin, machine.Blocked)
	tokenBlocked := n.StateToken()
	p.Sleep(remaining - thr)
	n.RestoreState(tokenBlocked, machine.Idle)
}

// Recv blocks until a message matching (src, tag) arrives and returns
// it. src may be AnySource and tag may be AnyTag, which matches only
// the world's application tags.
func (r *Rank) Recv(p *sim.Proc, src, tag int) *Message {
	if src != AnySource {
		r.checkRank(src)
	}
	checkRecvTag(tag)
	r.overhead(p, r.w.cfg.RecvOverheadCycles)

	m := r.matchOrWait(p, src, tag)
	return r.completeRecv(p, m)
}

// matchOrWait finds a matching envelope in the unexpected queue or
// parks until one is delivered.
func (r *Rank) matchOrWait(p *sim.Proc, src, tag int) *Message {
	return r.awaitRecv(p, r.postRecv(src, tag))
}

// postRecv takes a posted-receive record from the rank's free list and
// either claims the first matching envelope from the unexpected queue
// or appends the record to the posted receives.
func (r *Rank) postRecv(src, tag int) *postedRecv {
	pr := pop(&r.recvs)
	if pr == nil {
		pr = &postedRecv{} //lint:allow hotalloc (pool miss: the free list grows to the peak number of receives in flight)
	}
	pr.src, pr.tag = src, tag
	for i, m := range r.unexpected {
		if matches(src, tag, m) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...) //lint:allow hotalloc (removes in place; never grows)
			pr.msg = m
			return pr
		}
	}
	r.posted = append(r.posted, pr) //lint:allow hotalloc (amortized growth; the list's capacity is reused as it drains)
	return pr
}

// awaitRecv parks until pr has matched, unless it already has, returns
// the matched envelope and puts pr back on the free list.
func (r *Rank) awaitRecv(p *sim.Proc, pr *postedRecv) *Message {
	if pr.msg == nil {
		r.waitOn(p, &pr.cond)
	}
	m := pr.msg
	pr.msg = nil
	r.recvs = append(r.recvs, pr) //lint:allow hotalloc (amortized growth to the peak number of receives in flight, then reused)
	return m
}

// completeRecv finishes the protocol for a matched envelope: copy-out
// for eager data, or the CTS/data exchange for a rendezvous RTS.
func (r *Rank) completeRecv(p *sim.Proc, m *Message) *Message {
	switch m.kind {
	case kindEager:
		r.byteWork(p, m.Size)
		r.stats.MsgsRecv++
		r.stats.BytesRecv += m.Size
		return m
	case kindRTS:
		x := m.x
		x.cts = Message{Src: r.id, Dst: m.Src, Tag: m.Tag, Size: r.w.cfg.ControlBytes, kind: kindCTS, x: x}
		r.transmitControl(&x.cts)
		data := r.waitOn(p, &x.dataWait).(*Message)
		r.byteWork(p, data.Size)
		r.stats.MsgsRecv++
		r.stats.BytesRecv += data.Size
		return data
	default:
		panic("mpi: matched a non-envelope message") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
}

// Request tracks an outstanding Isend or Irecv. A request that Isend,
// Comm.Isend or Irecv returns is the caller's and is never recycled;
// the library's own sends take theirs from a free list (isendPooled).
type Request struct {
	done bool
	cond sim.Cond
	msg  *Message
}

// Done reports whether the operation has completed.
func (q *Request) Done() bool { return q.done }

// Isend starts a send in the background and returns a Request for
// Wait. Its CPU costs hit this node, at the same instants as a helper
// process on the node would charge them.
func (r *Rank) Isend(p *sim.Proc, dst, tag int, size int64, payload any) *Request {
	r.checkRank(dst)
	checkUserTag(tag)
	q := new(Request)
	r.isend(p, q, dst, tag, size, payload)
	return q
}

// isend starts a send that completes q. It runs as the events of a
// pooled send record, and the envelope sequence number is claimed
// here, so posting order, not execution order, defines matching order.
//
//lint:hotpath Isend and the collectives' sends run here once per message
func (r *Rank) isend(_ *sim.Proc, q *Request, dst, tag int, size int64, payload any) {
	seq := r.claimSeq(dst)
	s := pop(&r.sends)
	if s == nil {
		s = &sendRec{r: r} //lint:allow hotalloc (pool miss: the free list grows to the peak number of Isends in flight)
		s.onStep = s.run
	}
	s.q, s.seq, s.dst, s.tag, s.size, s.payload = q, seq, dst, tag, size, payload
	s.next(stepStart, r.eng().Now())
}

// sendRec runs one Isend as events. They carry the keys of the events a
// helper process running the blocking send would fire: its start at the
// Isend instant, the ends of the overhead and byte-work charges, and
// for a rendezvous message the CTS wake and the drain's spin-then-block
// steps. So the choice between the two changes no output. Each charge's
// duration is taken when the charge starts, as the node's work
// primitives take it, so a DVS change between the two charges lands as
// it would for a process. The record's one handler is a method value
// bound when the record is made; the record goes back to its rank's
// free list when the send completes.
type sendRec struct {
	r        *Rank
	q        *Request
	payload  any
	x        *exchange // the rendezvous in progress, from the RTS on
	size     int64
	seq      int64
	dst, tag int
	until    sim.Time // the end of the payload's drain
	token    uint64   // node state token of the charge or drain step in progress
	step     sendStep // what the next event runs

	onStep func()
}

// sendStep names the event a send record runs next.
type sendStep uint8

const (
	stepStart       sendStep = iota // charge the send overhead
	stepOverheadEnd                 // charge the byte work
	stepCopyEnd                     // hand the message off
	stepCTS                         // the CTS is in: stream the payload
	stepSpun                        // the drain spun SpinThreshold long: block
	stepDrained                     // the last byte left: complete
)

// next schedules the record's handler to run step at t.
func (s *sendRec) next(step sendStep, t sim.Time) {
	s.step = step
	s.r.eng().Schedule(t, s.onStep)
}

// run is the record's event handler: it runs the step that the
// record's last scheduling named.
//
//lint:hotpath runs once per event of every Isend
func (s *sendRec) run() {
	r, n := s.r, s.r.node
	switch s.step {
	case stepStart:
		s.charge(machine.Compute, r.w.cfg.SendOverheadCycles, stepOverheadEnd)
	case stepOverheadEnd:
		n.RestoreState(s.token, machine.Idle)
		if s.size <= 0 {
			s.handOff()
			return
		}
		s.charge(machine.Copy, r.byteCycles(s.size), stepCopyEnd)
	case stepCopyEnd:
		n.RestoreState(s.token, machine.Idle)
		s.handOff()
	case stepCTS:
		n.SetState(machine.Idle)
		s.drain(r.sendData(s.x, s.payload))
	case stepSpun:
		n.RestoreState(s.token, machine.Blocked)
		s.token = n.StateToken()
		s.next(stepDrained, s.until)
	case stepDrained:
		n.RestoreState(s.token, machine.Idle)
		s.finish()
	}
}

// charge puts the node in state st for cycles of core-clocked work and
// schedules step at the charge's end.
func (s *sendRec) charge(st machine.State, cycles float64, step sendStep) {
	n := s.r.node
	d := n.CoreDuration(cycles)
	n.SetState(st)
	s.token = n.StateToken()
	s.next(step, s.r.eng().Now().Add(d))
}

// handOff sends the charged message. An eager or self send is then
// complete; a rendezvous one starts its wait for the CTS, as waitOn
// starts a process's, and counts as blocked until ctsIn wakes it.
func (s *sendRec) handOff() {
	r := s.r
	s.x = r.handOff(s.seq, s.dst, s.tag, s.size, s.payload)
	if s.x == nil {
		s.finish()
		return
	}
	s.x.send = s
	r.node.SpinFor(r.w.cfg.SpinThreshold)
	r.eng().Block()
}

// ctsIn wakes the record when its CTS is delivered, as Cond.Signal
// wakes a waiting process: at the current instant, after the events
// already queued there.
func (s *sendRec) ctsIn() {
	eng := s.r.eng()
	eng.Unblock()
	s.next(stepCTS, eng.Now())
}

// drain holds the node in the spin-then-block pattern until the payload
// has left at t, as spinUntil holds a process, then completes the send.
func (s *sendRec) drain(t sim.Time) {
	now := s.r.eng().Now()
	if t <= now {
		s.finish()
		return
	}
	n := s.r.node
	n.SetState(machine.Spin)
	s.token = n.StateToken()
	s.until = t
	if thr := s.r.w.cfg.SpinThreshold; thr >= 0 && t.Sub(now) > thr {
		s.next(stepSpun, now.Add(thr))
		return
	}
	s.next(stepDrained, t)
}

// finish completes the send's request and returns the record to the
// free list.
func (s *sendRec) finish() {
	r, q := s.r, s.q
	s.q, s.payload, s.x = nil, nil, nil
	q.done = true
	q.cond.Broadcast()
	r.sends = append(r.sends, s) //lint:allow hotalloc (amortized growth to the peak number of Isends in flight, then reused)
}

// isendPooled is isend with a request from the rank's free list, for
// the library's own sends (collectives, Sendrecv), which hand the
// request back with waitPooled.
func (r *Rank) isendPooled(p *sim.Proc, dst, tag int, size int64, payload any) *Request {
	q := pop(&r.reqs)
	if q == nil {
		q = new(Request)
	}
	r.isend(p, q, dst, tag, size, payload)
	return q
}

// waitPooled waits for a request from isendPooled and returns it to
// the free list.
func (r *Rank) waitPooled(p *sim.Proc, q *Request) {
	r.Wait(p, q)
	q.done = false
	r.reqs = append(r.reqs, q)
}

// Irecv posts a receive immediately (so envelope matching sees it) and
// completes it in the background; the matched message is available from
// Wait.
func (r *Rank) Irecv(p *sim.Proc, src, tag int) *Request {
	if src != AnySource {
		r.checkRank(src)
	}
	checkRecvTag(tag)
	q := new(Request)
	pr := r.postRecv(src, tag)
	r.eng().Spawn(r.irecvName, func(hp *sim.Proc) {
		r.overhead(hp, r.w.cfg.RecvOverheadCycles)
		q.msg = r.completeRecv(hp, r.awaitRecv(hp, pr))
		q.done = true
		q.cond.Broadcast()
	})
	return q
}

// Wait blocks until the request completes and returns its message
// (nil for sends).
func (r *Rank) Wait(p *sim.Proc, q *Request) *Message {
	if !q.done {
		r.waitOn(p, &q.cond)
	}
	return q.msg
}

// Waitall waits for every request in order.
func (r *Rank) Waitall(p *sim.Proc, qs ...*Request) {
	for _, q := range qs {
		r.Wait(p, q)
	}
}

// Sendrecv runs a simultaneous send and receive — the pattern used by
// exchange steps — and returns the received message.
func (r *Rank) Sendrecv(p *sim.Proc, dst, sendTag int, size int64, payload any, src, recvTag int) *Message {
	r.checkRank(dst)
	checkUserTag(sendTag)
	sq := r.isendPooled(p, dst, sendTag, size, payload)
	m := r.Recv(p, src, recvTag)
	r.waitPooled(p, sq)
	return m
}

func (r *Rank) checkRank(id int) {
	if id < 0 || id >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", id, len(r.w.ranks))) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
}

// Iprobe reports whether a message matching (src, tag) is available
// without receiving it, and if so returns its envelope (source and
// size). It charges a small progress-poll cost.
func (r *Rank) Iprobe(p *sim.Proc, src, tag int) (m *Message, ok bool) {
	if src != AnySource {
		r.checkRank(src)
	}
	checkRecvTag(tag)
	r.overhead(p, r.w.cfg.RecvOverheadCycles/8)
	for _, u := range r.unexpected {
		if matches(src, tag, u) {
			return u, true
		}
	}
	return nil, false
}

// Probe blocks until a message matching (src, tag) is available and
// returns its envelope without consuming it; a subsequent Recv with the
// same pattern returns the message itself.
func (r *Rank) Probe(p *sim.Proc, src, tag int) *Message {
	if m, ok := r.Iprobe(p, src, tag); ok {
		return m
	}
	// Park on a posted recv, then put the envelope back at the front
	// of the unexpected queue so Recv can claim it.
	m := r.matchOrWait(p, src, tag)
	r.unexpected = append([]*Message{m}, r.unexpected...)
	return m
}
