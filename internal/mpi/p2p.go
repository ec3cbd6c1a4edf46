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
// (which use the reserved tag space). It runs on a send record, as an
// Isend does, and the calling process parks once: the record's last
// event, the end of the copy for an eager message or of the payload's
// drain for a rendezvous one, resumes it.
func (r *Rank) send(p *sim.Proc, dst, tag int, size int64, payload any) {
	s := r.takeSend(dst, tag, size, payload)
	s.p = p
	s.charge(machine.Compute, r.w.cfg.SendOverheadCycles, stepOverheadEnd)
	p.Park()
}

// takeSend claims the next envelope sequence number toward dst, so
// that posting order, not execution order, defines matching order, and
// loads the send into a record from the rank's free list.
func (r *Rank) takeSend(dst, tag int, size int64, payload any) *sendRec {
	seq := r.sendSeq[dst]
	r.sendSeq[dst] = seq + 1
	s := pop(&r.sends)
	if s == nil {
		s = &sendRec{r: r} //lint:allow hotalloc (pool miss: the free list grows to the peak number of sends in flight)
		s.onStep = s.run
	}
	s.seq, s.dst, s.tag, s.size, s.payload = seq, dst, tag, size, payload
	return s
}

// startCharge puts the node in state st for cycles of core-clocked
// work and returns the state token and the instant the charge ends, at
// which the caller restores Idle with the token. The duration is taken
// when the charge starts, as the node's work primitives take it for a
// process, so a DVS change during a record's charges lands as it would
// for a process.
func (r *Rank) startCharge(st machine.State, cycles float64) (uint64, sim.Time) {
	n := r.node
	d := n.CoreDuration(cycles)
	n.SetState(st)
	return n.StateToken(), r.eng().Now().Add(d)
}

// Recv blocks until a message matching (src, tag) arrives and returns
// it. src may be AnySource and tag may be AnyTag, which matches only
// the world's application tags.
func (r *Rank) Recv(p *sim.Proc, src, tag int) *Message {
	if src != AnySource {
		r.checkRank(src)
	}
	checkRecvTag(tag)
	return r.recv(p, src, tag)
}

// recv is Recv without the argument guards, shared with the
// collectives and Comm.Recv (which use the reserved tag space). It runs
// on the rank's blocking-receive record, or on a pooled one while a
// second process of the rank holds that, and the calling process parks
// once: the record's last event resumes it with the message.
//
//lint:hotpath every blocking and collective receive runs here
func (r *Rank) recv(p *sim.Proc, src, tag int) *Message {
	s := &r.blockRecv
	if s.p != nil {
		s = r.takeRecv()
	}
	s.p, s.pr.src, s.pr.tag = p, src, tag
	s.charge(machine.Compute, r.w.cfg.RecvOverheadCycles, recvPosting)
	p.Park()
	m := s.m
	s.m = nil
	if s != &r.blockRecv {
		r.recvRecs = append(r.recvRecs, s) //lint:allow hotalloc (amortized growth to the peak number of pooled receives in flight, then reused)
	}
	return m
}

// takeRecv takes a receive record from the rank's free list.
func (r *Rank) takeRecv() *recvRec {
	s := pop(&r.recvRecs)
	if s == nil {
		s = new(recvRec) //lint:allow hotalloc (pool miss: the free list grows to the peak number of pooled receives in flight)
		s.bind(r)
	}
	return s
}

// post claims the first envelope in the unexpected queue that pr's
// pattern matches, or appends pr to the posted receives, where admit
// matches it with the next such envelope.
func (r *Rank) post(pr *postedRecv) {
	for i, m := range r.unexpected {
		if matches(pr.src, pr.tag, m) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...) //lint:allow hotalloc (removes in place; never grows)
			pr.msg = m
			return
		}
	}
	r.posted = append(r.posted, pr) //lint:allow hotalloc (amortized growth; the list's capacity is reused as it drains)
}

// recvRec runs one receive as events: a blocking receive, whose
// process parks once while the record runs, or an Irecv, which
// completes a request. Its events carry the keys of the events a
// process running the receive would fire: the end of the overhead
// charge, the wake when the envelope is matched, the end of the byte
// work and, for a rendezvous message, the wake when the payload is in;
// an Irecv's record starts with the event that started its helper
// process. So the choice changes no output. The last event resumes a
// blocking receive's process inside itself (sim.Proc.Resume), and a
// zero-byte message completes in the event that matched it, so no
// event is added for the resume. The record counts its own waits with
// Engine.Block, as a send record does.
//
// A rank's process makes one blocking call at a time, so each rank
// holds the record of its blocking receives; Irecv records, and those
// of a second process's blocking receives, come from a free list. The
// handler is a method value bound when the record is made, and the
// embedded posted receive points back at the record.
type recvRec struct {
	pr     postedRecv
	r      *Rank
	p      *sim.Proc // the parked caller of a blocking receive
	q      *Request  // an Irecv's request
	m      *Message  // the message received: the eager envelope or the rendezvous payload
	token  uint64    // node state token of the charge in progress
	step   recvStep  // what the next event runs, or what the record awaits
	onStep func()
}

// recvStep names the event a receive record runs next, or the delivery
// it waits for.
type recvStep uint8

const (
	recvStart     recvStep = iota // an Irecv's first event: charge the overhead
	recvPosting                   // the overhead ends: post, or take the match
	recvEnvelope                  // waiting for admit to match an envelope
	recvMatched                   // the envelope is in: take it
	recvPayload                   // waiting for a rendezvous payload
	recvPayloadIn                 // the payload is in: charge the byte work
	recvCopyEnd                   // the byte work ends: complete
)

// bind binds s to rank r and its handler to s.
func (s *recvRec) bind(r *Rank) {
	s.r = r
	s.pr.rec = s
	s.onStep = s.run
}

// next schedules the record's handler to run step at t.
func (s *recvRec) next(step recvStep, t sim.Time) {
	s.step = step
	s.r.eng().Schedule(t, s.onStep)
}

// charge starts cycles of core-clocked work in state st and schedules
// step at its end.
func (s *recvRec) charge(st machine.State, cycles float64, step recvStep) {
	var end sim.Time
	s.token, end = s.r.startCharge(st, cycles)
	s.next(step, end)
}

// run is the record's event handler: it runs the step that the
// record's last scheduling named.
//
//lint:hotpath runs once per event of every receive
func (s *recvRec) run() {
	r, n := s.r, s.r.node
	switch s.step {
	case recvStart:
		s.charge(machine.Compute, r.w.cfg.RecvOverheadCycles, recvPosting)
	case recvPosting:
		n.RestoreState(s.token, machine.Idle)
		if s.p != nil { // a blocking receive posts now, an Irecv at its call
			r.post(&s.pr)
		}
		if s.pr.msg != nil {
			s.matched()
			return
		}
		// Wait as Rank.wait waits: spin, then block.
		n.SpinFor(r.w.cfg.SpinThreshold)
		r.eng().Block()
		s.step = recvEnvelope
	case recvMatched:
		n.SetState(machine.Idle)
		s.matched()
	case recvPayloadIn:
		n.SetState(machine.Idle)
		s.copy()
	case recvCopyEnd:
		n.RestoreState(s.token, machine.Idle)
		s.done()
	}
}

// envelopeIn runs when admit matches the record's posted receive. A
// record waiting for it wakes as a waiting process does (wake): at the
// current instant, after the events already queued there. An
// Irecv's record still charging its overhead takes the match when the
// charge ends.
func (s *recvRec) envelopeIn() {
	if s.step != recvEnvelope {
		return
	}
	eng := s.r.eng()
	eng.Unblock()
	s.next(recvMatched, eng.Now())
}

// matched takes the matched envelope. An eager message's byte work
// starts; a rendezvous RTS is answered with a CTS, and the record then
// waits for the payload.
func (s *recvRec) matched() {
	r, m := s.r, s.pr.msg
	s.pr.msg = nil
	switch m.kind {
	case kindEager:
		s.m = m
		s.copy()
	case kindRTS:
		x := m.x
		x.recv = s
		x.cts = Message{Src: r.id, Dst: m.Src, Tag: m.Tag, Size: r.w.cfg.ControlBytes, kind: kindCTS, x: x}
		r.transmitControl(&x.cts)
		r.node.SpinFor(r.w.cfg.SpinThreshold)
		r.eng().Block()
		s.step = recvPayload
	default:
		panic("mpi: matched a non-envelope message") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
}

// dataIn wakes the record when its rendezvous payload m is delivered,
// as envelopeIn wakes it for an envelope.
func (s *recvRec) dataIn(m *Message) {
	eng := s.r.eng()
	eng.Unblock()
	s.m = m
	s.next(recvPayloadIn, eng.Now())
}

// copy charges the byte work for the message received and completes
// the receive at its end; a zero-byte message completes at once.
func (s *recvRec) copy() {
	if s.m.Size <= 0 {
		s.done()
		return
	}
	s.charge(machine.Copy, s.r.byteCycles(s.m.Size), recvCopyEnd)
}

// done counts the message and hands it over. A blocking receive's
// process resumes inside this event and takes the message from the
// record; an Irecv completes its request, and its record goes back to
// the free list.
func (s *recvRec) done() {
	r, m := s.r, s.m
	r.stats.MsgsRecv++
	r.stats.BytesRecv += m.Size
	if p := s.p; p != nil {
		s.p = nil
		p.Resume()
		return
	}
	q := s.q
	s.q, s.m = nil, nil
	r.recvRecs = append(r.recvRecs, s) //lint:allow hotalloc (amortized growth to the peak number of pooled receives in flight, then reused)
	q.msg = m
	q.complete()
}

// Request tracks an outstanding Isend or Irecv. A request that Isend,
// Comm.Isend or Irecv returns is the caller's and is never recycled;
// the library's own sends take theirs from a free list (isendPooled).
type Request struct {
	done bool
	p    *sim.Proc // the process waiting in Wait, if any
	msg  *Message
}

// Done reports whether the operation has completed.
func (q *Request) Done() bool { return q.done }

// complete marks the request done and wakes the process waiting on it,
// if one is.
func (q *Request) complete() {
	q.done = true
	if p := q.p; p != nil {
		q.p = nil
		wake(p)
	}
}

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
	s := r.takeSend(dst, tag, size, payload)
	s.q = q
	s.next(stepStart, r.eng().Now())
}

// sendRec runs one send as events: a blocking send, whose process
// parks once while the record runs, or an Isend, which completes a
// request. They carry the keys of the events a process running the
// blocking send would fire: the ends of the overhead and byte-work
// charges, and for a rendezvous message the CTS wake and the drain's
// spin-then-block steps; an Isend's record starts with the event that
// started the helper process an Isend once ran on. So the choice
// changes no output. The last event resumes a blocking send's process
// inside itself (sim.Proc.Resume). The record's one handler is a method
// value bound when the record is made; the record goes back to its
// rank's free list when the send completes.
type sendRec struct {
	r        *Rank
	p        *sim.Proc // the parked caller of a blocking send
	q        *Request  // an Isend's request
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
	stepStart       sendStep = iota // an Isend's first event: charge the send overhead
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
		x := s.x
		x.data = Message{Src: r.id, Dst: s.dst, Tag: s.tag, Size: s.size, Payload: s.payload, kind: kindRData, x: x}
		s.drain(r.transmit(&x.data, s.size, true))
	case stepSpun:
		n.RestoreState(s.token, machine.Blocked)
		s.token = n.StateToken()
		s.next(stepDrained, s.until)
	case stepDrained:
		n.RestoreState(s.token, machine.Idle)
		s.finish()
	}
}

// charge starts cycles of core-clocked work in state st and schedules
// step at its end.
func (s *sendRec) charge(st machine.State, cycles float64, step sendStep) {
	var end sim.Time
	s.token, end = s.r.startCharge(st, cycles)
	s.next(step, end)
}

// handOff sends the charged message: the traffic counters, then
// self-delivery or the eager transmit, after which the send is
// complete, or, for a rendezvous message (one to another rank above
// EagerThreshold), its exchange record and RTS. A rendezvous send then
// waits for the CTS, as Rank.wait starts a process's wait, and counts
// as blocked until ctsIn wakes it.
func (s *sendRec) handOff() {
	r := s.r
	r.stats.MsgsSent++
	r.stats.BytesSent += s.size
	if s.dst != r.id && s.size > r.w.cfg.EagerThreshold {
		x := &exchange{send: s} //lint:allow hotalloc (the one record per message above EagerThreshold; its data envelope is what Recv hands to its caller)
		x.rts = Message{Src: r.id, Dst: s.dst, Tag: s.tag, Size: s.size, kind: kindRTS, x: x, seq: s.seq}
		s.x = x
		r.transmitControl(&x.rts)
		r.node.SpinFor(r.w.cfg.SpinThreshold)
		r.eng().Block()
		return
	}
	m := &Message{Src: r.id, Dst: s.dst, Tag: s.tag, Size: s.size, Payload: s.payload, kind: kindEager, seq: s.seq} //lint:allow hotalloc (the one allocation per message: the envelope Recv hands to its caller)
	if s.dst == r.id {
		// Self-send: local copy only, delivered immediately.
		r.deliver(m)
	} else {
		r.transmit(m, s.size, s.size >= 1024)
	}
	s.finish()
}

// ctsIn wakes the record when its CTS is delivered, as a waiting
// process wakes (wake): at the current instant, after the events
// already queued there.
func (s *sendRec) ctsIn() {
	eng := s.r.eng()
	eng.Unblock()
	s.next(stepCTS, eng.Now())
}

// drain holds the node in the spin-then-block pattern until the payload
// has left at t, then completes the send. The sender's progress engine
// pushes the payload through the socket until the last byte leaves its
// transmit link, polling (and eventually blocking) as a receive's wait
// does; the drain time is sender-local, so it needs no cross-shard
// state.
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

// finish returns the record to the free list, then resumes a blocking
// send's process inside this event or completes an Isend's request.
func (s *sendRec) finish() {
	r, p, q := s.r, s.p, s.q
	s.p, s.q, s.payload, s.x = nil, nil, nil, nil
	r.sends = append(r.sends, s) //lint:allow hotalloc (amortized growth to the peak number of sends in flight, then reused)
	if p != nil {
		p.Resume()
		return
	}
	q.complete()
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
// completes it in the background, on a receive record from the rank's
// free list; the matched message is available from Wait.
func (r *Rank) Irecv(p *sim.Proc, src, tag int) *Request {
	if src != AnySource {
		r.checkRank(src)
	}
	checkRecvTag(tag)
	q := new(Request)
	s := r.takeRecv()
	s.q, s.pr.src, s.pr.tag = q, src, tag
	r.post(&s.pr)
	s.next(recvStart, r.eng().Now())
	return q
}

// Wait blocks until the request completes and returns its message
// (nil for sends). One process at a time may wait on a request: MPI
// makes two threads waiting on one request erroneous, so a second
// waiter aborts.
//
//lint:hotpath every collective waits here for its sends to complete
func (r *Rank) Wait(p *sim.Proc, q *Request) *Message {
	if !q.done {
		if q.p != nil {
			panic("mpi: two processes wait on one request") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
		}
		q.p = p
		r.wait(p)
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
// returns its envelope without consuming it: a receive posted before
// the message arrived takes it, and otherwise a subsequent Recv with
// the same pattern returns the message itself.
func (r *Rank) Probe(p *sim.Proc, src, tag int) *Message {
	if m, ok := r.Iprobe(p, src, tag); ok {
		return m
	}
	// Iprobe has just found nothing and nothing has run since, so the
	// probe posts without searching the unexpected queue.
	pr := &postedRecv{src: src, tag: tag, p: p}
	r.posted = append(r.posted, pr)
	r.wait(p)
	return pr.msg
}
