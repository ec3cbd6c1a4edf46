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
// (which use the reserved tag space). The envelope sequence number is
// claimed on entry so posting order defines matching order.
func (r *Rank) send(p *sim.Proc, dst, tag int, size int64, payload any) {
	r.sendSeqed(p, r.claimSeq(dst), dst, tag, size, payload, nil)
}

// claimSeq reserves the next envelope sequence number toward dst.
func (r *Rank) claimSeq(dst int) int64 {
	seq := r.sendSeq[dst]
	r.sendSeq[dst] = seq + 1
	return seq
}

// sendSeqed is the send body with a pre-claimed sequence number
// (Isend claims at call time, before its helper process runs): the
// overhead and byte charges, then sendCharged. A blocking send passes a
// nil q.
func (r *Rank) sendSeqed(p *sim.Proc, seq int64, dst, tag int, size int64, payload any, q *Request) {
	r.overhead(p, r.w.cfg.SendOverheadCycles)
	r.byteWork(p, size)
	r.sendCharged(p, seq, dst, tag, size, payload, q)
}

// eagerOrSelf reports whether a send of size bytes to dst completes
// without waiting for the receiver: a self-send or an eager message.
func (r *Rank) eagerOrSelf(dst int, size int64) bool {
	return dst == r.id || size <= r.w.cfg.EagerThreshold
}

// sendCharged runs what follows a send's two charges, for blocking
// sends, Isend helpers and eager Isend records alike: the traffic
// counters, then self-delivery, the eager transmit or the rendezvous
// exchange, then the completion of q unless it is nil. Only the
// rendezvous exchange waits, so an eager or self send may pass a nil p.
func (r *Rank) sendCharged(p *sim.Proc, seq int64, dst, tag int, size int64, payload any, q *Request) {
	r.stats.MsgsSent++
	r.stats.BytesSent += size
	if r.eagerOrSelf(dst, size) {
		m := &Message{Src: r.id, Dst: dst, Tag: tag, Size: size, Payload: payload, kind: kindEager, seq: seq} //lint:allow hotalloc (the one allocation per message: the envelope Recv hands to its caller)
		if dst == r.id {
			// Self-send: local copy only, delivered immediately.
			r.deliver(m)
		} else {
			r.transmit(m, size, size >= 1024)
		}
	} else {
		r.sendRendezvous(p, seq, dst, tag, size, payload)
	}
	if q != nil {
		q.done = true
		q.cond.Broadcast()
	}
}

// sendRendezvous runs the rendezvous exchange: RTS → wait for CTS →
// stream payload → wait for drain.
func (r *Rank) sendRendezvous(p *sim.Proc, seq int64, dst, tag int, size int64, payload any) {
	x := &exchange{} //lint:allow hotalloc (the one record per message above EagerThreshold; its data envelope is what Recv hands to its caller)
	x.rts = Message{Src: r.id, Dst: dst, Tag: tag, Size: size, kind: kindRTS, x: x, seq: seq}
	r.transmitControl(&x.rts)
	r.waitOn(p, &x.ctsWait)

	x.data = Message{Src: r.id, Dst: dst, Tag: tag, Size: size, Payload: payload, kind: kindRData, x: x}
	txDone := r.transmit(&x.data, size, true)
	// The sender's progress engine actively pushes the payload through
	// the socket until the last byte leaves its transmit link; it polls
	// (and eventually blocks) exactly like a receive-side wait. The
	// drain time is sender-local, so it needs no cross-shard state.
	r.spinUntil(p, txDone)
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

// isend starts a send that completes q. An eager or self send runs as
// the three events of a pooled send record; a rendezvous send runs in a
// helper process, because it must wait for the CTS. Either way the
// envelope sequence number is claimed here, so posting order, not
// execution order, defines matching order.
//
//lint:hotpath Isend and the collectives' sends run here once per message
func (r *Rank) isend(_ *sim.Proc, q *Request, dst, tag int, size int64, payload any) {
	seq := r.claimSeq(dst)
	if r.eagerOrSelf(dst, size) {
		r.takeSend().start(q, seq, dst, tag, size, payload)
		return
	}
	r.eng().Spawn(r.isendName, func(hp *sim.Proc) { //lint:allow hotalloc (one helper process per rendezvous Isend, which must wait for the CTS)
		r.sendSeqed(hp, seq, dst, tag, size, payload, q)
	})
}

// sendRec runs one eager or self Isend as events: the start at the
// Isend instant, the end of the send overhead and, for a nonempty
// message, the end of the byte work. They carry the keys of the three
// events a helper process running sendSeqed would fire, so the choice
// between the two changes no output. Each charge's duration is taken
// when the charge starts, as the node's work primitives take it, so a
// DVS change between the two charges lands as it would for a process.
// The handlers are method values bound once, when the record is made;
// the record goes back to its rank's free list when the send
// completes.
type sendRec struct {
	r        *Rank
	q        *Request
	payload  any
	size     int64
	seq      int64
	dst, tag int
	token    uint64 // node state token of the charge in progress

	onStart, onOverhead, onCopy func()
}

// takeSend returns a free send record of this rank.
func (r *Rank) takeSend() *sendRec {
	s := pop(&r.sends)
	if s == nil {
		s = &sendRec{r: r} //lint:allow hotalloc (pool miss: the free list grows to the peak number of eager Isends in flight)
		s.onStart = s.overhead
		s.onOverhead = s.overheadEnd
		s.onCopy = s.copyEnd
	}
	return s
}

// start fills the record and schedules its first event at the current
// instant.
func (s *sendRec) start(q *Request, seq int64, dst, tag int, size int64, payload any) {
	s.q, s.seq, s.dst, s.tag, s.size, s.payload = q, seq, dst, tag, size, payload
	eng := s.r.eng()
	eng.Schedule(eng.Now(), s.onStart)
}

// charge puts the node in state st for cycles of core-clocked work and
// schedules next at the charge's end.
func (s *sendRec) charge(st machine.State, cycles float64, next func()) {
	n := s.r.node
	d := n.CoreDuration(cycles)
	n.SetState(st)
	s.token = n.StateToken()
	eng := s.r.eng()
	eng.Schedule(eng.Now().Add(d), next)
}

// overhead charges the send overhead.
//
//lint:hotpath runs once per eager Isend
func (s *sendRec) overhead() {
	s.charge(machine.Compute, s.r.w.cfg.SendOverheadCycles, s.onOverhead)
}

// overheadEnd ends the overhead charge, then charges the byte work or,
// for an empty message, completes the send.
//
//lint:hotpath runs once per eager Isend
func (s *sendRec) overheadEnd() {
	s.r.node.RestoreState(s.token, machine.Idle)
	if s.size <= 0 {
		s.finish()
		return
	}
	s.charge(machine.Copy, s.r.byteCycles(s.size), s.onCopy)
}

// copyEnd ends the byte-work charge and completes the send.
//
//lint:hotpath runs once per nonempty eager Isend
func (s *sendRec) copyEnd() {
	s.r.node.RestoreState(s.token, machine.Idle)
	s.finish()
}

// finish completes the send and returns the record to the free list.
func (s *sendRec) finish() {
	r := s.r
	r.sendCharged(nil, s.seq, s.dst, s.tag, s.size, s.payload, s.q)
	s.q, s.payload = nil, nil
	r.sends = append(r.sends, s) //lint:allow hotalloc (amortized growth to the peak number of eager Isends in flight, then reused)
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
