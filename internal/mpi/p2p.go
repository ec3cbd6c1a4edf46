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
// workloads that care about content.
func (r *Rank) Send(p *sim.Proc, dst, tag int, size int64, payload any) {
	r.checkRank(dst)
	checkUserTag(tag)
	r.send(p, dst, tag, size, payload)
}

// checkUserTag rejects tags outside the application range: negative
// values are wildcards and tags at or above the collective base are
// reserved for the collective algorithms.
func checkUserTag(tag int) {
	if tag < 0 || tag >= collectiveTagBase {
		panic(fmt.Sprintf("mpi: tag %d outside application range [0,%d)", tag, collectiveTagBase)) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
}

// send is Send without the tag guard, shared with the collectives
// (which use the reserved tag space). The envelope sequence number is
// claimed on entry so posting order defines matching order.
func (r *Rank) send(p *sim.Proc, dst, tag int, size int64, payload any) {
	r.sendSeqed(p, r.claimSeq(dst), dst, tag, size, payload)
}

// claimSeq reserves the next envelope sequence number toward dst.
func (r *Rank) claimSeq(dst int) int64 {
	seq := r.sendSeq[dst]
	r.sendSeq[dst] = seq + 1
	return seq
}

// sendSeqed is the send body with a pre-claimed sequence number
// (Isend claims at call time, before its helper process runs).
func (r *Rank) sendSeqed(p *sim.Proc, seq int64, dst, tag int, size int64, payload any) {
	r.overhead(p, r.w.cfg.SendOverheadCycles)
	r.byteWork(p, size)
	r.stats.MsgsSent++
	r.stats.BytesSent += size

	if dst == r.id {
		// Self-send: local copy only, delivered immediately.
		r.deliverLocal(&Message{Src: r.id, Dst: dst, Tag: tag, Size: size, Payload: payload, kind: kindEager, seq: seq}) //lint:allow hotalloc (one envelope per message; still to be pooled)
		return
	}

	if size <= r.w.cfg.EagerThreshold {
		m := &Message{Src: r.id, Dst: dst, Tag: tag, Size: size, Payload: payload, kind: kindEager, seq: seq} //lint:allow hotalloc (one envelope per message; still to be pooled)
		r.transmit(m, size, size >= 1024)
		return
	}

	// Rendezvous: RTS → wait for CTS → stream payload → wait for drain.
	r.nextHandle++
	h := r.nextHandle
	cts := sim.NewCond(r.eng())
	r.rendezvous[h] = cts
	rts := &Message{Src: r.id, Dst: dst, Tag: tag, Size: size, kind: kindRTS, handle: h, seq: seq} //lint:allow hotalloc (one envelope per message; still to be pooled)
	r.transmitControl(rts)
	r.waitOn(p, cts)

	data := &Message{Src: r.id, Dst: dst, Tag: tag, Size: size, Payload: payload, kind: kindRData, handle: h} //lint:allow hotalloc (one envelope per message; still to be pooled)
	txDone := r.transmit(data, size, true)
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

// deliverLocal routes a self-send through matching at the current time.
func (r *Rank) deliverLocal(m *Message) {
	r.deliver(m)
}

// Recv blocks until a message matching (src, tag) arrives and returns
// it. src may be AnySource and tag may be AnyTag.
func (r *Rank) Recv(p *sim.Proc, src, tag int) *Message {
	if src != AnySource {
		r.checkRank(src)
	}
	r.overhead(p, r.w.cfg.RecvOverheadCycles)

	m := r.matchOrWait(p, src, tag)
	return r.completeRecv(p, m)
}

// matchOrWait finds a matching envelope in the unexpected queue or
// parks until one is delivered.
func (r *Rank) matchOrWait(p *sim.Proc, src, tag int) *Message {
	for i, m := range r.unexpected {
		if matches(src, tag, m) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...) //lint:allow hotalloc (removes in place; never grows)
			return m
		}
	}
	pr := &postedRecv{src: src, tag: tag, cond: sim.NewCond(r.eng())} //lint:allow hotalloc (one posted receive per unmatched Recv; still to be pooled)
	r.posted = append(r.posted, pr)                                   //lint:allow hotalloc (amortized growth; the list's capacity is reused as it drains)
	return r.waitOn(p, pr.cond).(*Message)
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
		h := m.handle
		dw := sim.NewCond(r.eng())
		r.dataWait[rdKey{src: m.Src, handle: h}] = dw
		cts := &Message{Src: r.id, Dst: m.Src, Tag: m.Tag, Size: r.w.cfg.ControlBytes, kind: kindCTS, handle: h} //lint:allow hotalloc (one CTS envelope per rendezvous; still to be pooled)
		r.transmitControl(cts)
		data := r.waitOn(p, dw).(*Message)
		r.byteWork(p, data.Size)
		r.stats.MsgsRecv++
		r.stats.BytesRecv += data.Size
		return data
	default:
		panic("mpi: matched a non-envelope message") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
}

// Request tracks an outstanding Isend or Irecv.
type Request struct {
	done bool
	cond *sim.Cond
	msg  *Message
}

// Done reports whether the operation has completed.
func (q *Request) Done() bool { return q.done }

// Isend starts a send in the background (a helper process on the same
// node, so its CPU costs still hit this node) and returns a Request for
// Wait.
func (r *Rank) Isend(p *sim.Proc, dst, tag int, size int64, payload any) *Request {
	r.checkRank(dst)
	checkUserTag(tag)
	return r.isend(p, dst, tag, size, payload)
}

//lint:hotpath Isend and the collectives' sends run here once per message
func (r *Rank) isend(_ *sim.Proc, dst, tag int, size int64, payload any) *Request {
	q := &Request{cond: sim.NewCond(r.eng())}       //lint:allow hotalloc (one request per Isend; still to be pooled)
	seq := r.claimSeq(dst)                          // posting order, not helper execution order
	r.eng().Spawn(r.isendName, func(hp *sim.Proc) { //lint:allow hotalloc (one helper process per Isend; still to be replaced)
		r.sendSeqed(hp, seq, dst, tag, size, payload)
		q.done = true
		q.cond.Broadcast()
	})
	return q
}

// Irecv posts a receive immediately (so envelope matching sees it) and
// completes it in the background; the matched message is available from
// Wait.
func (r *Rank) Irecv(p *sim.Proc, src, tag int) *Request {
	if src != AnySource {
		r.checkRank(src)
	}
	return r.irecv(p, src, tag)
}

func (r *Rank) irecv(_ *sim.Proc, src, tag int) *Request {
	q := &Request{cond: sim.NewCond(r.eng())}
	r.eng().Spawn(r.irecvName, func(hp *sim.Proc) {
		q.msg = r.Recv(hp, src, tag)
		q.done = true
		q.cond.Broadcast()
	})
	return q
}

// Wait blocks until the request completes and returns its message
// (nil for sends).
func (r *Rank) Wait(p *sim.Proc, q *Request) *Message {
	if !q.done {
		r.waitOn(p, q.cond)
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
	sq := r.Isend(p, dst, sendTag, size, payload)
	m := r.Recv(p, src, recvTag)
	r.Wait(p, sq)
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
	pr := &postedRecv{src: src, tag: tag, cond: sim.NewCond(r.eng())}
	r.posted = append(r.posted, pr)
	m := r.waitOn(p, pr.cond).(*Message)
	r.unexpected = append([]*Message{m}, r.unexpected...)
	return m
}
