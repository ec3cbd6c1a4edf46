// Package mpi is a message-passing runtime for the simulated cluster,
// modeled on MPICH 1.2.5 over TCP (the paper's stack): an eager protocol
// for small messages, a rendezvous protocol for large ones, busy-polling
// progress (which is why MPI wait time looks like 100% CPU utilization
// to the OS), and the standard binomial/pairwise collective algorithms.
//
// Every rank runs as a simulated process bound to one machine.Node; all
// CPU costs of the library (per-message overhead, per-byte copies and
// checksumming, spinning) are charged to that node so the power model
// sees exactly what the workload does.
package mpi

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config holds the software cost model of the MPI library.
type Config struct {
	// EagerThreshold is the message size (bytes) up to which messages
	// are sent eagerly (fire-and-forget into the receiver's buffer).
	// Larger messages use the rendezvous protocol.
	EagerThreshold int64
	// SpinThreshold is how long a wait busy-polls before the library
	// falls back to blocking in the kernel. MPICH 1.2.5's p4 device
	// polls aggressively; waits shorter than this look 100% busy to
	// the OS. Negative means spin forever.
	SpinThreshold sim.Duration
	// SendOverheadCycles and RecvOverheadCycles are the per-message
	// software costs (matching, headers, syscalls) on each side.
	SendOverheadCycles float64
	RecvOverheadCycles float64
	// PerByteCycles is the per-byte CPU cost on each side for
	// rendezvous (large) messages: staging copies plus TCP
	// checksumming. It is what makes communication time slightly
	// frequency dependent (paper Fig. 8a: +6% at 600 MHz).
	PerByteCycles float64
	// PerByteCyclesEager is the per-byte cost for eager (small)
	// messages, whose single copy stays cache-resident and is much
	// cheaper (paper Fig. 8b: only +4% at 600 MHz).
	PerByteCyclesEager float64
	// ControlBytes is the wire size of RTS/CTS handshake messages.
	ControlBytes int64
	// ReduceFlopsPerByte converts reduction payload bytes into
	// combine work (1 flop per 8-byte element by default).
	ReduceFlopsPerByte float64
	// AllreduceLargeThreshold is the payload size (bytes) at or above
	// which Allreduce switches from reduce+bcast (two binomial trees
	// rooted at rank 0 — fine for latency-bound sizes, but the root's
	// links carry every byte twice) to recursive doubling, whose
	// bandwidth load is spread across all links, MPICH-style. Zero or
	// negative disables the large path.
	AllreduceLargeThreshold int64
}

// DefaultConfig returns the calibrated MPICH-1.2.5-over-TCP cost model.
func DefaultConfig() Config {
	return Config{
		EagerThreshold:          64 << 10,
		SpinThreshold:           4 * sim.Second,
		SendOverheadCycles:      25_000,
		RecvOverheadCycles:      25_000,
		PerByteCycles:           3.3,
		PerByteCyclesEager:      1.8,
		ControlBytes:            64,
		ReduceFlopsPerByte:      0.125,
		AllreduceLargeThreshold: 64 << 10,
	}
}

// World is a communicator spanning one rank per node. The nodes are
// partitioned across the shards of a sim.Group (one shard is the
// sequential case); cross-shard deliveries travel through the group's
// inboxes with a shard-count-invariant (source, sequence) arrival key,
// so a sharded run is byte-identical to a single-shard one.
type World struct {
	group *sim.Group
	sw    netsim.Fabric
	cfg   Config
	ranks []*Rank
	xseq  []uint64 // per-source-rank arrival sequence (claimed on the source shard)
	shard []int    // rank -> shard index

	nextCommSlot int // next sub-communicator tag-space slot (1-based)
}

// NewWorld builds a world with one rank bound to each node, partitioned
// across the shards of g: rank i runs on nodes[i].Engine(), which must
// be one of the group's shard engines, and uses fabric port i (the
// fabric must have at least as many ports as nodes). Message delivery
// between ranks on different shards is routed through the group; the
// fabric's MinLatency must be at least the group's lookahead for the
// conservative window to be sound.
func NewWorld(g *sim.Group, nodes []*machine.Node, sw netsim.Fabric, cfg Config) *World {
	if len(nodes) == 0 {
		panic("mpi: empty world") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
	if sw.Ports() < len(nodes) {
		panic(fmt.Sprintf("mpi: %d nodes but only %d switch ports", len(nodes), sw.Ports())) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
	if g.Size() > 1 && sw.MinLatency() < g.Lookahead() {
		// A single-shard group never crosses a shard boundary and runs
		// from global to global, not by the lookahead, so any fabric is
		// safe.
		panic("mpi: fabric minimum latency below group lookahead") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
	w := &World{
		group:        g,
		sw:           sw,
		cfg:          cfg,
		xseq:         make([]uint64, len(nodes)),
		shard:        make([]int, len(nodes)),
		nextCommSlot: 1,
	}
	for i, n := range nodes {
		w.shard[i] = -1
		for j := 0; j < g.Size(); j++ {
			if g.Engine(j) == n.Engine() {
				w.shard[i] = j
				break
			}
		}
		if w.shard[i] < 0 {
			panic(fmt.Sprintf("mpi: node %d not on a group shard", i)) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
		}
		w.ranks = append(w.ranks, &Rank{
			w:         w,
			id:        i,
			node:      n,
			sendSeq:   make([]int64, len(nodes)),
			expectSeq: make([]int64, len(nodes)),
			irecvName: fmt.Sprintf("rank%d.irecv", i),
		})
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i's handle.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Config returns the library cost model.
func (w *World) Config() Config { return w.cfg }

// SpawnRanks starts body as the main program of every rank, SPMD-style
// on each rank's own engine, and returns the spawned processes.
func (w *World) SpawnRanks(body func(p *sim.Proc, r *Rank)) []*sim.Proc {
	procs := make([]*sim.Proc, len(w.ranks))
	for i, r := range w.ranks {
		r := r
		procs[i] = r.eng().Spawn(fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			body(p, r)
		})
	}
	return procs
}

// post schedules fn at absolute time t in rank dst's engine, ordered by
// the shard-count-invariant (src, sequence) arrival key. Same-shard
// deliveries enqueue directly; cross-shard deliveries park in the
// group's inbox until the next window barrier. Both paths use the same
// key, so the heap order — and therefore the simulation — is identical
// at any shard count.
//
//lint:ownedby rank dst
func (w *World) post(src, dst int, t sim.Time, fn func()) {
	w.xseq[src]++
	if w.shard[src] != w.shard[dst] {
		w.group.Post(w.shard[dst], t, src, w.xseq[src], fn)
		return
	}
	w.ranks[dst].eng().PostArrival(t, src, w.xseq[src], fn)
}

// nicOn marks node's NIC busy over [from, to]. One direction's windows
// never overlap, because its link serializes them, but they touch when
// messages queue back to back; a transmit window and a receive window
// can overlap. The node keeps the windows as data and applies their
// edges lazily, so no event is scheduled. It must be called from the
// node's own shard: the sender marks its side at Send time, the
// receiver marks its side when the arrival fires.
//
//lint:hotpath runs on both ends of every simulated message
func (w *World) nicOn(node int, from, to sim.Time) {
	w.ranks[node].node.NICBusy(from, to)
}

// Message is a delivered MPI message.
type Message struct {
	Src, Dst int
	Tag      int
	Size     int64
	Payload  any

	kind msgKind
	x    *exchange // the rendezvous this message belongs to; nil for eager
	seq  int64     // per-(src,dst) envelope sequence for non-overtaking
}

type msgKind int

const (
	kindEager msgKind = iota
	kindRTS           // rendezvous request-to-send (carries envelope)
	kindCTS           // rendezvous clear-to-send
	kindRData         // rendezvous payload
)

// exchange is one rendezvous message: its three envelopes and the two
// waits they end. The sender makes it, and every envelope points back
// at it, so a delivery wakes the wait it ends without a lookup. Each
// wait is touched only on its waiter's shard: the CTS wait on the
// sender's, the data wait on the receiver's.
type exchange struct {
	rts, cts, data Message
	ctsWait        sim.Cond // a blocking sender waits here for the CTS
	dataWait       sim.Cond // the receiver waits here for the payload
	send           *sendRec // the Isend record awaiting the CTS; nil for a blocking send
}

// Stats aggregates a rank's traffic counters.
type Stats struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
}

// Rank is one MPI process.
type Rank struct {
	w    *World
	id   int
	node *machine.Node

	posted     []*postedRecv
	unexpected []*Message

	// Non-overtaking machinery (MPI ordering semantics): envelopes from
	// one sender carry a sequence number; a receiver only admits them
	// to matching in order, stashing early arrivals. Without this, a
	// latency-only RTS could overtake an eager message still
	// serializing on the wire. The counters are dense, indexed by world
	// rank; the stash is made on the first early arrival and consulted
	// only while nstashed is nonzero.
	sendSeq   []int64 // next sequence number toward each destination
	expectSeq []int64 // next sequence number admitted from each source
	stashed   map[int]map[int64]*Message
	nstashed  int

	// Free lists of the records a message path needs, each touched only
	// on this rank's shard. A list grows to the peak number of its
	// records in use at once and then recycles them. flights holds
	// in-flight records: transmit takes one here and the delivery
	// returns it to the receiving rank's list. sends holds Isend
	// records, reqs the requests of the library's own Isends
	// (collectives and Sendrecv), and recvs posted receives.
	flights []*flight
	sends   []*sendRec
	reqs    []*Request
	recvs   []*postedRecv

	collSeq int // per-rank collective sequence (SPMD-aligned)

	// The Irecv helper process's name, built once: it appears only in
	// panic text.
	irecvName string

	stats Stats
}

// postedRecv is a receive waiting for its envelope. admit stores the
// match in msg before it signals cond, so a match that lands before
// anyone waits (Irecv posts before its helper runs) is kept.
type postedRecv struct {
	src, tag int
	msg      *Message
	cond     sim.Cond
}

// eng returns the engine this rank (and all its helper processes and
// delivery events) runs on: its node's.
func (r *Rank) eng() *sim.Engine { return r.node.Engine() }

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Node returns the machine this rank runs on.
func (r *Rank) Node() *machine.Node { return r.node }

// World returns the communicator.
func (r *Rank) World() *World { return r.w }

// Stats returns the rank's traffic counters.
func (r *Rank) Stats() Stats { return r.stats }

// matches reports whether a posted (src,tag) pattern accepts msg.
// Only eager data and RTS envelopes participate in matching, and AnyTag
// matches only the world's application tags, never a sub-communicator's
// context or a collective's reserved tag.
func matches(src, tag int, m *Message) bool {
	if m.kind != kindEager && m.kind != kindRTS {
		return false
	}
	if src != AnySource && m.Src != src {
		return false
	}
	if tag == AnyTag {
		return m.Tag < commP2PBase
	}
	return m.Tag == tag
}

// deliver runs at the message's arrival time on the receiving rank.
func (r *Rank) deliver(m *Message) {
	switch m.kind {
	case kindEager, kindRTS:
		// Enforce per-sender envelope order: admit in sequence,
		// stashing early arrivals until their predecessors land.
		if m.seq != r.expectSeq[m.Src] {
			r.stash(m)
			return
		}
		r.admit(m)
		r.expectSeq[m.Src]++
		if r.nstashed > 0 {
			r.admitStashed(m.Src)
		}
	case kindCTS:
		if s := m.x.send; s != nil {
			s.ctsIn()
		} else {
			m.x.ctsWait.Signal(m)
		}
	case kindRData:
		m.x.dataWait.Signal(m)
	}
}

// stash holds an envelope that arrived ahead of its predecessors from
// the same sender.
func (r *Rank) stash(m *Message) {
	if r.stashed == nil {
		r.stashed = make(map[int]map[int64]*Message) //lint:allow hotalloc (once per rank, on its first out-of-order arrival)
	}
	st := r.stashed[m.Src]
	if st == nil {
		st = make(map[int64]*Message) //lint:allow hotalloc (once per sender, on its first out-of-order arrival)
		r.stashed[m.Src] = st
	}
	st[m.seq] = m
	r.nstashed++
}

// admitStashed admits the stashed envelopes from src that are now in
// sequence.
func (r *Rank) admitStashed(src int) {
	st := r.stashed[src]
	for {
		next, ok := st[r.expectSeq[src]]
		if !ok {
			return
		}
		delete(st, r.expectSeq[src])
		r.nstashed--
		r.admit(next)
		r.expectSeq[src]++
	}
}

// admit runs envelope matching for an in-order envelope.
func (r *Rank) admit(m *Message) {
	for i, pr := range r.posted {
		if matches(pr.src, pr.tag, m) {
			r.posted = append(r.posted[:i], r.posted[i+1:]...) //lint:allow hotalloc (removes in place; never grows)
			pr.msg = m
			pr.cond.Signal(nil)
			return
		}
	}
	r.unexpected = append(r.unexpected, m) //lint:allow hotalloc (amortized growth; the queue's capacity is reused as it drains)
}

// flight is one message between its transmit and its delivery. Its
// arrival and delivery handlers are method values bound once, when the
// record is made, so posting them allocates nothing. A record comes
// from the sending rank's free list and goes back onto the receiving
// rank's at delivery: each list is touched only by its own rank's
// shard, and the Group inbox orders the handoff between shards.
type flight struct {
	w       *World
	m       *Message
	wire    int64
	arrive  sim.Time
	ser     sim.Duration
	markNIC bool

	onArrival, onDelivery func()
}

// pop takes the last record off a free list, or returns nil when the
// list is empty.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	x := (*list)[n-1]
	*list = (*list)[:n-1]
	return x
}

// takeFlight returns a free in-flight record of this rank.
func (r *Rank) takeFlight() *flight {
	f := pop(&r.flights)
	if f == nil {
		f = &flight{w: r.w} //lint:allow hotalloc (pool miss: the free lists grow to the peak number of messages in flight)
		f.onArrival = f.arrival
		f.onDelivery = f.delivery
	}
	return f
}

// arrival runs on the receiving rank's shard when the message's first
// byte reaches it: it books the receive side (fan-in contention
// resolves in deterministic arrival order) and schedules delivery.
//
//lint:hotpath runs once per data message
func (f *flight) arrival() {
	w, m := f.w, f.m
	deliver := w.sw.Accept(m.Src, m.Dst, f.wire, f.arrive)
	if f.markNIC {
		w.nicOn(m.Dst, deliver-sim.Time(f.ser), deliver)
	}
	w.ranks[m.Dst].eng().Schedule(deliver, f.onDelivery)
}

// delivery hands the message to the receiving rank and returns the
// record to that rank's free list.
//
//lint:hotpath runs once per message
func (f *flight) delivery() {
	m := f.m
	f.m = nil
	dst := f.w.ranks[m.Dst]
	dst.flights = append(dst.flights, f) //lint:allow hotalloc (amortized growth to the peak number of messages in flight, then reused)
	dst.deliver(m)
}

// transmit books the transmit side of m on the network from sender
// context and posts its arrival to the receiving rank's shard. It
// returns when the last byte leaves the sender — the only instant the
// sender can know without reading receiver state across the shard
// boundary. wire differs from m.Size for rendezvous control messages,
// whose envelope describes a large payload but whose own footprint is a
// small header. Control messages are too small to bother marking NIC
// activity.
func (r *Rank) transmit(m *Message, wire int64, markNIC bool) sim.Time {
	w := r.w
	start, arrive := w.sw.Send(m.Src, m.Dst, wire, r.eng().Now())
	ser := w.sw.SerializationTime(wire)
	if markNIC {
		w.nicOn(m.Src, start, start.Add(ser))
	}
	f := r.takeFlight()
	f.m, f.wire, f.arrive, f.ser, f.markNIC = m, wire, arrive, ser, markNIC
	w.post(m.Src, m.Dst, arrive, f.onArrival)
	return start.Add(ser)
}

// transmitControl sends a protocol control message on the priority path
// (no link occupancy) and posts its delivery to the receiver's shard.
func (r *Rank) transmitControl(m *Message) sim.Time {
	w := r.w
	deliverAt := w.sw.Control(m.Src, m.Dst, w.cfg.ControlBytes, r.eng().Now())
	f := r.takeFlight()
	f.m = m
	w.post(m.Src, m.Dst, deliverAt, f.onDelivery)
	return deliverAt
}

// waitOn parks the process on c with the library's spin-then-block
// behaviour, leaving the node Idle afterwards and returning the value
// the waker delivered. The node falls back from Spin to Blocked after
// SpinThreshold unless the wait ends first (machine.Node.SpinFor).
func (r *Rank) waitOn(p *sim.Proc, c *sim.Cond) any {
	r.node.SpinFor(r.w.cfg.SpinThreshold)
	v := c.Wait(p)
	r.node.SetState(machine.Idle)
	return v
}

// byteWork charges the per-byte software cost (copies + checksums) for
// a message of the given size, in the Copy activity state.
func (r *Rank) byteWork(p *sim.Proc, size int64) {
	if size <= 0 {
		return
	}
	r.node.CopyCycles(p, r.byteCycles(size))
}

// byteCycles is the per-byte software cost of a message of the given
// size. Messages at or below the eager threshold use the cheaper
// cache-resident rate.
func (r *Rank) byteCycles(size int64) float64 {
	rate := r.w.cfg.PerByteCycles
	if size <= r.w.cfg.EagerThreshold {
		rate = r.w.cfg.PerByteCyclesEager
	}
	return float64(size) * rate
}

// overhead charges fixed per-message software cost.
func (r *Rank) overhead(p *sim.Proc, cycles float64) {
	r.node.Compute(p, cycles)
}
