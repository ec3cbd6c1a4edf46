package mpi

// Sub-communicators: MPI_Comm_split-style groups over subsets of the
// world, with their own rank numbering, tag space, and collective
// sequence. Point-to-point traffic inside a communicator is isolated
// from world traffic by a reserved tag context, so a row communicator's
// exchanges cannot be matched by a column communicator's receives.

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Comm p2p context layout: user tags inside a communicator are remapped
// to commP2PBase + slot*commP2PStride + tag, below the collective space.
const (
	commP2PBase   = 1 << 28
	commP2PStride = 1 << 16
	// MaxCommTag is the largest user tag allowed inside a communicator.
	MaxCommTag = commP2PStride - 1
)

// Comm is this rank's handle on a sub-communicator.
type Comm struct {
	r     *Rank
	ranks []int // comm rank → world rank
	me    int   // my comm rank
	slot  int   // tag-space slot (1-based; 0 is the world)
	seq   int   // collective sequence
}

// splitEntry travels through the split's gather/bcast.
type splitEntry struct {
	color, key, world int
}

// splitResult is what rank 0 broadcasts: the sorted table plus the
// first tag-space slot allocated for this split's communicators.
type splitResult struct {
	table    []splitEntry
	baseSlot int
}

// Split partitions the world into sub-communicators, MPI_Comm_split
// style: ranks passing the same color land in the same communicator,
// ordered by (key, world rank). A negative color returns nil (the rank
// joins nothing). Split is collective over the world and costs real
// communication (a gather of the color/key table and a broadcast of
// the result).
func (r *Rank) Split(p *sim.Proc, color, key int) *Comm {
	// Exchange (color, key) via rank 0, which also allocates the slot
	// block for this split deterministically.
	entries := r.Gather(p, 0, 16, splitEntry{color: color, key: key, world: r.id})
	var res splitResult
	if r.id == 0 {
		for _, e := range entries {
			res.table = append(res.table, e.(splitEntry))
		}
		sort.Slice(res.table, func(i, j int) bool {
			a, b := res.table[i], res.table[j]
			if a.color != b.color {
				return a.color < b.color
			}
			if a.key != b.key {
				return a.key < b.key
			}
			return a.world < b.world
		})
		// Rank 0 allocates the slot block once for the whole split and
		// ships the base with the table, so every member agrees on the
		// communicators' tag spaces.
		res.baseSlot = r.w.allocCommSlots(countColors(res.table))
	}
	payload := r.Bcast(p, 0, int64(16*r.Size()), res)
	res = payload.(splitResult)
	table := res.table

	// Distinct non-negative colors, in sorted-table order, get
	// consecutive slots starting at the broadcast base. Every rank
	// walks the same table, so the mapping agrees.
	slot := res.baseSlot - 1
	prevColor := -1 << 62
	var myComm *Comm
	for _, e := range table {
		if e.color < 0 {
			continue
		}
		if e.color != prevColor {
			slot++
			prevColor = e.color
		}
		if e.color == color {
			// Collect this communicator's members.
			var members []int
			for _, m := range table {
				if m.color == color {
					members = append(members, m.world)
				}
			}
			me := -1
			for i, wrank := range members {
				if wrank == r.id {
					me = i
				}
			}
			if me < 0 {
				panic("mpi: split table missing self") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
			}
			myComm = &Comm{r: r, ranks: members, me: me, slot: slot}
			break
		}
	}
	return myComm
}

// countColors returns the number of distinct non-negative colors in a
// sorted split table.
func countColors(table []splitEntry) int {
	n := 0
	prev := -1 << 62
	for _, e := range table {
		if e.color >= 0 && e.color != prev {
			n++
			prev = e.color
		}
	}
	return n
}

// allocCommSlots reserves n consecutive tag-space slots and returns the
// first. Slots are a finite resource (the tag space is fixed); a
// program creating more than 63 communicators over its lifetime is
// outside this substrate's envelope.
func (w *World) allocCommSlots(n int) int {
	first := w.nextCommSlot
	if first+n-1 > maxCommSlots {
		panic(fmt.Sprintf("mpi: out of communicator tag slots (%d allocated)", w.nextCommSlot-1)) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
	w.nextCommSlot += n
	return first
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the communicator's member count.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a comm rank to its world rank.
func (c *Comm) WorldRank(pos int) int {
	if pos < 0 || pos >= len(c.ranks) {
		panic(fmt.Sprintf("mpi: comm rank %d out of range [0,%d)", pos, len(c.ranks))) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
	return c.ranks[pos]
}

// view builds the group view for collective algorithms.
func (c *Comm) view(p *sim.Proc) view {
	return view{r: c.r, size: len(c.ranks), me: c.me, ranks: c.ranks, slot: c.slot, seq: &c.seq, p: p}
}

// ctag maps a user tag into this communicator's p2p context.
func (c *Comm) ctag(tag int) int {
	if tag < 0 || tag > MaxCommTag {
		panic(fmt.Sprintf("mpi: comm tag %d outside [0,%d]", tag, MaxCommTag)) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
	return commP2PBase + c.slot*commP2PStride + tag
}

// Send transmits within the communicator (dst is a comm rank).
func (c *Comm) Send(p *sim.Proc, dst, tag int, size int64, payload any) {
	c.r.send(p, c.WorldRank(dst), c.ctag(tag), size, payload)
}

// Recv receives within the communicator (src is a comm rank, or
// AnySource). Tag wildcards are not supported inside communicators.
func (c *Comm) Recv(p *sim.Proc, src, tag int) *Message {
	worldSrc := AnySource
	if src != AnySource {
		worldSrc = c.WorldRank(src)
	}
	m := c.r.recvColl(p, worldSrc, c.ctag(tag))
	// Translate the source back into comm numbering.
	for pos, wrank := range c.ranks {
		if wrank == m.Src {
			m = &Message{Src: pos, Dst: c.me, Tag: tag, Size: m.Size, Payload: m.Payload}
			return m
		}
	}
	panic("mpi: comm received from non-member") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
}

// Isend is Send in the background.
func (c *Comm) Isend(p *sim.Proc, dst, tag int, size int64, payload any) *Request {
	q := new(Request)
	c.r.isend(p, q, c.WorldRank(dst), c.ctag(tag), size, payload)
	return q
}

// Wait blocks until the request completes.
func (c *Comm) Wait(p *sim.Proc, q *Request) *Message { return c.r.Wait(p, q) }

// Sendrecv exchanges within the communicator.
func (c *Comm) Sendrecv(p *sim.Proc, dst, sendTag int, size int64, payload any, src, recvTag int) *Message {
	sq := c.r.isendPooled(p, c.WorldRank(dst), c.ctag(sendTag), size, payload)
	m := c.Recv(p, src, recvTag)
	c.r.waitPooled(p, sq)
	return m
}

// Barrier blocks until every member has entered it.
func (c *Comm) Barrier(p *sim.Proc) { barrierV(c.view(p)) }

// Bcast distributes size bytes from the comm-rank root.
func (c *Comm) Bcast(p *sim.Proc, root int, size int64, payload any) any {
	return bcastV(c.view(p), root, size, payload)
}

// Reduce combines size bytes at the comm-rank root.
func (c *Comm) Reduce(p *sim.Proc, root int, size int64, payload any, combine func(a, b any) any) any {
	return reduceV(c.view(p), root, size, payload, combine)
}

// Allreduce combines size bytes across the members and leaves the
// result everywhere, by the same size rule as Rank.Allreduce.
func (c *Comm) Allreduce(p *sim.Proc, size int64, payload any, combine func(a, b any) any) any {
	return allreduceV(c.view(p), size, payload, combine)
}

// Alltoall exchanges bytesPerPeer with every other member.
func (c *Comm) Alltoall(p *sim.Proc, bytesPerPeer int64) {
	alltoallV(c.view(p), func(int) int64 { return bytesPerPeer })
}

// Gather collects size bytes from every member at the comm-rank root.
func (c *Comm) Gather(p *sim.Proc, root int, size int64, payload any) []any {
	return gatherV(c.view(p), root, func(int) int64 { return size }, payload)
}

// Allgather shares size bytes among all members (ring).
func (c *Comm) Allgather(p *sim.Proc, size int64) {
	allgatherV(c.view(p), size)
}
