package mpi

// Collective operations, implemented over the point-to-point layer with
// the classic MPICH algorithms: dissemination barrier, binomial
// broadcast, reduction, gather and scatter, pairwise-exchange
// all-to-all, and a recursive-doubling Allreduce selected above a size
// threshold (below it, reduce+bcast matches MPICH-1's default).
//
// Each algorithm is written once against a group view — a rank's
// position within an ordered set of world ranks plus a private tag
// space — so the world communicator and sub-communicators (Comm) share
// the same implementations. Collective traffic uses a reserved tag
// space derived from a per-group call sequence number; SPMD programs
// call collectives in the same order on every member, so the sequence
// numbers agree.

import (
	"fmt"

	"repro/internal/sim"
)

// Reserved tag-space layout (all at or above collectiveTagBase; world
// user tags stay below commP2PBase, and sub-communicator p2p contexts
// lie between the two):
//
//	collectiveTagBase + slot*commTagStride + seq*64 + phase
//
// slot 0 is the world communicator; sub-communicators get slots 1+.
const (
	collectiveTagBase = 1 << 30
	commTagStride     = 1 << 24
	maxCommSlots      = 63 // (2^30 of headroom) / stride, minus the world
)

// view adapts the collective algorithms to a rank group: the world
// (identity mapping, slot 0) or a sub-communicator.
type view struct {
	r     *Rank
	size  int
	me    int       // position within the group
	ranks []int     // group position → world rank (nil = identity)
	slot  int       // tag-space slot
	seq   *int      // per-group collective sequence
	p     *sim.Proc // the calling process
}

func (v view) world(pos int) int {
	if v.ranks == nil {
		return pos
	}
	return v.ranks[pos]
}

func (v view) begin() { *v.seq++ }

func (v view) tag(phase int) int {
	return collectiveTagBase + v.slot*commTagStride + *v.seq*64 + phase
}

func (v view) send(pos, tag int, size int64, payload any) {
	v.r.send(v.p, v.world(pos), tag, size, payload)
}

// isend starts a send whose request comes from the rank's free list;
// wait hands it back.
func (v view) isend(pos, tag int, size int64, payload any) *Request {
	return v.r.isendPooled(v.p, v.world(pos), tag, size, payload)
}

func (v view) recv(pos, tag int) *Message {
	return v.r.recvColl(v.p, v.world(pos), tag)
}

func (v view) wait(q *Request) { v.r.waitPooled(v.p, q) }

// worldView is the whole-world group for this rank.
func (r *Rank) worldView(p *sim.Proc) view {
	return view{r: r, size: len(r.w.ranks), me: r.id, slot: 0, seq: &r.collSeq, p: p}
}

// recvColl is Recv for the reserved tag space.
//
//lint:hotpath every collective receive runs here
func (r *Rank) recvColl(p *sim.Proc, src, tag int) *Message {
	r.overhead(p, r.w.cfg.RecvOverheadCycles)
	m := r.matchOrWait(p, src, tag)
	return r.completeRecv(p, m)
}

// checkPos validates a group position.
func (v view) checkPos(pos int) {
	if pos < 0 || pos >= v.size {
		panic(fmt.Sprintf("mpi: group position %d out of range [0,%d)", pos, v.size)) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
}

// --- Algorithm bodies (shared by world and sub-communicators) --------

// barrierV: dissemination barrier, ceil(log2 P) rounds.
func barrierV(v view) {
	v.begin()
	if v.size == 1 {
		return
	}
	phase := 0
	for dist := 1; dist < v.size; dist <<= 1 {
		to := (v.me + dist) % v.size
		from := (v.me - dist + v.size) % v.size
		tag := v.tag(phase)
		sq := v.isend(to, tag, 8, nil)
		v.recv(from, tag)
		v.wait(sq)
		phase++
	}
}

// bcastV: binomial tree from root.
func bcastV(v view, root int, size int64, payload any) any {
	v.begin()
	v.checkPos(root)
	n := v.size
	if n == 1 {
		return payload
	}
	tag := v.tag(0)
	rel := (v.me - root + n) % n

	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := v.me - mask
			if src < 0 {
				src += n
			}
			m := v.recv(src, tag)
			payload = m.Payload
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := v.me + mask
			if dst >= n {
				dst -= n
			}
			v.send(dst, tag, size, payload)
		}
		mask >>= 1
	}
	return payload
}

// reduceV: binomial reduction to root.
func reduceV(v view, root int, size int64, payload any, combine func(a, b any) any) any {
	v.begin()
	v.checkPos(root)
	n := v.size
	if n == 1 {
		return payload
	}
	tag := v.tag(0)
	rel := (v.me - root + n) % n
	acc := payload

	mask := 1
	for mask < n {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < n {
				src := (srcRel + root) % n
				m := v.recv(src, tag)
				v.r.node.ComputeFlops(v.p, float64(size)*v.r.w.cfg.ReduceFlopsPerByte)
				if combine != nil {
					acc = combine(acc, m.Payload)
				}
			}
		} else {
			dst := (rel&^mask + root) % n
			v.send(dst, tag, size, acc)
			break
		}
		mask <<= 1
	}
	if v.me == root {
		return acc
	}
	return nil
}

// alltoallV: pairwise exchange, P-1 rounds; sizes[pos] to each peer.
func alltoallV(v view, sizes func(pos int) int64) {
	v.begin()
	n := v.size
	for i := 1; i < n; i++ {
		dst := (v.me + i) % n
		src := (v.me - i + n) % n
		tag := v.tag(i)
		sq := v.isend(dst, tag, sizes(dst), nil)
		v.recv(src, tag)
		v.wait(sq)
	}
}

// gatherV: binomial-tree gather to root. Each subtree leader bundles
// its subtree's payloads and forwards them upward in one message, so
// the root completes ceil(log2 P) receives instead of P-1 — at 4096
// ranks the per-message matching and overhead no longer serialize at
// one process. Relative to root, rank rel's subtree spans positions
// [rel, rel+lowbit(rel)), and children report in ascending span order,
// so bundles concatenate contiguously.
func gatherV(v view, root int, sizes func(pos int) int64, payload any) []any {
	v.begin()
	v.checkPos(root)
	n := v.size
	tag := v.tag(0)
	rel := (v.me - root + n) % n

	bundle := []any{payload} // bundle[i] is position (rel+i+root)%n's payload
	bytes := sizes(v.me)
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			// Subtree complete: hand the bundle to the parent.
			parent := (rel&^mask + root) % n
			v.send(parent, tag, bytes, bundle)
			return nil
		}
		childRel := rel | mask
		if childRel >= n {
			continue
		}
		m := v.recv((childRel+root)%n, tag)
		bundle = append(bundle, m.Payload.([]any)...)
		bytes += m.Size
	}
	// Only the root (rel 0) clears every mask.
	out := make([]any, n)
	for i, pl := range bundle {
		out[(root+i)%n] = pl
	}
	return out
}

// scatterPart is one position's payload and byte count in a scatter
// bundle.
type scatterPart struct {
	payload any
	size    int64
}

// scatterV: binomial-tree scatter from root — gatherV's mirror. Each
// parent forwards a child's whole subtree bundle in one message,
// largest subtree first, so the root completes ceil(log2 P) sends
// instead of P-1. sizes is read only at root, as MPI reads the counts:
// root ships each position's size with its payload, and a forward
// carries the sum of its subtree's sizes.
func scatterV(v view, root int, sizes func(pos int) int64, payloads []any) any {
	v.begin()
	v.checkPos(root)
	n := v.size
	tag := v.tag(0)
	rel := (v.me - root + n) % n

	var bundle []scatterPart // this rank's subtree; bundle[0] is its own
	span := 0                // subtree width in positions (power of two, may overhang n)
	if v.me == root {
		if payloads != nil && len(payloads) != n {
			panic("mpi: scatter payloads length mismatch") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
		}
		for span = 1; span < n; span <<= 1 {
		}
		bundle = make([]scatterPart, n)
		for i := range bundle {
			pos := (root + i) % n
			bundle[i].size = sizes(pos)
			if payloads != nil {
				bundle[i].payload = payloads[pos]
			}
		}
	} else {
		for span = 1; rel&span == 0; span <<= 1 {
		}
		parent := (rel&^span + root) % n
		m := v.recv(parent, tag)
		bundle = m.Payload.([]scatterPart)
	}
	for mask := span >> 1; mask >= 1; mask >>= 1 {
		childRel := rel + mask
		if childRel >= n {
			continue
		}
		hi := childRel + mask
		if hi > n {
			hi = n
		}
		sub := bundle[mask : hi-rel]
		var bytes int64
		for _, part := range sub {
			bytes += part.size
		}
		v.send((childRel+root)%n, tag, bytes, sub)
	}
	return bundle[0].payload
}

// allreduceRD: recursive-doubling allreduce — the large-message path.
// Non-power-of-two counts fold the first 2*rem ranks into rem pairs,
// run log2(pof2) simultaneous-exchange rounds over the survivors, and
// unfold at the end. Every pairwise combine brackets the lower group
// position as the left operand, so all ranks apply the identical
// association and finish with byte-identical values even for
// non-commutative (e.g. floating-point) combine functions.
func allreduceRD(v view, size int64, payload any, combine func(a, b any) any) any {
	v.begin()
	n := v.size
	if n == 1 {
		return payload
	}
	acc := payload
	merge := func(peer int, other any) {
		v.r.node.ComputeFlops(v.p, float64(size)*v.r.w.cfg.ReduceFlopsPerByte)
		if combine == nil {
			return
		}
		if peer < v.me {
			acc = combine(other, acc)
		} else {
			acc = combine(acc, other)
		}
	}
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2

	// Fold phase: evens below 2*rem hand their contribution to the odd
	// neighbour and sit out the doubling.
	newpos := -1
	switch {
	case v.me < 2*rem && v.me%2 == 0:
		v.send(v.me+1, v.tag(0), size, acc)
	case v.me < 2*rem:
		m := v.recv(v.me-1, v.tag(0))
		merge(v.me-1, m.Payload)
		newpos = v.me / 2
	default:
		newpos = v.me - rem
	}

	if newpos >= 0 {
		phase := 1
		for mask := 1; mask < pof2; mask <<= 1 {
			peerNew := newpos ^ mask
			peer := peerNew + rem
			if peerNew < rem {
				peer = peerNew*2 + 1
			}
			tag := v.tag(phase)
			sq := v.isend(peer, tag, size, acc)
			m := v.recv(peer, tag)
			v.wait(sq)
			merge(peer, m.Payload)
			phase++
		}
	}

	// Unfold phase: the odds hand the full result back to their evens.
	// Phase 62 keeps the tag clear of the doubling rounds at any scale.
	if v.me < 2*rem {
		if v.me%2 == 0 {
			m := v.recv(v.me+1, v.tag(62))
			acc = m.Payload
		} else {
			v.send(v.me-1, v.tag(62), size, acc)
		}
	}
	return acc
}

// allreduceV: reduce to position 0 followed by a broadcast below the
// configured large-message threshold, MPICH-1 style; at or above it,
// recursive doubling spreads the bandwidth over every link instead of
// concentrating it at position 0.
func allreduceV(v view, size int64, payload any, combine func(a, b any) any) any {
	if thr := v.r.w.cfg.AllreduceLargeThreshold; thr > 0 && size >= thr {
		return allreduceRD(v, size, payload, combine)
	}
	return bcastV(v, 0, size, reduceV(v, 0, size, payload, combine))
}

// allgatherV: ring, P-1 steps.
func allgatherV(v view, size int64) {
	v.begin()
	n := v.size
	next := (v.me + 1) % n
	prev := (v.me - 1 + n) % n
	for step := 0; step < n-1; step++ {
		tag := v.tag(step)
		sq := v.isend(next, tag, size, nil)
		v.recv(prev, tag)
		v.wait(sq)
	}
}

// --- World-communicator methods ---------------------------------------

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier(p *sim.Proc) { barrierV(r.worldView(p)) }

// Bcast distributes size bytes from root to every rank (binomial tree).
// It returns the payload as seen at this rank.
//
//lint:range size [0,inf]
func (r *Rank) Bcast(p *sim.Proc, root int, size int64, payload any) any {
	return bcastV(r.worldView(p), root, size, payload)
}

// Reduce combines size bytes from every rank at root (binomial tree).
// combine, if non-nil, folds payloads pairwise; the CPU cost of each
// combine step is charged from the configured flops-per-byte rate.
//
//lint:range size [0,inf]
func (r *Rank) Reduce(p *sim.Proc, root int, size int64, payload any, combine func(a, b any) any) any {
	return reduceV(r.worldView(p), root, size, payload, combine)
}

// Allreduce combines size bytes across all ranks and leaves the result
// everywhere: reduce+bcast below AllreduceLargeThreshold, recursive
// doubling at or above it.
//
//lint:range size [0,inf]
func (r *Rank) Allreduce(p *sim.Proc, size int64, payload any, combine func(a, b any) any) any {
	return allreduceV(r.worldView(p), size, payload, combine)
}

// Alltoall exchanges bytesPerPeer with every other rank (pairwise
// exchange: P-1 rounds of simultaneous send/receive). This is the
// communication pattern of the NAS FT transpose.
//
//lint:range bytesPerPeer [0,inf]
func (r *Rank) Alltoall(p *sim.Proc, bytesPerPeer int64) {
	alltoallV(r.worldView(p), func(int) int64 { return bytesPerPeer })
}

// Alltoallv is Alltoall with per-destination sizes; sizes[i] is sent to
// rank i (sizes[r.id] is ignored). Every rank must pass a consistent
// matrix, i.e. what i sends to j is what j expects from i.
func (r *Rank) Alltoallv(p *sim.Proc, sizes []int64) {
	if len(sizes) != r.Size() {
		panic("mpi: Alltoallv sizes length mismatch") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
	alltoallV(r.worldView(p), func(pos int) int64 { return sizes[pos] })
}

// Gather collects size bytes from every rank at root along a binomial
// tree (gatherV): each subtree leader forwards its subtree's bundle in
// one message, and every byte still arrives over root's receive link —
// the bottleneck the parallel transpose exhibits in step 3. It returns,
// at root, the payloads indexed by rank.
//
//lint:range size [0,inf]
func (r *Rank) Gather(p *sim.Proc, root int, size int64, payload any) []any {
	return gatherV(r.worldView(p), root, func(int) int64 { return size }, payload)
}

// Scatter distributes size bytes from root to each rank along a
// binomial tree (scatterV) and returns the payload for this rank.
// payloads is only read at root and must have one entry per rank.
//
//lint:range size [0,inf]
func (r *Rank) Scatter(p *sim.Proc, root int, size int64, payloads []any) any {
	if r.id == root && payloads == nil {
		panic("mpi: Scatter needs payloads at root") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
	return scatterV(r.worldView(p), root, func(int) int64 { return size }, payloads)
}

// Allgather shares size bytes from every rank with every rank (ring:
// P-1 steps, each forwarding the block received in the previous step).
func (r *Rank) Allgather(p *sim.Proc, size int64) {
	allgatherV(r.worldView(p), size)
}
