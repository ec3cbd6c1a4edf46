package sim

import "math/bits"

// event is a scheduled occurrence at time t. Events with equal times
// fire in (pri, seq) order, which keeps runs deterministic. Locally
// scheduled events carry pri 0 and the engine's own sequence counter,
// so a purely local engine behaves exactly as before: scheduling order
// is execution order. Events injected from another shard (PostArrival)
// carry a priority key derived from the sending port and the sender's
// own per-port sequence number — a total order that does not depend on
// which shard ran first or how inter-shard inboxes were drained, which
// is what makes sharded runs byte-identical to sequential ones. A
// callback event sets fn; a process event (a start, or a resume that
// Sleep or Wake booked) sets p instead, so booking one allocates
// nothing. Keys are unique, so the order is total and any two correct
// queues pop the same sequence.
type event struct {
	t   Time
	pri uint64
	seq uint64
	fn  func()
	p   *Proc
}

// before returns 1 if a fires before b and 0 otherwise: by time, then
// priority class, then sequence number. The three words compare as one
// 192-bit subtraction a − b, t's sign bit flipped so that signed times
// order as unsigned words, and the borrow out of its top word is the
// answer. It is a 0/1 value, not a branch, because a heap compare's
// outcome follows the data and a branch on it is often mispredicted:
// siftDown computes child indices with it.
func (a *event) before(b *event) int {
	const sign = uint64(1) << 63
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.pri, b.pri, borrow)
	_, borrow = bits.Sub64(uint64(a.t)^sign, uint64(b.t)^sign, borrow)
	return int(borrow)
}

// arrivalClass is the priority-class bit for cross-shard arrivals: at
// equal times every local event (pri 0) fires before every arrival, and
// arrivals order among themselves by source port then source sequence.
const arrivalClass = uint64(1) << 63

// eventHeap is a 4-ary min-heap of events ordered by (time, pri, seq).
// It is implemented directly rather than via container/heap to avoid
// interface boxing on the hot path, and with 4 children per node to
// halve the tree depth. Both sifts move a hole rather than swapping:
// entries on the path shift one level and the moving event is written
// once, at its final slot. siftDown dominates pop, and what it pays for
// is mispredicted branches, not memory: which of four children is least
// depends on the data. So it picks that child by a two-round tournament
// on before's 0/1 answer, with no branch. Keys are unique, so the
// tournament picks the child a linear scan picks, and every pop order
// is the scan's.
//
// A firing event keeps the root, vacated (see Engine.fire), and the
// first event pushed meanwhile takes it with one sift down instead of
// a leaf's sift down and its own sift up. A vacated root is no event:
// Len does not count it, and next removes it first. pop and peek,
// which serve a Group's global queue, never see one.
type eventHeap struct {
	items   []event
	vacated bool
}

// Len reports the number of queued events, not counting a vacated root.
func (h *eventHeap) Len() int {
	if h.vacated {
		return len(h.items) - 1
	}
	return len(h.items)
}

// next returns the earliest event without removing it; Len must be
// positive.
func (h *eventHeap) next() *event {
	h.settle()
	return &h.items[0]
}

func (h *eventHeap) push(ev *event) {
	if h.vacated {
		h.vacated = false
		h.siftDown(0, ev)
		return
	}
	n := len(h.items)
	if n < cap(h.items) {
		h.items = h.items[:n+1] // the slot was zeroed when it was last popped
	} else {
		h.items = append(h.items, event{}) //lint:allow hotalloc (amortized growth; steady-state heap capacity is reused, see the zero-alloc benchmarks)
	}
	h.siftUp(n, ev)
}

// settle removes a vacated root: its event fired and pushed nothing.
func (h *eventHeap) settle() {
	if h.vacated {
		h.vacated = false
		h.drop()
	}
}

// drop removes the minimum.
func (h *eventHeap) drop() {
	items := h.items
	n := len(items) - 1
	last := items[n]
	items[n] = event{} // release fn/p for GC
	h.items = items[:n]
	if n > 0 {
		h.siftDown(0, &last)
	}
}

func (h *eventHeap) pop() event {
	top := h.items[0]
	h.drop()
	return top
}

func (h *eventHeap) peek() event { return h.items[0] }

// siftUp places *ev, which belongs at hole i or above it. ev must not
// point into the heap.
func (h *eventHeap) siftUp(i int, ev *event) {
	items := h.items
	for i > 0 {
		parent := (i - 1) / 4
		if ev.before(&items[parent]) == 0 {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = *ev
}

// siftDown places *ev, which belongs at hole i or below it. ev must not
// point into the heap.
func (h *eventHeap) siftDown(i int, ev *event) {
	items := h.items
	n := len(items)
	for {
		first := 4*i + 1
		var least int
		if first+4 <= n {
			a := first + items[first+1].before(&items[first])
			b := first + 2 + items[first+3].before(&items[first+2])
			least = a + (b-a)*items[b].before(&items[a])
		} else if first < n {
			// The last level's partial family: the same selection, one
			// child at a time.
			least = first
			for c := first + 1; c < n; c++ {
				least += (c - least) * items[c].before(&items[least])
			}
		} else {
			break
		}
		if items[least].before(ev) == 0 {
			break
		}
		items[i] = items[least]
		i = least
	}
	items[i] = *ev
}
