package sim

// eventKind selects what an event does when it fires. The engine's
// three process-lifecycle transitions (start, Sleep wake, value
// delivery) are encoded as kinds dispatched over the event's intrusive
// *Proc pointer instead of per-event closures: Schedule-ing a wake is
// then allocation-free, which matters when a cluster run pushes
// millions of block/wake pairs through the queue.
type eventKind uint8

const (
	// evCall runs the event's fn callback (user events, daemons).
	evCall eventKind = iota
	// evStart fires a created process's first activation.
	evStart
	// evWake resumes a process parked by Sleep. No value crosses the
	// wake, so the fast path never touches the any-boxed wakeVal.
	evWake
	// evDeliver resumes a process a waker transitioned to procWaking.
	// The handed-over value is stored on the process by deliverAt, not
	// on the event, keeping the event payload-free and small.
	evDeliver
)

// event is a scheduled occurrence at time t. Events with equal times
// fire in (pri, seq) order, which keeps runs deterministic. Locally
// scheduled events carry pri 0 and the engine's own sequence counter,
// so a purely local engine behaves exactly as before: scheduling order
// is execution order. Events injected from another shard (PostArrival)
// carry a priority key derived from the sending port and the sender's
// own per-port sequence number — a total order that does not depend on
// which shard ran first or how inter-shard inboxes were drained, which
// is what makes sharded runs byte-identical to sequential ones. For
// process events the target is stored intrusively in p; fn is set only
// for evCall. Keys are unique, so the order is total and any two
// correct queues pop the same sequence.
type event struct {
	t    Time
	pri  uint64
	seq  uint64
	fn   func()
	p    *Proc
	kind eventKind
}

// before reports whether a fires before b: by time, then priority
// class, then sequence number.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// arrivalClass is the priority-class bit for cross-shard arrivals: at
// equal times every local event (pri 0) fires before every arrival, and
// arrivals order among themselves by source port then source sequence.
const arrivalClass = uint64(1) << 63

// eventHeap is a 4-ary min-heap of events ordered by (time, pri, seq).
// It is implemented directly rather than via container/heap to avoid
// interface boxing on the hot path, and with 4 children per node to
// halve the tree depth: siftDown dominates pop, and the wider fanout
// trades a few extra comparisons per level for significantly fewer
// cache-missing levels on large queues. Both sifts move a hole rather
// than swapping: entries on the path shift one level and the moving
// event is written once, at its final slot.
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
		if !ev.before(&items[parent]) {
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
		if first >= n {
			break
		}
		least := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if items[c].before(&items[least]) {
				least = c
			}
		}
		if !items[least].before(ev) {
			break
		}
		items[i] = items[least]
		i = least
	}
	items[i] = *ev
}
