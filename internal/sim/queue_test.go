package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refEntry is one pending event of the sorted-key reference queue.
type refEntry struct {
	t     Time
	pri   uint64
	seq   uint64
	label string
}

func (a refEntry) less(b refEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// refQueue is the reference the engine's queue must match: a flat list
// of keys whose minimum is found by a linear scan.
type refQueue struct {
	now     Time
	seq     uint64
	entries []refEntry
}

func (q *refQueue) apply(ops []scriptOp) {
	for _, op := range ops {
		at := q.now.Add(op.d)
		switch op.kind {
		case opSchedule:
			q.seq++
			q.entries = append(q.entries, refEntry{t: at, seq: q.seq, label: fmt.Sprintf("E%d", op.id)})
		case opArrival:
			q.entries = append(q.entries, refEntry{t: at, pri: arrivalClass | uint64(op.src), seq: op.seq, label: fmt.Sprintf("A%d", op.id)})
		}
	}
}

func (q *refQueue) pop() refEntry {
	m := 0
	for i, en := range q.entries {
		if en.less(q.entries[m]) {
			m = i
		}
	}
	en := q.entries[m]
	q.entries = append(q.entries[:m], q.entries[m+1:]...)
	if en.t > q.now {
		q.now = en.t
	}
	return en
}

const (
	opSchedule = iota
	opArrival
)

// scriptOp is one operation of a queueScript, at offset d from now.
type scriptOp struct {
	kind int
	d    Duration
	id   int
	src  int    // opArrival
	seq  uint64 // opArrival
}

// queueScript is a random program of Schedule and PostArrival calls:
// every fired event draws up to two more operations, at offsets that
// make equal times common. The engine and the reference each run a
// copy with the same seed, so their logs agree exactly when their pop
// orders do.
type queueScript struct {
	rng    *rand.Rand
	budget int
	nextID int
	arrSeq [2]uint64
}

var scriptOffsets = []Duration{0, 0, 0, 1, 2, 7}

func (s *queueScript) draw() []scriptOp {
	var ops []scriptOp
	for n := s.rng.Intn(3); n > 0 && s.budget > 0; n-- {
		s.budget--
		s.nextID++
		op := scriptOp{kind: s.rng.Intn(2), d: scriptOffsets[s.rng.Intn(len(scriptOffsets))], id: s.nextID}
		if op.kind == opArrival {
			op.src = s.rng.Intn(len(s.arrSeq))
			s.arrSeq[op.src]++
			op.seq = s.arrSeq[op.src]
		}
		ops = append(ops, op)
	}
	return ops
}

// TestQueueMatchesReference drives randomized interleavings of
// Schedule and PostArrival, at equal times and from inside firing
// events, through the engine and through the sorted-key reference, and
// requires identical logs.
func TestQueueMatchesReference(t *testing.T) {
	start := []scriptOp{{kind: opSchedule, d: 5, id: -1}, {kind: opSchedule, id: -2}, {kind: opArrival, d: 5, id: -3}}
	for seed := int64(1); seed <= 200; seed++ {
		var got []string
		e := NewEngine()
		es := &queueScript{rng: rand.New(rand.NewSource(seed)), budget: 400}
		var apply func(ops []scriptOp)
		fired := func(label string) {
			got = append(got, fmt.Sprintf("%s@%d", label, e.Now()))
			apply(es.draw())
		}
		apply = func(ops []scriptOp) {
			for _, op := range ops {
				at := e.Now().Add(op.d)
				switch op.kind {
				case opSchedule:
					label := fmt.Sprintf("E%d", op.id)
					e.Schedule(at, func() { fired(label) })
				case opArrival:
					label := fmt.Sprintf("A%d", op.id)
					e.PostArrival(at, op.src, op.seq, func() { fired(label) })
				}
			}
		}
		apply(start)
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}

		var want []string
		ref := &refQueue{}
		rs := &queueScript{rng: rand.New(rand.NewSource(seed)), budget: 400}
		ref.apply(start)
		for len(ref.entries) > 0 {
			en := ref.pop()
			want = append(want, fmt.Sprintf("%s@%d", en.label, ref.now))
			ref.apply(rs.draw())
		}

		if g, w := strings.Join(got, " "), strings.Join(want, " "); g != w {
			t.Fatalf("seed %d: engine order differs from the reference\n got %s\nwant %s", seed, g, w)
		}
	}
}

// TestSameTimeOrder pins the order of one instant: events queued for it
// earlier fire before the ones scheduled at it, those fire first in
// first out, and an arrival posted at Now() fires after every local
// event of that instant even when posted before them.
func TestSameTimeOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	}
	e.Schedule(10, func() {
		note("a")()
		e.PostArrival(10, 0, 1, note("x"))
		e.Schedule(10, note("l1"))
		e.Schedule(11, note("h"))
		e.Schedule(10, note("l2"))
	})
	e.Schedule(10, note("b"))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "a@10 b@10 l1@10 l2@10 x@10 h@11"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
}

// TestAdvanceToKeepsQueuedOrder: moving the clock past queued entries
// (as a Group barrier does) keeps them ahead of everything scheduled
// afterwards, and nextEventTime still reports the earliest of them.
func TestAdvanceToKeepsQueuedOrder(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	}
	e.Schedule(0, note("a"))
	e.Schedule(5, note("h"))
	e.advanceTo(5)
	e.Schedule(5, note("b"))
	if next, ok := e.nextEventTime(); !ok || next != 0 {
		t.Fatalf("nextEventTime = %d, %v; want 0, true", next, ok)
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "a@5 h@5 b@5"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
}
