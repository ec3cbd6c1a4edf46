package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
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
// every fired event draws up to two more operations, one on average,
// at offsets drawn from offsets. The engine and the reference each run
// a copy with the same seed, so their logs agree exactly when their pop
// orders do.
type queueScript struct {
	rng     *rand.Rand
	budget  int
	offsets []Duration
	nextID  int
	arrSeq  [2]uint64
}

func (s *queueScript) draw() []scriptOp {
	var ops []scriptOp
	for n := s.rng.Intn(3); n > 0 && s.budget > 0; n-- {
		s.budget--
		ops = append(ops, s.op())
	}
	return ops
}

func (s *queueScript) op() scriptOp {
	s.nextID++
	op := scriptOp{kind: s.rng.Intn(2), d: s.offsets[s.rng.Intn(len(s.offsets))], id: s.nextID}
	if op.kind == opArrival {
		op.src = s.rng.Intn(len(s.arrSeq))
		s.arrSeq[op.src]++
		op.seq = s.arrSeq[op.src]
	}
	return op
}

// checkQueueScript runs one seed's script, after the operations start
// draws, through the engine and through the sorted-key reference, and
// fails the test if their logs differ. It returns, for each event the
// engine fired, how many others were pending as it fired.
func checkQueueScript(t *testing.T, seed int64, start func(*queueScript) []scriptOp, budget int, offsets []Duration) []int {
	t.Helper()
	script := func() *queueScript {
		return &queueScript{rng: rand.New(rand.NewSource(seed)), budget: budget, offsets: offsets}
	}
	var got []string
	var pending []int
	e := NewEngine()
	es := script()
	var apply func(ops []scriptOp)
	fired := func(label string) {
		got = append(got, fmt.Sprintf("%s@%d", label, e.Now()))
		pending = append(pending, e.queue.Len())
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
	apply(start(es))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}

	var want []string
	ref := &refQueue{}
	rs := script()
	ref.apply(start(rs))
	for len(ref.entries) > 0 {
		en := ref.pop()
		want = append(want, fmt.Sprintf("%s@%d", en.label, ref.now))
		ref.apply(rs.draw())
	}

	if g, w := strings.Join(got, " "), strings.Join(want, " "); g != w {
		t.Fatalf("seed %d: engine order differs from the reference\n got %s\nwant %s", seed, g, w)
	}
	return pending
}

// TestQueueMatchesReference drives randomized interleavings of
// Schedule and PostArrival, at equal times and from inside firing
// events, through the engine and through the sorted-key reference, and
// requires identical logs.
func TestQueueMatchesReference(t *testing.T) {
	start := func(*queueScript) []scriptOp {
		return []scriptOp{{kind: opSchedule, d: 5, id: -1}, {kind: opSchedule, id: -2}, {kind: opArrival, d: 5, id: -3}}
	}
	for seed := int64(1); seed <= 200; seed++ {
		checkQueueScript(t, seed, start, 400, []Duration{0, 0, 0, 1, 2, 7})
	}
}

// TestQueueMatchesReferenceDeep is TestQueueMatchesReference on a deep
// queue: 500 events pending at the start, and a script that keeps
// about that many pending until its budget runs out and the queue
// drains. Sifts then cross four and more levels of the 4-ary heap,
// through full families and the last level's partial ones, as in a
// 256-rank run, where about 500 events are pending.
func TestQueueMatchesReferenceDeep(t *testing.T) {
	start := func(s *queueScript) []scriptOp {
		ops := make([]scriptOp, 500)
		for i := range ops {
			ops[i] = s.op()
		}
		return ops
	}
	offsets := []Duration{0, 0, 1, 7, 50, 300, 1000}
	// A 4-ary heap of this many events has five levels, so a sift from
	// its root crosses four.
	const fiveLevels = 1 + 4 + 16 + 64 + 256
	for seed := int64(1); seed <= 20; seed++ {
		deep := 0
		for _, n := range checkQueueScript(t, seed, start, 3000, offsets) {
			if n >= fiveLevels {
				deep++
			}
		}
		if deep < 2000 {
			t.Fatalf("seed %d: %d events fired with %d or more pending, want 2000 or more", seed, deep, fiveLevels)
		}
	}
}

// TestEventBefore checks the borrow-chain compare against the
// lexicographic (signed t, pri, seq) order on every ordered pair of
// edge keys, and on random pairs from ranges narrow enough that ties on
// t and on pri are common.
func TestEventBefore(t *testing.T) {
	ts := []Time{math.MinInt64, -1, 0, 1, math.MaxInt64}
	pris := []uint64{0, 1, arrivalClass, arrivalClass | 5, math.MaxUint64}
	seqs := []uint64{0, 1, 1 << 63, math.MaxUint64}
	var keys []refEntry
	for _, at := range ts {
		for _, pri := range pris {
			for _, seq := range seqs {
				keys = append(keys, refEntry{t: at, pri: pri, seq: seq})
			}
		}
	}
	check := func(a, b refEntry) {
		t.Helper()
		ea, eb := event{t: a.t, pri: a.pri, seq: a.seq}, event{t: b.t, pri: b.pri, seq: b.seq}
		want := 0
		if a.less(b) {
			want = 1
		}
		if got := ea.before(&eb); got != want {
			t.Fatalf("(%d, %#x, %#x).before(%d, %#x, %#x) = %d, want %d", a.t, a.pri, a.seq, b.t, b.pri, b.seq, got, want)
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	narrow := func() refEntry {
		return refEntry{
			t:   Time(rng.Intn(5) - 2),
			pri: pris[rng.Intn(3)] + uint64(rng.Intn(2)),
			seq: uint64(rng.Intn(4)),
		}
	}
	for i := 0; i < 100_000; i++ {
		check(narrow(), narrow())
	}
}

// TestEventSize pins an event at five words: its three key words, its
// callback and its process. Every heap move copies one.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 40 {
		t.Errorf("event is %d bytes, want 40", size)
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
