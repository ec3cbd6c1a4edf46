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
	timer int // index of the timer this entry belongs to, or -1
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
// of keys whose minimum is found by a linear scan, and a timer Reset as
// "remove the timer's entry, add one at a freshly claimed sequence
// number".
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
			q.entries = append(q.entries, refEntry{t: at, seq: q.seq, label: fmt.Sprintf("E%d", op.id), timer: -1})
		case opReset:
			for i, en := range q.entries {
				if en.timer == op.timer {
					q.entries = append(q.entries[:i], q.entries[i+1:]...)
					break
				}
			}
			q.seq++
			q.entries = append(q.entries, refEntry{t: at, seq: q.seq, label: fmt.Sprintf("T%d", op.timer), timer: op.timer})
		case opArrival:
			q.entries = append(q.entries, refEntry{t: at, pri: arrivalClass | uint64(op.src), seq: op.seq, label: fmt.Sprintf("A%d", op.id), timer: -1})
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
	opReset
	opArrival
)

// scriptOp is one operation of a timerScript, at offset d from now.
type scriptOp struct {
	kind  int
	d     Duration
	timer int    // opReset
	id    int    // opSchedule, opArrival
	src   int    // opArrival
	seq   uint64 // opArrival
}

// timerScript is a random program of Schedule, Reset and PostArrival
// calls: every fired event draws up to two more operations, at offsets
// that make equal times common and re-arm timers both earlier and later
// than their queued entries. The engine and the reference each run a
// copy with the same seed, so their logs agree exactly when their pop
// orders do.
type timerScript struct {
	rng    *rand.Rand
	budget int
	nextID int
	arrSeq [2]uint64
}

var scriptOffsets = []Duration{0, 0, 0, 1, 2, 7}

func (s *timerScript) draw(timers int) []scriptOp {
	var ops []scriptOp
	for n := s.rng.Intn(3); n > 0 && s.budget > 0; n-- {
		s.budget--
		op := scriptOp{kind: s.rng.Intn(3), d: scriptOffsets[s.rng.Intn(len(scriptOffsets))]}
		switch op.kind {
		case opSchedule:
			s.nextID++
			op.id = s.nextID
		case opReset:
			op.timer = s.rng.Intn(timers)
		case opArrival:
			s.nextID++
			op.id = s.nextID
			op.src = s.rng.Intn(len(s.arrSeq))
			s.arrSeq[op.src]++
			op.seq = s.arrSeq[op.src]
		}
		ops = append(ops, op)
	}
	return ops
}

// TestTimerMatchesReference drives randomized interleavings of
// Schedule, Reset (while queued, after firing, earlier and later than
// the queued entry, at equal times) and PostArrival through the engine
// and through the sorted-key reference, and requires identical logs.
func TestTimerMatchesReference(t *testing.T) {
	const timers = 3
	start := []scriptOp{{kind: opReset, timer: 0, d: 5}, {kind: opSchedule, d: 5}, {kind: opReset, timer: 1}}
	for seed := int64(1); seed <= 200; seed++ {
		var got []string
		e := NewEngine()
		es := &timerScript{rng: rand.New(rand.NewSource(seed)), budget: 400}
		var apply func(ops []scriptOp)
		fired := func(label string) {
			got = append(got, fmt.Sprintf("%s@%d", label, e.Now()))
			apply(es.draw(timers))
		}
		tms := make([]*Timer, timers)
		for i := range tms {
			label := fmt.Sprintf("T%d", i)
			tms[i] = e.NewTimer(func() { fired(label) })
		}
		apply = func(ops []scriptOp) {
			for _, op := range ops {
				at := e.Now().Add(op.d)
				switch op.kind {
				case opSchedule:
					label := fmt.Sprintf("E%d", op.id)
					e.Schedule(at, func() { fired(label) })
				case opReset:
					tms[op.timer].Reset(at)
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
		rs := &timerScript{rng: rand.New(rand.NewSource(seed)), budget: 400}
		ref.apply(start)
		for len(ref.entries) > 0 {
			en := ref.pop()
			want = append(want, fmt.Sprintf("%s@%d", en.label, ref.now))
			ref.apply(rs.draw(timers))
		}

		if g, w := strings.Join(got, " "), strings.Join(want, " "); g != w {
			t.Fatalf("seed %d: engine order differs from the reference\n got %s\nwant %s", seed, g, w)
		}
	}
}

// TestTimerReset covers the re-arm cases one at a time: a timer keeps
// one queue entry however often it is re-armed, fires once at its last
// armed key, can be re-armed from its own callback, and moves earlier
// when reset before its queued entry.
func TestTimerReset(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	fires := 0
	var tm *Timer
	tm = e.NewTimer(func() {
		note("T")
		if fires++; fires == 1 {
			tm.Reset(100) // re-arm after firing, from the callback
		}
	})
	tm.Reset(10)
	tm.Reset(20) // re-arm while queued: supersedes 10
	e.Schedule(20, func() { note("A") })
	tm.Reset(20) // the same time, re-claimed after A: fires after it
	if n := e.Pending(); n != 2 {
		t.Fatalf("%d pending after three Resets and one Schedule, want 2", n)
	}
	e.Schedule(25, func() {
		note("B")
		tm.Reset(200) // later than the queued entry at 100
		tm.Reset(60)  // earlier than it
		e.Schedule(60, func() { note("C") })
	})
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(log, " "), "A@20 T@20 B@25 T@60 C@60"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	if end != 60 {
		t.Fatalf("run ended at %d, want 60: a superseded entry fired", end)
	}
}

// TestTimerResetPastPanics: a Reset into the past is the same kernel
// invariant violation as a Schedule into the past.
func TestTimerResetPastPanics(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer(func() {})
	e.Schedule(100, func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "before now") {
				t.Errorf("Reset into the past recovered %v, want the Schedule past-time panic", r)
			}
		}()
		tm.Reset(50)
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
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
