package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	var epoch Time
	later := epoch.Add(3 * Second)
	if later != Time(3*Second) {
		t.Fatalf("Add: got %v", later)
	}
	if d := later.Sub(epoch); d != 3*Second {
		t.Fatalf("Sub: got %v", d)
	}
	if s := later.Seconds(); s != 3.0 {
		t.Fatalf("Seconds: got %v", s)
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Duration.Seconds: got %v", got)
	}
}

func TestDurationOf(t *testing.T) {
	cases := []struct {
		sec  float64
		want Duration
	}{
		{0, 0},
		{-1, 0},
		{1, Second},
		{0.5, 500 * Millisecond},
		{1e-9, Nanosecond},
		{2.5e-9, 3 * Nanosecond}, // rounds to nearest
	}
	for _, c := range cases {
		if got := DurationOf(c.sec); got != c.want {
			t.Errorf("DurationOf(%v) = %v, want %v", c.sec, got, c.want)
		}
	}
}

func TestDurationOfRoundTrip(t *testing.T) {
	f := func(ns int64) bool {
		if ns < 0 {
			ns = -ns
		}
		ns %= int64(Hour)
		d := Duration(ns)
		return DurationOf(d.Seconds()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(Time(30), func() { got = append(got, 3) })
	e.Schedule(Time(10), func() { got = append(got, 1) })
	e.Schedule(Time(20), func() { got = append(got, 2) })
	// Same-time events fire in scheduling order.
	e.Schedule(Time(20), func() { got = append(got, 20) })
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if end != Time(30) {
		t.Fatalf("end time: got %v", end)
	}
	want := []int{1, 2, 20, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order: got %v want %v", got, want)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(Time(100), func() {
		defer func() {
			// A NewEngine engine is shard 0 of its group.
			if msg, _ := recover().(string); !strings.HasSuffix(msg, " (shard 0)") {
				t.Errorf("Schedule in the past panicked with %q, want a message ending in (shard 0)", msg)
			}
		}()
		e.Schedule(Time(50), func() {})
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

// TestRunLimit checks limit semantics on 1 and 2 shards: events at
// t <= limit run, later ones stay queued, and the clocks park exactly
// at the limit, also when the queue drains before it. A limit behind
// the clocks leaves them where they are, so the past stays closed to
// Schedule. The event at 10 books a global at 15, one lookahead ahead,
// which on one shard lands inside the window that runs to the limit
// and must stop it there. Every Run is the last shard's Engine.Run,
// which on two shards runs the whole group.
func TestRunLimit(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		drained Time // what Run(0) returns once the queues drain
	}{{1, 100}, {2, 105}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			// A lookahead below the 10 ns event spacing keeps the two
			// shards' events in separate windows, so the shared log is
			// race-free.
			g := NewGroup(tc.shards, 5)
			defer g.Close()
			first, last := g.Engine(0), g.Engine(tc.shards-1)
			var ran []string
			first.Schedule(10, func() {
				ran = append(ran, "10")
				g.ScheduleGlobal(15, 0, func() { ran = append(ran, fmt.Sprintf("global with clocks at %d", first.Now())) })
			})
			last.Schedule(20, func() { ran = append(ran, "20") })
			first.Schedule(30, func() { ran = append(ran, "30") })
			last.Schedule(100, func() { ran = append(ran, "100") })
			run := func(limit, wantEnd Time, want ...string) {
				t.Helper()
				end, err := last.Run(limit)
				if err != nil {
					t.Fatal(err)
				}
				if end != wantEnd || g.Now() != wantEnd || first.Now() != wantEnd || last.Now() != wantEnd {
					t.Fatalf("Run(%d) = %d with clocks %d, %d and group at %d; want %d", limit, end, first.Now(), last.Now(), g.Now(), wantEnd)
				}
				if !reflect.DeepEqual(ran, want) {
					t.Fatalf("after Run(%d) ran %q, want %q", limit, ran, want)
				}
			}
			run(20, 20, "10", "global with clocks at 15", "20")
			run(50, 50, "10", "global with clocks at 15", "20", "30")
			run(20, 50, "10", "global with clocks at 15", "20", "30")
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Schedule(30) after the clock reached 50 did not panic")
					}
				}()
				last.Schedule(30, func() {})
			}()
			// Resume to exhaustion.
			run(0, tc.drained, "10", "global with clocks at 15", "20", "30", "100")
			// A queue that drains before the limit still parks the
			// clocks at the limit.
			first.Schedule(200, func() { ran = append(ran, "200") })
			run(300, 300, "10", "global with clocks at 15", "20", "30", "100", "200")
		})
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wakes []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		wakes = append(wakes, p.Now())
		p.Sleep(5 * Microsecond)
		wakes = append(wakes, p.Now())
		p.SleepUntil(Time(100 * Microsecond))
		wakes = append(wakes, p.Now())
		p.SleepUntil(Time(1)) // in the past: no-op
		wakes = append(wakes, p.Now())
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * Microsecond), Time(15 * Microsecond), Time(100 * Microsecond), Time(100 * Microsecond)}
	if fmt.Sprint(wakes) != fmt.Sprint(want) {
		t.Fatalf("wakes: got %v want %v", wakes, want)
	}
	if e.Live() != 0 {
		t.Fatalf("live procs after run: %d", e.Live())
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var started Time
	e.SpawnAt(Time(42), "late", func(p *Proc) { started = p.Now() })
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if started != Time(42) {
		t.Fatalf("start time: got %v", started)
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	runOnce := func(seed int64) string {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var log []string
		for i := 0; i < 20; i++ {
			i := i
			delays := make([]Duration, 5)
			for j := range delays {
				delays[j] = Duration(rng.Intn(1000)) * Microsecond
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for _, d := range delays {
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%d@%v", i, p.Now()))
				}
			})
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ",")
	}
	a, b := runOnce(7), runOnce(7)
	if a != b {
		t.Fatal("identical seeds produced different schedules")
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var got []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			v := c.Wait(p)
			got = append(got, fmt.Sprintf("%s=%v", name, v))
		})
	}
	e.Schedule(Time(10), func() {
		c.Signal(1)
		c.Signal(2)
		c.Signal(3)
		if c.Signal(4) {
			t.Error("Signal with no waiters reported true")
		}
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := "a=1,b=2,c=3"
	if strings.Join(got, ",") != want {
		t.Fatalf("got %q want %q", strings.Join(got, ","), want)
	}
}

func TestCondBroadcastAndRemove(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	woken := 0
	var procs []*Proc
	for i := 0; i < 3; i++ {
		p := e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woken++
		})
		procs = append(procs, p)
	}
	e.Schedule(Time(5), func() {
		if c.Len() != 3 {
			t.Errorf("Len = %d", c.Len())
		}
		if !c.Remove(procs[1]) {
			t.Error("Remove known waiter failed")
		}
		if c.Remove(procs[1]) {
			t.Error("second Remove succeeded")
		}
		if n := c.Broadcast(); n != 2 {
			t.Errorf("Broadcast woke %d", n)
		}
	})
	_, err := e.Run(0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock (removed waiter never wakes), got %v", err)
	}
	if woken != 2 {
		t.Fatalf("woken = %d", woken)
	}
	if e.Blocked() != 1 {
		t.Fatalf("Blocked = %d", e.Blocked())
	}
	e.Close()
	if e.Live() != 0 {
		t.Fatalf("Live after Close = %d", e.Live())
	}
}

// A body panic is reported by Run at the time it happened, and the
// panicking body's coroutine is ended with the other idle ones.
func TestProcPanicReportedByRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	end, err := e.Run(0)
	if err == nil || !strings.Contains(err.Error(), "boom") || end != Time(Microsecond) {
		t.Fatalf("Run = %v, %v; want 1 µs and the body's panic", end, err)
	}
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after the panic, %d before", n, before)
	}
}

func TestCloseReapsCreatedAndParked(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Spawn("parked", func(p *Proc) { c.Wait(p) })
	_, err := e.Run(0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
	// A process spawned but never started (engine not re-run).
	e2 := NewEngine()
	e2.Spawn("never-started", func(p *Proc) {})
	e.Close()
	e.Close() // idempotent
	if e.Live() != 0 {
		t.Fatalf("Live = %d", e.Live())
	}
	// Close with a created-but-unstarted proc must not hang. The start
	// event is still queued but the engine is closed, so reap directly.
	e2.Close()
	if e2.Live() != 0 {
		t.Fatalf("e2 Live = %d", e2.Live())
	}
	// Closing an engine closes its group, so Run fails on either engine,
	// with an empty queue as with a queued start event.
	for _, e := range []*Engine{e, e2} {
		if _, err := e.Run(0); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Errorf("Run after Close returned %v, want a closed error", err)
		}
	}
}

func TestDeferredCleanupRunsOnKill(t *testing.T) {
	e := NewEngine()
	cleaned := false
	c := NewCond(e)
	e.Spawn("p", func(p *Proc) {
		defer func() { cleaned = true }()
		c.Wait(p)
	})
	if _, err := e.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
	e.Close()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
}

func TestBlockedCounter(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) { c.Wait(p) })
	}
	e.Schedule(Time(10), func() {
		if e.Blocked() != 3 {
			t.Errorf("Blocked = %d, want 3", e.Blocked())
		}
		c.Signal(nil)
	})
	_, err := e.Run(0)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
	if e.Blocked() != 2 {
		t.Fatalf("Blocked after one signal = %d", e.Blocked())
	}
	e.Close()
}

// Property: N processes sleeping random durations wake in nondecreasing
// time order and all complete.
func TestSleepWakeOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		e := NewEngine()
		var wakes []Time
		for i, r := range raw {
			d := Duration(r) * Microsecond
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				wakes = append(wakes, p.Now())
			})
		}
		if _, err := e.Run(0); err != nil {
			return false
		}
		if len(wakes) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(wakes, func(i, j int) bool { return wakes[i] < wakes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineThroughput measures raw event throughput of the DES
// kernel — the budget every cluster simulation spends from.
func BenchmarkEngineThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(Microsecond, tick)
		}
	}
	b.ResetTimer()
	e.After(Microsecond, tick)
	if _, err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcessSwitch measures the coroutine handoff cost (a park
// and a resume, each a direct coroutine switch), the per-blocking-call
// overhead of every simulated process.
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if _, err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

func TestEnginePending(t *testing.T) {
	e := NewEngine()
	e.Schedule(Time(10), func() {})
	e.Schedule(Time(20), func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

// A callback panic unwinds Run to its caller, on 1 and 2 shards. The
// panicking event is then gone from the queue, alone or among others,
// and a later Run fires every other event once. A later Run that finds
// the queues drained returns the panicking event's time: the unwound
// window left the clocks ahead of the group's horizon. Inside a
// callback, Pending and nextEventTime count what the callback has
// scheduled so far, never the running event itself.
func TestRunAfterCallbackPanic(t *testing.T) {
	const us = Time(Microsecond)
	// A lookahead below the event spacing runs one event per window on
	// two shards, so the shared logs are race-free.
	const look = Microsecond
	runPanic := func(g *Group) (pan any) {
		defer func() { pan = recover() }()
		_, err := g.Run(0)
		t.Errorf("Run returned %v, want the callback's panic", err)
		return nil
	}
	wantQueue := func(t *testing.T, g *Group, n int, next Time) {
		t.Helper()
		pending := 0
		for i := 0; i < g.Size(); i++ {
			pending += g.Engine(i).Pending()
		}
		if pending != n {
			t.Errorf("Pending() = %d, want %d", pending, n)
		}
		at, ok := g.minNextEvent()
		if ok != (n > 0) || (ok && at != next) {
			t.Errorf("nextEventTime() = %v, %v; want %v with %d pending", at, ok, next, n)
		}
	}

	t.Run("among others", func(t *testing.T) {
		for _, shards := range []int{1, 2} {
			g := NewGroup(shards, look)
			defer g.Close()
			first, last := g.Engine(0), g.Engine(shards-1)
			var got []string
			log := func(s string) func() { return func() { got = append(got, s) } }
			first.Schedule(10*us, log("a"))
			last.Schedule(20*us, func() { got = append(got, "boom"); panic("boom") })
			first.Schedule(30*us, log("c"))
			last.Schedule(40*us, log("d"))
			if pan := runPanic(g); pan != "boom" {
				t.Fatalf("%d shards: recovered %v, want boom", shards, pan)
			}
			wantQueue(t, g, 2, 30*us)
			first.Schedule(25*us, log("e"))
			end, err := g.Run(0)
			// Two shards return the last window's horizon.
			if want := 40*us + Time(shards-1)*Time(look); err != nil || end != want {
				t.Fatalf("%d shards: second Run = %v, %v; want %v, nil", shards, end, err, want)
			}
			if s := strings.Join(got, " "); s != "a boom e c d" {
				t.Fatalf("%d shards: fired %q, want %q", shards, s, "a boom e c d")
			}
			wantQueue(t, g, 0, 0)
		}
	})

	t.Run("only event", func(t *testing.T) {
		for _, shards := range []int{1, 2} {
			g := NewGroup(shards, look)
			defer g.Close()
			fired := 0
			g.Engine(shards-1).Schedule(10*us, func() { fired++; panic("boom") })
			if pan := runPanic(g); pan != "boom" {
				t.Fatalf("%d shards: recovered %v, want boom", shards, pan)
			}
			wantQueue(t, g, 0, 0)
			end, err := g.Run(0)
			if err != nil || end != 10*us || fired != 1 {
				t.Fatalf("%d shards: second Run = %v, %v with %d fired; want 10 µs, nil with 1", shards, end, err, fired)
			}
		}
	})

	t.Run("inside a callback", func(t *testing.T) {
		for _, shards := range []int{1, 2} {
			g := NewGroup(shards, look)
			defer g.Close()
			e := g.Engine(shards - 1)
			e.Schedule(50*us, func() {})
			e.Schedule(10*us, func() {
				wantQueue(t, g, 1, 50*us)
				e.Schedule(30*us, func() {})
				wantQueue(t, g, 2, 30*us)
				e.Schedule(20*us, func() {})
				wantQueue(t, g, 3, 20*us)
			})
			if _, err := e.Run(0); err != nil {
				t.Fatal(err)
			}
			if e.Fired() != 4 {
				t.Fatalf("%d shards: Fired() = %d, want 4", shards, e.Fired())
			}
		}
	})
}

func TestFiredCountsEveryEventKind(t *testing.T) {
	e := NewEngine()
	e.Schedule(Time(10), func() {})
	c := NewCond(e)
	e.Spawn("sleeper", func(p *Proc) { // start
		p.Sleep(5) // wake
		c.Wait(p)  // deliver
	})
	e.Spawn("waker", func(p *Proc) { // start
		p.Sleep(20) // wake
		c.Signal(nil)
	})
	tm := e.NewTimer(func() {})
	tm.Reset(Time(30)) // timer
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := e.Fired(); got != 7 {
		t.Fatalf("Fired() = %d, want 7", got)
	}
}
