package sim

import (
	"errors"
	"fmt"
	"math/rand"
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
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.Schedule(Time(50), func() {})
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(Time(10), func() { fired++ })
	e.Schedule(Time(100), func() { fired++ })
	end, err := e.Run(Time(50))
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 || end != Time(50) {
		t.Fatalf("fired=%d end=%v", fired, end)
	}
	// A limit behind the clock leaves it where it is, so the past stays
	// closed to Schedule.
	end, err = e.Run(Time(20))
	if err != nil || end != Time(50) || e.Now() != Time(50) {
		t.Fatalf("Run(20) after Run(50) = %d ns, %v with Now() %d ns; want 50 ns, nil", int64(end), err, int64(e.Now()))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Schedule(30) after the clock reached 50 did not panic")
			}
		}()
		e.Schedule(Time(30), func() { fired++ })
	}()
	// Resume to exhaustion.
	end, err = e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 2 || end != Time(100) {
		t.Fatalf("after resume fired=%d end=%v", fired, end)
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

// A body panic is reported by Run, and the panicking body's coroutine
// is ended with the other idle ones.
func TestProcPanicReportedByRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	_, err := e.Run(0)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
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

// A callback panic unwinds Run to its caller. The panicking event is
// then gone from the queue, alone or among others, and a later Run
// fires every other event once. Inside a callback, Pending and
// NextEventTime count what the callback has scheduled so far, never the
// running event itself.
func TestRunAfterCallbackPanic(t *testing.T) {
	const us = Time(Microsecond)
	runPanic := func(e *Engine) (pan any) {
		defer func() { pan = recover() }()
		_, err := e.Run(0)
		t.Errorf("Run returned %v, want the callback's panic", err)
		return nil
	}
	wantQueue := func(t *testing.T, e *Engine, n int, next Time) {
		t.Helper()
		if got := e.Pending(); got != n {
			t.Errorf("Pending() = %d, want %d", got, n)
		}
		at, ok := e.NextEventTime()
		if ok != (n > 0) || (ok && at != next) {
			t.Errorf("NextEventTime() = %v, %v; want %v with %d pending", at, ok, next, n)
		}
	}

	t.Run("among others", func(t *testing.T) {
		e := NewEngine()
		var got []string
		log := func(s string) func() { return func() { got = append(got, s) } }
		e.Schedule(10*us, log("a"))
		e.Schedule(20*us, func() { got = append(got, "boom"); panic("boom") })
		e.Schedule(30*us, log("c"))
		e.Schedule(40*us, log("d"))
		if pan := runPanic(e); pan != "boom" {
			t.Fatalf("recovered %v, want boom", pan)
		}
		wantQueue(t, e, 2, 30*us)
		e.Schedule(25*us, log("e"))
		end, err := e.Run(0)
		if err != nil || end != 40*us {
			t.Fatalf("second Run = %v, %v; want 40 µs, nil", end, err)
		}
		if s := strings.Join(got, " "); s != "a boom e c d" {
			t.Fatalf("fired %q, want %q", s, "a boom e c d")
		}
		wantQueue(t, e, 0, 0)
	})

	t.Run("only event", func(t *testing.T) {
		e := NewEngine()
		fired := 0
		e.Schedule(10*us, func() { fired++; panic("boom") })
		if pan := runPanic(e); pan != "boom" {
			t.Fatalf("recovered %v, want boom", pan)
		}
		wantQueue(t, e, 0, 0)
		end, err := e.Run(0)
		if err != nil || end != 10*us || fired != 1 {
			t.Fatalf("second Run = %v, %v with %d fired; want 10 µs, nil with 1", end, err, fired)
		}
	})

	t.Run("inside a callback", func(t *testing.T) {
		e := NewEngine()
		e.Schedule(50*us, func() {})
		e.Schedule(10*us, func() {
			wantQueue(t, e, 1, 50*us)
			e.Schedule(30*us, func() {})
			wantQueue(t, e, 2, 30*us)
			e.Schedule(20*us, func() {})
			wantQueue(t, e, 3, 20*us)
		})
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		if e.Fired() != 4 {
			t.Fatalf("Fired() = %d, want 4", e.Fired())
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
