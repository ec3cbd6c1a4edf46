package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutinesAtMost waits up to a second for the goroutine count to fall
// to want and returns the last count it saw. The wait only absorbs
// goroutines of earlier tests that are still exiting; an ended
// coroutine is gone by the time stop or next returns.
func goroutinesAtMost(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// A process that starts after the previous one finished reuses its
// coroutine, and Spawn itself starts nothing: a thousand back-to-back
// processes run on one extra goroutine.
func TestSpawnReusesCoroutine(t *testing.T) {
	e := NewEngine()
	base := runtime.NumGoroutine()
	peak := base
	for i := 0; i < 1000; i++ {
		e.SpawnAt(Time(i)*Time(10*Microsecond), "short", func(p *Proc) {
			peak = max(peak, runtime.NumGoroutine())
			p.Sleep(Microsecond)
			peak = max(peak, runtime.NumGoroutine())
		})
	}
	peak = max(peak, runtime.NumGoroutine())
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if peak > base+2 {
		t.Fatalf("goroutines peaked at %d, %d above the %d at the start of the run", peak, peak-base, base)
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d", e.Live())
	}
}

// A Run whose processes all finished ends its idle coroutines, with no
// Close.
func TestRunReleasesFinishedCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	ping, pong := NewCond(e), NewCond(e)
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < 3; i++ {
			pong.Wait(p)
			ping.Signal(nil)
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < 3; i++ {
			pong.Signal(nil)
			ping.Wait(p)
			e.Spawn("child", func(p *Proc) { p.Sleep(Microsecond) })
		}
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
}

// Group.Run ends every shard's idle coroutines on two shards, as on one.
func TestGroupRunReleasesFinishedCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewGroup(2, Microsecond)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			g.Engine(i).SpawnAt(Time(j)*Time(10*Microsecond), "short", func(p *Proc) { p.Sleep(Microsecond) })
		}
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
}

// Close drops a process that never started and unwinds a parked and a
// waking one, running their deferred calls; afterwards no coroutine is
// left.
func TestCloseReleasesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	c := NewCond(e)
	var unwound []string
	e.SpawnAt(Time(100*Microsecond), "created", func(p *Proc) {
		t.Error("a process that never started ran its body")
	})
	e.Spawn("parked", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		c.Wait(p)
	})
	waking := e.Spawn("waking", func(p *Proc) {
		defer func() { unwound = append(unwound, p.Name()) }()
		p.yield(true)
	})
	// The wake lands after the run's limit, so waking is still waking
	// when Run returns.
	e.Schedule(Time(5*Microsecond), func() { waking.deliverAt(Time(50*Microsecond), nil) })
	e.Spawn("done", func(p *Proc) { p.Sleep(Microsecond) })
	if _, err := e.Run(Time(10 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	if waking.state != procWaking || e.Live() != 3 {
		t.Fatalf("before Close: waking in state %d, Live = %d", waking.state, e.Live())
	}
	e.Close()
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Close", e.Live())
	}
	if got := strings.Join(unwound, ","); got != "parked,waking" && got != "waking,parked" {
		t.Fatalf("unwound %q, want parked and waking", got)
	}
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after Close, %d before", n, before)
	}
}

// runtime.Goexit in a body unwinds the goroutine that called Run, the
// way t.FailNow in a body ends the test.
func TestGoexitUnwindsRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn("exits", func(p *Proc) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = e.Run(0)
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a body called runtime.Goexit")
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d", e.Live())
	}
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after the Goexit, %d before", n, before)
	}
}
