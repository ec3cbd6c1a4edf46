package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// pingPong runs a K-shard ping-pong chain: each of n logical ports
// lives on shard port*K/n, sleeps, and posts to its successor one
// lookahead ahead. Each hop also books a global one lookahead ahead,
// which logs the clock it runs at and the deliveries made so far; on
// one shard it lands inside a running window. It returns one delivery
// log per port and then the globals' log (a port's log is only
// appended from its own shard and the globals' from the coordinator,
// so the logs are race-free and their contents — unlike a cross-shard
// interleaving — are a simulation property).
func pingPong(shards, n, hops int, look Duration) [][]string {
	g := NewGroup(shards, look)
	defer g.Close()
	shardOf := func(port int) int { return port * shards / n }
	log := make([][]string, n+1)
	seen := func(port int) {
		delivered := 0
		for _, l := range log[:n] {
			delivered += len(l)
		}
		log[n] = append(log[n], fmt.Sprintf("%v port%d saw%d", g.Engine(0).Now(), port, delivered))
	}
	var hop func(port, depth int)
	hop = func(port, depth int) {
		e := g.Engine(shardOf(port))
		log[port] = append(log[port], fmt.Sprintf("%v depth%d", e.Now(), depth))
		g.ScheduleGlobal(e.Now().Add(look), uint64(port), func() { seen(port) })
		if depth >= hops {
			return
		}
		next := (port + 1) % n
		t := e.Now().Add(look)
		seq := uint64(depth + 1)
		if shardOf(next) != shardOf(port) {
			g.Post(shardOf(next), t, port, seq, func() { hop(next, depth+1) })
		} else {
			e.PostArrival(t, port, seq, func() { hop(next, depth+1) })
		}
	}
	for p := 0; p < n; p++ {
		p := p
		g.Engine(shardOf(p)).Schedule(Time(p)*Time(Microsecond), func() { hop(p, 0) })
	}
	if _, err := g.Run(0); err != nil {
		panic(err)
	}
	return log
}

// TestShardGroupCountInvariance pins the core determinism guarantee:
// the same event program produces the identical execution log at any
// shard count, because arrival keys — not drain order — order events.
// The globals' log pins the one-shard window: a global booked inside
// it must stop it, or the global sees later deliveries.
func TestShardGroupCountInvariance(t *testing.T) {
	const n, hops = 8, 40
	look := 45 * Microsecond
	want := pingPong(1, n, hops, look)
	total := 0
	for _, l := range want[:n] {
		total += len(l)
	}
	if total != n*(hops+1) || len(want[n]) != n*(hops+1) {
		t.Fatalf("logs have %d deliveries and %d globals, want %d of each", total, len(want[n]), n*(hops+1))
	}
	if first := fmt.Sprintf("%v port0 saw%d", look, n); want[n][0] != first {
		t.Fatalf("first global logged %q, want %q", want[n][0], first)
	}
	for _, k := range []int{2, 3, 4, 8} {
		got := pingPong(k, n, hops, look)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: log differs from 1 shard\n got %v\nwant %v", k, got, want)
		}
	}
}

// TestShardGroupDeadlock checks that a blocked process with drained
// queues surfaces ErrDeadlock on two shards, as on one.
func TestShardGroupDeadlock(t *testing.T) {
	g := NewGroup(2, Microsecond)
	defer g.Close()
	c := new(Cond)
	g.Engine(0).Spawn("stuck", func(p *Proc) { c.Wait(p) })
	g.Engine(1).Schedule(5*Time(Microsecond), func() {})
	if _, err := g.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
}

// TestShardGroupLimit puts a limit inside one lookahead window that
// every shard has events in, on both sides of the limit and exactly at
// it. The window runs the events at or before the limit on each shard,
// on two shards at once, leaves the later ones queued and parks the
// clocks at the limit; resuming runs the rest. Each shard appends only
// to its own log, so the logs are race-free. TestRunLimit checks the
// limit across windows and globals.
func TestShardGroupLimit(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		drained Time // what Run(0) returns once the queues drain
	}{{1, 50}, {2, 140}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			g := NewGroup(tc.shards, 100)
			defer g.Close()
			logs := make([][]Time, tc.shards)
			for i, times := range [][]Time{{10, 30, 40}, {20, 30, 50}} {
				shard := i * (tc.shards - 1)
				e := g.Engine(shard)
				for _, at := range times {
					e.Schedule(at, func() { logs[shard] = append(logs[shard], e.Now()) })
				}
			}
			run := func(limit, wantEnd Time, want [][]Time) {
				t.Helper()
				end, err := g.Run(limit)
				if err != nil {
					t.Fatal(err)
				}
				if end != wantEnd || g.Now() != wantEnd || g.Engine(0).Now() != wantEnd || g.Engine(tc.shards-1).Now() != wantEnd {
					t.Fatalf("Run(%d) = %d with clocks %d, %d and group at %d; want %d", limit, end, g.Engine(0).Now(), g.Engine(tc.shards-1).Now(), g.Now(), wantEnd)
				}
				if !reflect.DeepEqual(logs, want) {
					t.Fatalf("after Run(%d) shards ran %v, want %v", limit, logs, want)
				}
			}
			parked := [][]Time{{10, 20, 30, 30}}
			done := [][]Time{{10, 20, 30, 30, 40, 50}}
			if tc.shards == 2 {
				parked = [][]Time{{10, 30}, {20, 30}}
				done = [][]Time{{10, 30, 40}, {20, 30, 50}}
			}
			run(30, 30, parked)
			if w := g.Windows(); w != 1 {
				t.Fatalf("Run(30) took %d windows, want the one that holds the limit", w)
			}
			run(0, tc.drained, done)
		})
	}
}

// TestShardGroupOneShardPastGlobal books a global behind the shard's
// clock from a shard event. On one shard the window has run past the
// group horizon, so ScheduleGlobal checks the shard's clock and panics.
func TestShardGroupOneShardPastGlobal(t *testing.T) {
	g := NewGroup(1, 10*Microsecond)
	defer g.Close()
	g.Engine(0).Schedule(Time(50*Microsecond), func() { g.ScheduleGlobal(Time(40*Microsecond), 0, func() {}) })
	var err error
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "ScheduleGlobal at 0.000040s before horizon 0.000050s") {
			t.Fatalf("Run returned %v and panicked with %q, want the ScheduleGlobal past-time panic", err, msg)
		}
	}()
	_, err = g.Run(0)
}

// TestShardGroupOneShardPost posts from a shard event to its own shard
// one lookahead ahead while later local events are queued. A one-shard
// window runs past the arrival's time, so the arrival must reach the
// engine at once: parked in the inbox until the window ended it would
// be behind the clock.
func TestShardGroupOneShardPost(t *testing.T) {
	look := 10 * Microsecond
	g := NewGroup(1, look)
	defer g.Close()
	e := g.Engine(0)
	var ran []Time
	e.Schedule(0, func() {
		ran = append(ran, e.Now())
		g.Post(0, e.Now().Add(look), 0, 1, func() { ran = append(ran, e.Now()) })
	})
	for _, at := range []Time{Time(2 * look), Time(5 * look)} {
		e.Schedule(at, func() { ran = append(ran, e.Now()) })
	}
	end, err := g.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Time{0, Time(look), Time(2 * look), Time(5 * look)}; end != Time(5*look) || !reflect.DeepEqual(ran, want) {
		t.Fatalf("Run = %v and ran %v; want %v and %v", end, ran, Time(5*look), want)
	}
}

// TestShardGroupGlobals checks that coordinator globals run with every
// shard stopped at their timestamp, between shard events, and that
// same-time globals order by priority regardless of schedule order.
func TestShardGroupGlobals(t *testing.T) {
	g := NewGroup(2, Microsecond)
	defer g.Close()
	var evAt [2]Time // per-shard slots: shard events may run concurrently
	for _, e := range []int{0, 1} {
		e := e
		g.Engine(e).Schedule(Time(100+e), func() { evAt[e] = g.Engine(e).Now() })
	}
	var log []string // coordinator-only appends
	g.ScheduleGlobal(150, 7, func() {
		if g.Engine(0).Now() != 150 || g.Engine(1).Now() != 150 {
			t.Errorf("global ran with clocks %v, %v", g.Engine(0).Now(), g.Engine(1).Now())
		}
		if evAt[0] != 100 || evAt[1] != 101 {
			t.Errorf("global does not see shard writes: %v", evAt)
		}
		log = append(log, "gB")
	})
	g.ScheduleGlobal(150, 3, func() { log = append(log, "gA") })
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"gA", "gB"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log %v, want %v", log, want)
	}
}

// TestShardGroupGlobalReschedule checks the self-rearming pattern the
// samplers use: a global scheduling its successor at t + interval.
func TestShardGroupGlobalReschedule(t *testing.T) {
	g := NewGroup(3, Microsecond)
	defer g.Close()
	var ticks []Time
	var tick func(at Time)
	tick = func(at Time) {
		g.ScheduleGlobal(at, 1, func() {
			ticks = append(ticks, at)
			if len(ticks) < 4 {
				tick(at + 50)
			}
		})
	}
	tick(0)
	g.Engine(2).Schedule(120, func() {})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ticks, []Time{0, 50, 100, 150}) {
		t.Fatalf("ticks %v", ticks)
	}
}

// TestShardGroupPostFromWindow exercises Post called concurrently from
// inside running windows (the mpi delivery path) — the -race target
// runs this with real parallelism.
func TestShardGroupPostFromWindow(t *testing.T) {
	const shards = 4
	look := 10 * Microsecond
	g := NewGroup(shards, look)
	defer g.Close()
	counts := make([]int, shards)
	var spray func(shard, depth int)
	spray = func(shard, depth int) {
		counts[shard]++
		if depth == 0 {
			return
		}
		for d := 0; d < shards; d++ {
			if d == shard {
				continue
			}
			d := d
			t := g.Engine(shard).Now().Add(look)
			g.Post(d, t, shard, uint64(depth), func() { spray(d, depth-1) })
		}
	}
	for s := 0; s < shards; s++ {
		s := s
		g.Engine(s).Schedule(0, func() { spray(s, 4) })
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	// Each of the 4 roots fans out 3-way for 4 levels: 1+3+9+27+81.
	if want := shards * 121; total != want {
		t.Fatalf("delivered %d events, want %d", total, want)
	}
}

// TestShardGroupBarrierUnderLoad runs the count-invariance chain from
// several goroutines at once, repeatedly, so that coordinators and
// shard workers are descheduled in the middle of a window handoff. A
// barrier wait that returned on a wake meant for another window let a
// shard run into the next window, and the logs then differed. The
// chains' goroutines outnumber 1 and 2 processors, so there every wait
// blocks; at GOMAXPROCS 8 a wait spins whenever the chains running at
// that moment fit, and blocks otherwise.
func TestShardGroupBarrierUnderLoad(t *testing.T) {
	const n, hops, rounds, chains = 8, 40, 10, 4
	look := 45 * Microsecond
	want := pingPong(1, n, hops, look)
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		for c := 0; c < chains; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for _, k := range []int{2, 3, 4, 8} {
						if got := pingPong(k, n, hops, look); !reflect.DeepEqual(got, want) {
							t.Errorf("GOMAXPROCS %d, %d shards, round %d: log differs from 1 shard\n got %v\nwant %v", procs, k, r, got, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
	}
}

// TestLatchStaleWake replays the signal of epoch 1, as a signaller
// delayed between its store and cond.Signal until the waiter had moved
// on to epoch 2 would deliver it, while the waiter blocks. The wait
// must re-check its epoch and keep waiting; only the signal of its own
// epoch ends it.
func TestLatchStaleWake(t *testing.T) {
	var l latch
	l.cond.L = &l.mu
	l.signal(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.await(2, 0)
	}()
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		l.signal(1)
		select {
		case <-done:
			t.Fatal("await(2) returned on a wake sent while the epoch was 1")
		case <-time.After(time.Millisecond):
		}
	}
	l.signal(2)
	<-done
}

// bothActive builds a 2-shard group whose first window has both shards
// active: each shard has a callback at 0 and at 100 ns, well inside one
// lookahead.
func bothActive(on0, on1 func()) *Group {
	g := NewGroup(2, Microsecond)
	g.Engine(0).Schedule(0, func() {})
	g.Engine(1).Schedule(0, func() {})
	g.Engine(0).Schedule(100, on0)
	g.Engine(1).Schedule(100, on1)
	return g
}

// runRecovering runs g to exhaustion and returns Run's error and the
// value of a panic that Run raised on this goroutine, if any.
func runRecovering(g *Group) (err error, pan any) {
	defer func() { pan = recover() }()
	_, err = g.Run(0)
	return err, nil
}

// A callback panic on shard 1, in a window that shard 0 shares,
// re-panics from Group.Run on the caller with its original value, and
// no goroutine outlives Run.
func TestShardGroupWorkerPanicRepanics(t *testing.T) {
	boom := errors.New("boom on shard 1")
	before := runtime.NumGoroutine()
	g := bothActive(func() {}, func() { panic(boom) })
	defer g.Close()
	err, pan := runRecovering(g)
	if pan != boom { //nolint:errorlint // the original value, by identity
		t.Fatalf("Run panicked with %v (err %v), want the original %v", pan, err, boom)
	}
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after the panic, %d before Run", n, before)
	}
}

// A process panic on shard 1, in a window that shard 0 shares, comes
// back from Group.Run as an error naming the process.
func TestShardGroupWorkerProcessPanicIsError(t *testing.T) {
	before := runtime.NumGoroutine()
	g := bothActive(func() {}, func() {})
	defer g.Close()
	g.Engine(0).Spawn("fine", func(p *Proc) { p.Sleep(50) })
	g.Engine(1).Spawn("bad", func(p *Proc) {
		p.Sleep(50)
		panic("boom")
	})
	err, pan := runRecovering(g)
	if pan != nil {
		t.Fatalf("Run panicked with %v, want an error", pan)
	}
	if err == nil || !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the panic of process \"bad\"", err)
	}
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
}

// When both shards panic in one window, the lowest shard's value wins,
// as it would in a sequential loop over the shards.
func TestShardGroupLowestShardPanicWins(t *testing.T) {
	boom0, boom1 := errors.New("boom on shard 0"), errors.New("boom on shard 1")
	before := runtime.NumGoroutine()
	g := bothActive(func() { panic(boom0) }, func() { panic(boom1) })
	defer g.Close()
	err, pan := runRecovering(g)
	if pan != boom0 { //nolint:errorlint // the original value, by identity
		t.Fatalf("Run panicked with %v (err %v), want shard 0's %v", pan, err, boom0)
	}
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after the panic, %d before Run", n, before)
	}
}

// A body's runtime.Goexit on a worker's shard unwinds the goroutine
// that called Group.Run, as it does on one shard, and the workers are
// joined on the way out.
func TestShardGroupWorkerGoexitUnwindsRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	g := bothActive(func() {}, func() {})
	defer g.Close()
	g.Engine(1).Spawn("exits", func(p *Proc) {
		p.Sleep(50)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = g.Run(0)
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a body on shard 1 called runtime.Goexit")
	}
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after the Goexit, %d before Run", n, before)
	}
}

// A deadlock found after windows that ran both shards returns
// ErrDeadlock, and once the group is closed no goroutine is left.
func TestShardGroupDeadlockLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	g := bothActive(func() {}, func() {})
	c := new(Cond)
	g.Engine(1).Spawn("stuck", func(p *Proc) { c.Wait(p) })
	if _, err := g.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
	g.Close()
	if n := goroutinesAtMost(before); n > before {
		t.Fatalf("%d goroutines after Run and Close, %d before Run", n, before)
	}
}

// A multi-shard Run counts its goroutines in shardGoroutines while it
// runs and uncounts them on every exit, and its waits spin only while
// the counted goroutines fit on the processors: not when another
// sharded Run's goroutines are counted too, and never at GOMAXPROCS 1.
func TestShardGroupSpinRule(t *testing.T) {
	before := shardGoroutines.Load()
	for _, tc := range []struct{ procs, alone int }{{2, spinLoads}, {1, 0}} {
		prev := runtime.GOMAXPROCS(tc.procs)
		var g *Group
		var counted int64
		alone, crowded := -1, -1
		g = bothActive(func() {
			counted = shardGoroutines.Load() - before
			alone = g.spin()
			shardGoroutines.Add(2) // another 2-shard Run starts
			crowded = g.spin()
			shardGoroutines.Add(-2)
		}, func() {})
		_, err := g.Run(0)
		g.Close()
		runtime.GOMAXPROCS(prev)
		if err != nil || counted != 2 || alone != tc.alone || crowded != 0 {
			t.Fatalf("GOMAXPROCS %d: err %v, counted %d goroutines, spin %d alone and %d beside another Run; want nil, 2, %d, 0",
				tc.procs, err, counted, alone, crowded, tc.alone)
		}
		if n := shardGoroutines.Load(); n != before {
			t.Fatalf("GOMAXPROCS %d: %d shard goroutines counted after Run, %d before", tc.procs, n, before)
		}
	}
	boom := errors.New("boom on shard 1")
	g := bothActive(func() {}, func() { panic(boom) })
	defer g.Close()
	if _, pan := runRecovering(g); pan != boom { //nolint:errorlint // the original value, by identity
		t.Fatalf("Run panicked with %v, want %v", pan, boom)
	}
	if n := shardGoroutines.Load(); n != before {
		t.Fatalf("%d shard goroutines counted after a panicking Run, %d before", n, before)
	}
}

// Run called while the group is running fails with the reentrancy
// error, and the outer Run finishes as if it had not been called: on 1
// and 2 shards, from a coordinator global through Group.Run and from a
// shard event through the shard's Engine.Run (on 2 shards the last
// shard's events run on a worker). Once the queues drain, one shard
// returns the last event's time and two shards the last window's
// horizon.
func TestRunReentrant(t *testing.T) {
	const ticks, look = 100, 10 * Microsecond
	lastEvent := Time(ticks * Microsecond)
	before := shardGoroutines.Load()
	for _, tc := range []struct {
		shards  int
		wantEnd Time
	}{{1, lastEvent}, {2, lastEvent.Add(look)}} {
		shards, wantEnd := tc.shards, tc.wantEnd
		for _, from := range []string{"global", "shard event"} {
			g := NewGroup(shards, look)
			for i := 0; i < shards; i++ {
				for k := 0; k <= ticks; k++ {
					g.Engine(i).Schedule(Time(k)*Time(Microsecond), func() {})
				}
			}
			var inner error
			want := uint64(shards * (ticks + 1))
			if from == "global" {
				g.ScheduleGlobal(20*Time(Microsecond), 0, func() { _, inner = g.Run(30 * Time(Microsecond)) })
			} else {
				e := g.Engine(shards - 1)
				e.Schedule(20*Time(Microsecond), func() { _, inner = e.Run(30 * Time(Microsecond)) })
				want++
			}
			end, err := g.Run(0)
			var fired uint64
			for i := 0; i < shards; i++ {
				fired += g.Engine(i).Fired()
			}
			g.Close()
			if err != nil || end != wantEnd || fired != want || !errors.Is(inner, errReentrant) {
				t.Errorf("%d shards, from a %s: outer Run = %v, %v after %d events and inner Run error %v; want %v, nil, %d and %v",
					shards, from, end, err, fired, inner, wantEnd, want, errReentrant)
			}
			if n := shardGoroutines.Load(); n != before {
				t.Errorf("%d shards, from a %s: %d shard goroutines counted after Run, %d before", shards, from, n, before)
			}
		}
	}
}
