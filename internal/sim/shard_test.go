package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// pingPong runs a K-shard ping-pong chain: each of n logical ports
// lives on shard port*K/n, sleeps, and posts to its successor one
// lookahead ahead. It returns one delivery log per port (a port's log
// is only appended from its own shard, so the logs are race-free and
// their contents — unlike a cross-shard interleaving — are a
// simulation property).
func pingPong(shards, n, hops int, look Duration) [][]string {
	g := NewGroup(shards, look)
	defer g.Close()
	shardOf := func(port int) int { return port * shards / n }
	log := make([][]string, n)
	var hop func(port, depth int)
	hop = func(port, depth int) {
		e := g.Engine(shardOf(port))
		log[port] = append(log[port], fmt.Sprintf("%v depth%d", e.Now(), depth))
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
func TestShardGroupCountInvariance(t *testing.T) {
	const n, hops = 8, 40
	look := 45 * Microsecond
	want := pingPong(1, n, hops, look)
	total := 0
	for _, l := range want {
		total += len(l)
	}
	if total != n*(hops+1) {
		t.Fatalf("logs have %d entries, want %d", total, n*(hops+1))
	}
	for _, k := range []int{2, 3, 4, 8} {
		got := pingPong(k, n, hops, look)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: log differs from 1 shard\n got %v\nwant %v", k, got, want)
		}
	}
}

// TestShardGroupDeadlock checks that a blocked process with drained
// queues surfaces ErrDeadlock, like the single-engine Run.
func TestShardGroupDeadlock(t *testing.T) {
	g := NewGroup(2, Microsecond)
	defer g.Close()
	c := NewCond(g.Engine(0))
	g.Engine(0).Spawn("stuck", func(p *Proc) { c.Wait(p) })
	g.Engine(1).Schedule(5*Time(Microsecond), func() {})
	if _, err := g.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("got %v, want ErrDeadlock", err)
	}
}

// TestShardGroupLimit checks limit semantics: events at t <= limit run,
// later ones stay queued, and the clocks park exactly at the limit.
func TestShardGroupLimit(t *testing.T) {
	// A lookahead below the 10 ns event spacing keeps the two shards'
	// events in separate windows, so the shared log is race-free.
	g := NewGroup(2, 5)
	defer g.Close()
	var ran []int
	g.Engine(0).Schedule(10, func() { ran = append(ran, 10) })
	g.Engine(1).Schedule(20, func() { ran = append(ran, 20) })
	g.Engine(0).Schedule(30, func() { ran = append(ran, 30) })
	end, err := g.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if end != 20 || g.Now() != 20 {
		t.Fatalf("parked at %v, want 20", end)
	}
	if !reflect.DeepEqual(ran, []int{10, 20}) {
		t.Fatalf("ran %v", ran)
	}
	if g.Engine(0).Now() != 20 || g.Engine(1).Now() != 20 {
		t.Fatalf("engine clocks %v, %v", g.Engine(0).Now(), g.Engine(1).Now())
	}
	// Resuming executes the leftover event.
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []int{10, 20, 30}) {
		t.Fatalf("after resume ran %v", ran)
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
