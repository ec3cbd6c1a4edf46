package sim

import "testing"

// Engine hot-path microbenchmarks. `make bench` records these in
// bin/BENCH_sim.json so the events/sec and allocs/op trajectory of the
// kernel is tracked across PRs. All but HeapChurn, which times the
// bare heap, run their events through Group.Run (Engine.Run is its
// one-shard group's Run). The Sleep/wake and Cond ping-pong benches are
// the paths a cluster run hits millions of times (every simulated
// compute burst, link hold, and MPI match).

// BenchmarkSchedule measures the enqueue/dispatch cost of plain
// callback events: one pending event at a time, b.N rounds.
func BenchmarkSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Close()
	var tick func()
	n := 0
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

// BenchmarkSleepWake measures the full block/wake round trip of one
// process sleeping b.N times: two coroutine switches plus an
// allocation-free evWake event each iteration.
func BenchmarkSleepWake(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Close()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Microsecond)
		}
	})
	b.ResetTimer()
	if _, err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondPingPong measures the deliver path (evDeliver carrying a
// value) between two processes trading a token b.N times. The payload
// is one reused *int: a pointer is stored in the interface word
// directly, so the bench measures the engine's deliver cost, not the
// ~8 B/op the compiler's convT64 would add for boxing a fresh int every
// iteration (which is a property of the caller's payload, not of the
// kernel — and would keep the exact B/op gate off zero).
func BenchmarkCondPingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Close()
	ping, pong := NewCond(e), NewCond(e)
	token := new(int)
	// pong is spawned first so it is already parked on its Cond when
	// ping's first Signal fires.
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Wait(p)
			ping.Signal(nil)
		}
	})
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			*token = i
			pong.Signal(token)
			ping.Wait(p)
		}
	})
	b.ResetTimer()
	if _, err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn measures a process's whole life: each iteration a
// parent spawns a child that sleeps once and finishes. The child runs
// on the coroutine the previous child left idle, so the one allocation
// per iteration is the Proc itself.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Close()
	child := func(p *Proc) { p.Sleep(Microsecond) }
	e.Spawn("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Spawn("child", child)
			p.Sleep(2 * Microsecond)
		}
	})
	b.ResetTimer()
	if _, err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHeapChurn measures raw queue push/pop with a deterministic
// spread of timestamps: a standing population of 1024 events, one
// pop+push per iteration — the steady-state shape of a cluster run.
func BenchmarkHeapChurn(b *testing.B) {
	b.ReportAllocs()
	var h eventHeap
	const pop = 1024
	// xorshift keeps timestamps deterministic without math/rand.
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	seq := uint64(0)
	for i := 0; i < pop; i++ {
		seq++
		h.push(&event{t: Time(rnd() % 1_000_000), seq: seq})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		seq++
		h.push(&event{t: ev.t + Time(rnd()%1024), seq: seq})
	}
}

// BenchmarkEngineChurn measures one fired event of a queue shaped like
// a 256-rank FT run's, through the production loop rather than the bare
// heap: Engine.Run is its one-shard group's Run, whose window fires the
// events in runUntil. Far ahead sit 256 spin-fallback timers, which the
// near callbacks keep re-arming to +4 s so that they fire only once the
// run drains, and 256 pollers that re-schedule themselves every 15 s.
// About 220 near callbacks each schedule 0, 1 or 2 follow-ups (in the
// ratio 1:5:1, within a population of 200 to 240) at offsets of 0 to
// 216 µs, and re-arm one timer. One op is one near callback.
func BenchmarkEngineChurn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Close()
	// xorshift keeps the draws deterministic without math/rand.
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const ranks = 256
	offsets := [...]Duration{0, 3 * Microsecond, 18 * Microsecond, 45 * Microsecond, 216 * Microsecond}
	var timers [ranks]*Timer
	n, live := 0, 220
	var near, poll func()
	near = func() {
		n++
		live--
		if n >= b.N {
			return
		}
		timers[n%ranks].Reset(e.Now().Add(4 * Second))
		k := 1
		switch rnd() % 7 {
		case 0:
			k = 0
		case 1:
			k = 2
		}
		if (live < 200 && k == 0) || (live >= 240 && k == 2) {
			k = 1
		}
		for ; k > 0; k-- {
			live++
			e.After(offsets[rnd()%uint64(len(offsets))], near)
		}
	}
	poll = func() {
		if n < b.N {
			e.After(15*Second, poll)
		}
	}
	for i := range timers {
		timers[i] = e.NewTimer(func() {})
		timers[i].Reset(Time(4 * Second))
		e.Schedule(Time(i)*Time(15*Second)/ranks, poll)
	}
	for i := 0; i < live; i++ {
		e.After(offsets[rnd()%uint64(len(offsets))], near)
	}
	b.ResetTimer()
	if _, err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerReset measures the re-armable timer on both of its
// re-arm paths, once each per iteration: a tick re-arms the timer
// while its entry is still queued (the entry is re-filed when it
// reaches the front, as when an MPI wait opens a new spin epoch), and
// the timer, once fired, re-arms itself from its callback. Re-arming
// reuses the queue's capacity, so the gate is zero allocations.
func BenchmarkTimerReset(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	defer e.Close()
	n := 0
	var tm *Timer
	tm = e.NewTimer(func() {
		if n < b.N {
			tm.Reset(e.Now().Add(6))
		}
	})
	var tick func()
	tick = func() {
		n++
		tm.Reset(e.Now().Add(7))
		if n < b.N {
			e.After(10, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(0, tick)
	if _, err := e.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGroupChurn measures one fired event of a one-shard Group
// shaped like a paper-figure run: eight event chains, one per rank,
// each scheduling its next event 3 to 216 µs ahead (about five events
// per 45 µs lookahead), and a global that re-arms every 10 ms, as the
// power strip's polls do. One op is one chain event.
func BenchmarkGroupChurn(b *testing.B) {
	b.ReportAllocs()
	g := NewGroup(1, 45*Microsecond)
	defer g.Close()
	e := g.Engine(0)
	// xorshift keeps the draws deterministic without math/rand.
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const chains = 8
	offsets := [...]Duration{3 * Microsecond, 18 * Microsecond, 45 * Microsecond, 100 * Microsecond, 216 * Microsecond}
	n := 0
	var near func()
	near = func() {
		n++
		if n < b.N {
			e.After(offsets[rnd()%uint64(len(offsets))], near)
		}
	}
	var at Time
	var poll func()
	poll = func() {
		if n < b.N {
			at = at.Add(10 * Millisecond)
			g.ScheduleGlobal(at, 0, poll)
		}
	}
	for i := 0; i < chains; i++ {
		e.After(offsets[rnd()%uint64(len(offsets))], near)
	}
	g.ScheduleGlobal(0, 0, poll)
	b.ResetTimer()
	if _, err := g.Run(0); err != nil {
		b.Fatal(err)
	}
}
