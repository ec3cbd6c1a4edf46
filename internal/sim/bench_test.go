package sim

import "testing"

// Engine hot-path microbenchmarks. `make bench` records these in
// bin/BENCH_sim.json so the events/sec and allocs/op trajectory of the
// kernel is tracked across PRs. The Sleep/wake and Cond ping-pong
// benches are the paths a cluster run hits millions of times (every
// simulated compute burst, link hold, and MPI match).

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
