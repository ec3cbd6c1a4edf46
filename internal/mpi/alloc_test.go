package mpi

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// allocsPerMessage measures the steady-state heap allocations per
// message of a pattern. run builds a fresh world, runs the given number
// of rounds and closes it; the pattern sends msgsPerRound messages per
// round. The world's set-up and the warm-up of its free lists cost the
// same at k and 2k rounds, so the difference of the two runs divided by
// the extra messages is the per-message cost alone.
func allocsPerMessage(t *testing.T, k, msgsPerRound int, run func(t *testing.T, rounds int)) float64 {
	t.Helper()
	count := func(rounds int) float64 {
		return testing.AllocsPerRun(1, func() { run(t, rounds) })
	}
	return (count(2*k) - count(k)) / float64(k*msgsPerRound)
}

// bytesPerMessage is allocsPerMessage for the heap bytes allocated, by
// the same k and 2k difference. Like testing.AllocsPerRun, it runs each
// count once to warm up and measures the second run on one OS thread.
func bytesPerMessage(t *testing.T, k, msgsPerRound int, run func(t *testing.T, rounds int)) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	count := func(rounds int) float64 {
		run(t, rounds)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, rounds)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	return (count(2*k) - count(k)) / float64(k*msgsPerRound)
}

// TestExchangeSize pins the rendezvous record inside the allocator's
// 240-byte size class: one word more moves it to the 256-byte class,
// and every rendezvous message pays the difference.
func TestExchangeSize(t *testing.T) {
	if size := unsafe.Sizeof(exchange{}); size > 240 {
		t.Errorf("exchange is %d bytes, want at most 240 (its size class)", size)
	}
}

// TestEagerMessageAllocations pins that an eager message allocates only
// the Message that Recv hands to its caller: the in-flight record, the
// posted receive and the collectives' requests come from per-rank free
// lists. The patterns cover a blocking Send/Recv ping-pong, Sendrecv
// (eager Isend as events) and a 16-rank Alltoall.
func TestEagerMessageAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need whole simulations")
	}
	if raceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	pingPong := func(t *testing.T, rounds int) {
		g, w := testWorld(2, nil)
		defer g.Close()
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			peer := 1 - r.ID()
			for i := 0; i < rounds; i++ {
				if r.ID() == 0 {
					r.Send(p, peer, 0, 2048, nil)
					r.Recv(p, peer, 0)
				} else {
					r.Recv(p, peer, 0)
					r.Send(p, peer, 0, 2048, nil)
				}
			}
		})
		mustRun(t, g)
	}
	sendrecv := func(t *testing.T, rounds int) {
		g, w := testWorld(2, nil)
		defer g.Close()
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			peer := 1 - r.ID()
			for i := 0; i < rounds; i++ {
				r.Sendrecv(p, peer, 0, 2048, nil, peer, 0)
			}
		})
		mustRun(t, g)
	}
	alltoall := func(t *testing.T, rounds int) {
		g, w := testWorld(16, nil)
		defer g.Close()
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			for i := 0; i < rounds; i++ {
				r.Alltoall(p, 2048)
			}
		})
		mustRun(t, g)
	}
	cases := []struct {
		name         string
		k            int
		msgsPerRound int
		run          func(t *testing.T, rounds int)
	}{
		{"pingpong", 200, 2, pingPong},
		{"sendrecv", 200, 2, sendrecv},
		{"alltoall16", 4, 16 * 15, alltoall},
	}
	for _, c := range cases {
		if got := allocsPerMessage(t, c.k, c.msgsPerRound, c.run); got > 1 {
			t.Errorf("%s: %.2f allocations per eager message, want at most 1", c.name, got)
		}
	}
}

// TestRendezvousMessageAllocations pins the cost of a message above
// EagerThreshold: the one exchange record, which holds the RTS, CTS and
// data envelopes and points at the send and receive records that wait
// on it. Those records are pooled (a rank's blocking receives share
// one), so they add no allocation, and the exchange's 232 bytes take
// one 240-byte size-class slot. The patterns are a blocking 1 MB
// Send/Recv ping-pong and an 8-rank 1 MB Alltoall, whose sends are
// Isends.
func TestRendezvousMessageAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need whole simulations")
	}
	if raceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	const size = 1 << 20
	pingPong := func(t *testing.T, rounds int) {
		g, w := testWorld(2, nil)
		defer g.Close()
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			peer := 1 - r.ID()
			for i := 0; i < rounds; i++ {
				if r.ID() == 0 {
					r.Send(p, peer, 0, size, nil)
					r.Recv(p, peer, 0)
				} else {
					r.Recv(p, peer, 0)
					r.Send(p, peer, 0, size, nil)
				}
			}
		})
		mustRun(t, g)
	}
	alltoall := func(t *testing.T, rounds int) {
		g, w := testWorld(8, nil)
		defer g.Close()
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			for i := 0; i < rounds; i++ {
				r.Alltoall(p, size)
			}
		})
		mustRun(t, g)
	}
	cases := []struct {
		name         string
		k            int
		msgsPerRound int
		run          func(t *testing.T, rounds int)
	}{
		{"pingpong", 100, 2, pingPong},
		{"alltoall8", 4, 8 * 7, alltoall},
	}
	for _, c := range cases {
		got := allocsPerMessage(t, c.k, c.msgsPerRound, c.run)
		bytes := bytesPerMessage(t, c.k, c.msgsPerRound, c.run)
		t.Logf("%s: %.2f allocations, %.0f bytes per rendezvous message", c.name, got, bytes)
		if got > 1 {
			t.Errorf("%s: %.2f allocations per rendezvous message, want at most 1", c.name, got)
		}
		if bytes > 240 {
			t.Errorf("%s: %.0f bytes per rendezvous message, want at most 240", c.name, bytes)
		}
	}
}
