package mpi

import (
	"testing"

	"repro/internal/sim"
)

// The message-path benches: per-op time and allocations of the eager
// protocol, one layer below the end-to-end FT runs. `make bench` runs
// them with a pinned -benchtime and -count, and benchdiff gates them.

// BenchmarkEagerPingPong sends 2 KB each way between two ranks: two
// eager messages per op, on one world that lives across all ops.
func BenchmarkEagerPingPong(b *testing.B) {
	g, w := testWorld(2, nil)
	defer g.Close()
	ops := b.N
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		peer := 1 - r.ID()
		for i := 0; i < ops; i++ {
			if r.ID() == 0 {
				r.Send(p, peer, 0, 2048, nil)
				r.Recv(p, peer, 0)
			} else {
				r.Recv(p, peer, 0)
				r.Send(p, peer, 0, 2048, nil)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := g.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAlltoall16 is one 16-rank Alltoall of 2 KB per peer: 240
// eager messages per op.
func BenchmarkAlltoall16(b *testing.B) { benchAlltoall(b, 16) }

// BenchmarkAlltoall256 is one 256-rank Alltoall of 2 KB per peer, FT's
// transpose at the scale of the ft256 workload: 65,280 eager messages
// per op.
func BenchmarkAlltoall256(b *testing.B) { benchAlltoall(b, 256) }

// benchAlltoall times one Alltoall of 2 KB per peer on n ranks. Each op
// runs on a fresh world, built and closed outside the timer.
func benchAlltoall(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, w := testWorld(n, nil)
		w.SpawnRanks(func(p *sim.Proc, r *Rank) { r.Alltoall(p, 2048) })
		b.StartTimer()
		if _, err := g.Run(0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		g.Close()
		b.StartTimer()
	}
}
