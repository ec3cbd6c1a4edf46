package mpi

import (
	"testing"

	"repro/internal/sim"
)

// The message-path benches: per-op time and allocations of the eager
// and rendezvous protocols, one layer below the end-to-end FT runs. `make bench` runs
// them with a pinned -benchtime and -count, and benchdiff gates them.
// The ping-pong and eager all-to-all benches also report the process
// resumes per op (resumes/op, a custom unit that benchdiff skips): each
// blocking call resumes its process once.

// groupResumes sums the process resumes over g's shards.
func groupResumes(g *sim.Group) uint64 {
	var n uint64
	for i := 0; i < g.Size(); i++ {
		n += g.Engine(i).Resumes()
	}
	return n
}

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
	b.ReportMetric(float64(groupResumes(g))/float64(b.N), "resumes/op")
}

// BenchmarkRendezvousPingPong sends 1 MB each way between two ranks:
// two rendezvous messages per op, on one world that lives across all
// ops.
func BenchmarkRendezvousPingPong(b *testing.B) {
	g, w := testWorld(2, nil)
	defer g.Close()
	ops := b.N
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		peer := 1 - r.ID()
		for i := 0; i < ops; i++ {
			if r.ID() == 0 {
				r.Send(p, peer, 0, 1<<20, nil)
				r.Recv(p, peer, 0)
			} else {
				r.Recv(p, peer, 0)
				r.Send(p, peer, 0, 1<<20, nil)
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := g.Run(0); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(groupResumes(g))/float64(b.N), "resumes/op")
}

// BenchmarkRendezvousAlltoall8 is one 8-rank Alltoall of 1 MB per
// peer, the shape of FT class B's transpose on the paper's 8 nodes: 56
// rendezvous Isends per op, on one world that lives across all ops.
func BenchmarkRendezvousAlltoall8(b *testing.B) {
	g, w := testWorld(8, nil)
	defer g.Close()
	ops := b.N
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		for i := 0; i < ops; i++ {
			r.Alltoall(p, 1<<20)
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
// runs on a fresh world, built and closed outside the timer, and its
// resumes include the n processes' starts.
func benchAlltoall(b *testing.B, n int) {
	b.ReportAllocs()
	var resumes uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, w := testWorld(n, nil)
		w.SpawnRanks(func(p *sim.Proc, r *Rank) { r.Alltoall(p, 2048) })
		b.StartTimer()
		if _, err := g.Run(0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		resumes += groupResumes(g)
		g.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(resumes)/float64(b.N), "resumes/op")
}
