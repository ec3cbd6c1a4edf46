package workloads

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/powerpack"
	"repro/internal/sim"
)

// firedEvents runs body on every rank of an n-rank world split over
// the given number of event-core shards and returns the events fired,
// summed over the shards, the group's windows and the ranks' finish
// times.
func firedEvents(t *testing.T, shards, n int, body func(ctx Ctx)) (fired, windows uint64, ends []sim.Time) {
	t.Helper()
	g := sim.NewGroup(shards, netsim.Default100Mb().Latency)
	defer g.Close()
	nodes := make([]*machine.Node, n)
	for i := range nodes {
		nodes[i] = machine.NewNode(g.Engine(i*shards/n), i, machine.DefaultParams())
	}
	world := mpi.NewWorld(g, nodes, netsim.New(g.Engine(0), n, netsim.Default100Mb()), mpi.DefaultConfig())
	// The node contexts share one profiler, so they are made here, not
	// on the shards.
	prof := powerpack.NewProfiler()
	ctxs := make([]*powerpack.NodeCtx, n)
	for i := range ctxs {
		ctxs[i] = powerpack.NewNodeCtx(nodes[i], prof, nil)
	}
	ends = make([]sim.Time, n)
	world.SpawnRanks(func(p *sim.Proc, r *mpi.Rank) {
		body(Ctx{P: p, Rank: r, Node: nodes[r.ID()], PP: ctxs[r.ID()]})
		ends[r.ID()] = p.Now()
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Size(); i++ {
		fired += g.Engine(i).Fired()
	}
	return fired, g.Windows(), ends
}

// finishDigest is an FNV-1a hash of the finish times in rank order, in
// nanoseconds.
func finishDigest(ends []sim.Time) string {
	h := fnv.New64a()
	for _, end := range ends {
		binary.Write(h, binary.LittleEndian, int64(end))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFiredEventCounts pins the number of events the event core fires
// for an eager and a rendezvous all-to-all, a rendezvous Sendrecv ring
// and one FT iteration, whose transpose is rendezvous-sized. A change
// to the message path that keeps every event key keeps these totals; a
// change that adds or drops events moves them. The totals must not
// depend on the shard count. The windows do: with no global to stop
// at, one shard runs in a single window, while two shards advance one
// lookahead window at a time. Each case also pins a digest of its
// ranks' finish times in nanoseconds on both shard counts, so a change
// that moves a message by as little as 1 ns fails here, whether or not
// it moves the event count.
func TestFiredEventCounts(t *testing.T) {
	ft := NewFT('A', 16)
	ft.IterOverride = 1
	cases := []struct {
		name    string
		body    func(ctx Ctx)
		want    uint64
		windows [2]uint64 // on 1 and 2 shards
		finish  string    // finishDigest of the ranks' finish times
	}{
		{"alltoall16", func(ctx Ctx) { ctx.Rank.Alltoall(ctx.P, 2048) }, 1936, [2]uint64{1, 31}, "be89ed4accb25205"},
		{"alltoall16-1MB", func(ctx Ctx) { ctx.Rank.Alltoall(ctx.P, 1<<20) }, 3136, [2]uint64{1, 106}, "585dca44ea286f85"},
		{"ring16-1MB", sendrecvRing, 224, [2]uint64{1, 8}, "3ffa569a3577a065"},
		{"ftA16", ft.Run, 3873, [2]uint64{1, 147}, "1dd2c5fea51d121d"},
	}
	for _, c := range cases {
		for _, shards := range []int{1, 2} {
			got, windows, ends := firedEvents(t, shards, 16, c.body)
			if got != c.want || windows != c.windows[shards-1] {
				t.Errorf("%s on %d shards: %d events fired in %d windows, want %d in %d", c.name, shards, got, windows, c.want, c.windows[shards-1])
			}
			if d := finishDigest(ends); d != c.finish {
				t.Errorf("%s on %d shards: finish digest %s, want %s; ranks finished at %d ns", c.name, shards, d, c.finish, ends)
			}
		}
	}
}

// sendrecvRing passes 1 MB one step around the ring of ranks with
// Sendrecv: one rendezvous Isend and one blocking receive per rank.
func sendrecvRing(ctx Ctx) {
	r := ctx.Rank
	n := r.Size()
	r.Sendrecv(ctx.P, (r.ID()+1)%n, 0, 1<<20, nil, (r.ID()+n-1)%n, 0)
}
