package mpi

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/power"
	"repro/internal/sim"
)

// shardedWorld builds an n-rank world on fresh nodes split
// contiguously over a group of the given shard count, with the default
// configuration, optionally tweaked.
func shardedWorld(shards, n int, tweak func(*Config)) (*sim.Group, *World) {
	g := sim.NewGroup(shards, netsim.Default100Mb().Latency)
	nodes := make([]*machine.Node, n)
	for i := range nodes {
		nodes[i] = machine.NewNode(g.Engine(i*shards/n), i, machine.DefaultParams())
	}
	sw := netsim.New(g.Engine(0), n, netsim.Default100Mb())
	cfg := DefaultConfig()
	if tweak != nil {
		tweak(&cfg)
	}
	return g, NewWorld(g, nodes, sw, cfg)
}

// testWorld is shardedWorld on a single shard.
func testWorld(n int, tweak func(*Config)) (*sim.Group, *World) {
	return shardedWorld(1, n, tweak)
}

func mustRun(t *testing.T, g *sim.Group) sim.Time {
	t.Helper()
	end, err := g.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestEagerSendRecv(t *testing.T) {
	g, w := testWorld(2, nil)
	var got *Message
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 7, 1024, "hello")
		case 1:
			got = r.Recv(p, 0, 7)
		}
	})
	mustRun(t, g)
	if got == nil || got.Payload != "hello" || got.Src != 0 || got.Tag != 7 || got.Size != 1024 {
		t.Fatalf("got %+v", got)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	g, w := testWorld(2, nil)
	var got *Message
	var sendDone, recvDone sim.Time
	const size = 10 << 20 // 10 MB, well above eager
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 1, size, "big")
			sendDone = p.Now()
		case 1:
			got = r.Recv(p, 0, 1)
			recvDone = p.Now()
		}
	})
	mustRun(t, g)
	if got == nil || got.Payload != "big" {
		t.Fatalf("got %+v", got)
	}
	// 10MB at 9.5MB/s is about a second; both sides must have waited
	// for the wire.
	wire := sim.DurationOf(float64(size) / netsim.Default100Mb().BandwidthBytesPerSec)
	if sendDone < sim.Time(wire) || recvDone < sim.Time(wire) {
		t.Fatalf("completed before wire time: send=%v recv=%v wire=%v", sendDone, recvDone, wire)
	}
	// MPI_Send semantics: the sender drains before (or with) the receiver.
	if sendDone > recvDone+sim.Time(sim.Millisecond) {
		t.Fatalf("sender finished long after receiver: %v vs %v", sendDone, recvDone)
	}
}

func TestMessageOrderingSameSourceTag(t *testing.T) {
	g, w := testWorld(2, nil)
	var got []int
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < 5; i++ {
				r.Send(p, 1, 3, 128, i)
			}
		case 1:
			for i := 0; i < 5; i++ {
				got = append(got, r.Recv(p, 0, 3).Payload.(int))
			}
		}
	})
	mustRun(t, g)
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("out of order: %v", got)
	}
}

func TestTagSelectivity(t *testing.T) {
	g, w := testWorld(2, nil)
	var first, second any
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 10, 64, "ten")
			r.Send(p, 1, 20, 64, "twenty")
		case 1:
			// Receive tag 20 first even though tag 10 arrived first.
			first = r.Recv(p, 0, 20).Payload
			second = r.Recv(p, 0, 10).Payload
		}
	})
	mustRun(t, g)
	if first != "twenty" || second != "ten" {
		t.Fatalf("first=%v second=%v", first, second)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	g, w := testWorld(3, nil)
	var srcs []int
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < 2; i++ {
				m := r.Recv(p, AnySource, AnyTag)
				srcs = append(srcs, m.Src)
			}
		default:
			r.Send(p, 0, r.ID(), 64, nil)
		}
	})
	mustRun(t, g)
	sort.Ints(srcs)
	if fmt.Sprint(srcs) != "[1 2]" {
		t.Fatalf("srcs = %v", srcs)
	}
}

func TestSelfSend(t *testing.T) {
	g, w := testWorld(1, nil)
	var got *Message
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		r.Send(p, 0, 5, 256, "self")
		got = r.Recv(p, 0, 5)
	})
	mustRun(t, g)
	if got == nil || got.Payload != "self" {
		t.Fatalf("got %+v", got)
	}
}

func TestIsendIrecvWait(t *testing.T) {
	g, w := testWorld(2, nil)
	var got *Message
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			q := r.Isend(p, 1, 2, 100<<10, "async") // rendezvous size
			r.Wait(p, q)
			if !q.Done() {
				t.Error("request not done after Wait")
			}
		case 1:
			q := r.Irecv(p, 0, 2)
			got = r.Wait(p, q)
		}
	})
	mustRun(t, g)
	if got == nil || got.Payload != "async" {
		t.Fatalf("got %+v", got)
	}
}

func TestSendrecvExchange(t *testing.T) {
	g, w := testWorld(2, nil)
	vals := make([]any, 2)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		other := 1 - r.ID()
		m := r.Sendrecv(p, other, 9, 200<<10, fmt.Sprintf("from%d", r.ID()), other, 9)
		vals[r.ID()] = m.Payload
	})
	mustRun(t, g)
	if vals[0] != "from1" || vals[1] != "from0" {
		t.Fatalf("vals = %v", vals)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		g, w := testWorld(n, nil)
		exits := make([]sim.Time, n)
		var latestEntry sim.Time
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			// Stagger entries.
			d := sim.Duration(r.ID()) * 10 * sim.Millisecond
			r.Node().IdleFor(p, d)
			if p.Now() > latestEntry {
				latestEntry = p.Now()
			}
			r.Barrier(p)
			exits[r.ID()] = p.Now()
		})
		mustRun(t, g)
		for i, x := range exits {
			if x < latestEntry {
				t.Fatalf("n=%d rank %d exited at %v before last entry %v", n, i, x, latestEntry)
			}
		}
	}
}

func TestBcastDeliversPayload(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		for root := 0; root < n; root += 2 {
			g, w := testWorld(n, nil)
			got := make([]any, n)
			w.SpawnRanks(func(p *sim.Proc, r *Rank) {
				var val any
				if r.ID() == root {
					val = "payload"
				}
				got[r.ID()] = r.Bcast(p, root, 4096, val)
			})
			mustRun(t, g)
			for i, v := range got {
				if v != "payload" {
					t.Fatalf("n=%d root=%d rank %d got %v", n, root, i, v)
				}
			}
		}
	}
}

func TestReduceCombines(t *testing.T) {
	sum := func(a, b any) any { return a.(int) + b.(int) }
	for _, n := range []int{1, 2, 3, 6, 8} {
		root := n / 2
		g, w := testWorld(n, nil)
		var got any
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			res := r.Reduce(p, root, 1024, r.ID()+1, sum)
			if r.ID() == root {
				got = res
			} else if res != nil {
				t.Errorf("non-root rank %d got %v", r.ID(), res)
			}
		})
		mustRun(t, g)
		want := n * (n + 1) / 2
		if got != want {
			t.Fatalf("n=%d: sum = %v want %d", n, got, want)
		}
	}
}

func TestAllreduce(t *testing.T) {
	sum := func(a, b any) any { return a.(int) + b.(int) }
	g, w := testWorld(5, nil)
	got := make([]any, 5)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		got[r.ID()] = r.Allreduce(p, 512, r.ID()+1, sum)
	})
	mustRun(t, g)
	for i, v := range got {
		if v != 15 {
			t.Fatalf("rank %d got %v", i, v)
		}
	}
}

func TestAlltoallCompletes(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		g, w := testWorld(n, nil)
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			r.Alltoall(p, 128<<10)
		})
		mustRun(t, g)
		// Every rank sent (n-1) data messages of the given size.
		for i := 0; i < n; i++ {
			st := w.Rank(i).Stats()
			if st.BytesRecv < int64(n-1)*128<<10 {
				t.Fatalf("n=%d rank %d received %d bytes", n, i, st.BytesRecv)
			}
		}
	}
}

func TestAlltoallvSizes(t *testing.T) {
	n := 4
	g, w := testWorld(n, nil)
	// Rank i sends (j+1) KB to rank j.
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		sizes := make([]int64, n)
		for j := range sizes {
			sizes[j] = int64(j+1) << 10
		}
		r.Alltoallv(p, sizes)
	})
	mustRun(t, g)
	for j := 0; j < n; j++ {
		want := int64(n-1) * int64(j+1) << 10
		if got := w.Rank(j).Stats().BytesRecv; got != want {
			t.Fatalf("rank %d received %d want %d", j, got, want)
		}
	}
}

func TestGatherCollectsInRankOrder(t *testing.T) {
	n := 6
	root := 2
	g, w := testWorld(n, nil)
	var got []any
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		res := r.Gather(p, root, 32<<10, fmt.Sprintf("r%d", r.ID()))
		if r.ID() == root {
			got = res
		}
	})
	mustRun(t, g)
	if len(got) != n {
		t.Fatalf("gathered %d", len(got))
	}
	for i, v := range got {
		if v != fmt.Sprintf("r%d", i) {
			t.Fatalf("slot %d = %v", i, v)
		}
	}
}

func TestScatter(t *testing.T) {
	n := 4
	g, w := testWorld(n, nil)
	got := make([]any, n)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		var parts []any
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				parts = append(parts, i*10)
			}
		}
		got[r.ID()] = r.Scatter(p, 0, 2048, parts)
	})
	mustRun(t, g)
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("rank %d got %v", i, v)
		}
	}
}

func TestAllgatherCompletes(t *testing.T) {
	n := 5
	g, w := testWorld(n, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		r.Allgather(p, 16<<10)
	})
	mustRun(t, g)
	for i := 0; i < n; i++ {
		if got := w.Rank(i).Stats().MsgsRecv; got != int64(n-1) {
			t.Fatalf("rank %d received %d messages", i, got)
		}
	}
}

func TestSpinThenBlockStates(t *testing.T) {
	// A receiver waiting far longer than the spin threshold must book
	// spin time up to the threshold and blocked time beyond it.
	g, w := testWorld(2, func(c *Config) { c.SpinThreshold = 100 * sim.Millisecond })
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Node().IdleFor(p, 2*sim.Second) // make rank 1 wait
			r.Send(p, 1, 1, 64, nil)
		case 1:
			r.Recv(p, 0, 1)
		}
	})
	mustRun(t, g)
	n1 := w.Rank(1).Node()
	spin := n1.StateTime(machine.Spin)
	blocked := n1.StateTime(machine.Blocked)
	if spin < 90*sim.Millisecond || spin > 150*sim.Millisecond {
		t.Fatalf("spin time %v, want ~100ms", spin)
	}
	if blocked < 1700*sim.Millisecond {
		t.Fatalf("blocked time %v, want ~1.9s", blocked)
	}
}

func TestPureSpinWhenThresholdNegative(t *testing.T) {
	g, w := testWorld(2, func(c *Config) { c.SpinThreshold = -1 })
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Node().IdleFor(p, sim.Second)
			r.Send(p, 1, 1, 64, nil)
		case 1:
			r.Recv(p, 0, 1)
		}
	})
	mustRun(t, g)
	n1 := w.Rank(1).Node()
	if b := n1.StateTime(machine.Blocked); b != 0 {
		t.Fatalf("blocked time %v with spin-forever", b)
	}
	if s := n1.StateTime(machine.Spin); s < 900*sim.Millisecond {
		t.Fatalf("spin time %v", s)
	}
}

func TestUtilizationDuringSpinLooksBusy(t *testing.T) {
	// The cpuspeed-defeating property: a rank spinning in MPI wait
	// appears ~100% busy in /proc/stat terms.
	g, w := testWorld(2, func(c *Config) { c.SpinThreshold = -1 })
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Node().IdleFor(p, sim.Second)
			r.Send(p, 1, 1, 64, nil)
		case 1:
			r.Recv(p, 0, 1)
		}
	})
	mustRun(t, g)
	busy, idle := w.Rank(1).Node().Utilization()
	frac := float64(busy) / float64(busy+idle)
	if frac < 0.99 {
		t.Fatalf("busy fraction %.3f; spinning should look busy", frac)
	}
}

func TestCommunicationEnergyAccrues(t *testing.T) {
	g, w := testWorld(2, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		other := 1 - r.ID()
		for i := 0; i < 3; i++ {
			if r.ID() == 0 {
				r.Send(p, other, 1, 256<<10, nil)
				r.Recv(p, other, 2)
			} else {
				r.Recv(p, other, 1)
				r.Send(p, other, 2, 256<<10, nil)
			}
		}
	})
	end := mustRun(t, g)
	for i := 0; i < 2; i++ {
		if eJ := w.Rank(i).Node().EnergyAt(end); eJ <= 0 {
			t.Fatalf("rank %d energy %v", i, eJ)
		}
	}
	// Every NIC window must have closed by the end.
	for i := 0; i < 2; i++ {
		n := w.Rank(i).Node()
		if got, want := n.ComponentPower(power.NIC), n.Params().NICIdle; got != want {
			t.Fatalf("node %d NIC draws %v after the run, want its idle %v", i, got, want)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	g, w := testWorld(2, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 1, 1000, nil)
			r.Send(p, 1, 1, 2000, nil)
		case 1:
			r.Recv(p, 0, 1)
			r.Recv(p, 0, 1)
		}
	})
	mustRun(t, g)
	s0, s1 := w.Rank(0).Stats(), w.Rank(1).Stats()
	if s0.MsgsSent != 2 || s0.BytesSent != 3000 {
		t.Fatalf("sender stats %+v", s0)
	}
	if s1.MsgsRecv != 2 || s1.BytesRecv != 3000 {
		t.Fatalf("receiver stats %+v", s1)
	}
}

func TestUserTagValidation(t *testing.T) {
	g, w := testWorld(2, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		if r.ID() != 0 {
			return
		}
		for _, tag := range []int{-1, collectiveTagBase} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("tag %d: expected panic", tag)
					}
				}()
				r.Send(p, 1, tag, 8, nil)
			}()
		}
	})
	mustRun(t, g)
}

func TestDeterministicSchedule(t *testing.T) {
	runOnce := func() sim.Time {
		g, w := testWorld(4, nil)
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			r.Alltoall(p, 300<<10)
			r.Barrier(p)
			r.Alltoall(p, 300<<10)
		})
		end, err := g.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return end
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestCollectivesDoNotLeakWaiters(t *testing.T) {
	g, w := testWorld(4, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		r.Barrier(p)
		r.Bcast(p, 0, 1<<20, nil)
		r.Alltoall(p, 1<<20)
		r.Barrier(p)
	})
	mustRun(t, g)
	if g.Engine(0).Live() != 0 {
		t.Fatalf("%d processes still live", g.Engine(0).Live())
	}
	for i := 0; i < 4; i++ {
		r := w.Rank(i)
		if len(r.posted) != 0 || len(r.unexpected) != 0 || len(r.rendezvous) != 0 || len(r.dataWait) != 0 {
			t.Fatalf("rank %d leaked matching state: posted=%d unexpected=%d rv=%d dw=%d",
				i, len(r.posted), len(r.unexpected), len(r.rendezvous), len(r.dataWait))
		}
	}
}

func TestProbeAndIprobe(t *testing.T) {
	g, w := testWorld(2, nil)
	var probed, received *Message
	var early bool
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Node().IdleFor(p, 100*sim.Millisecond)
			r.Send(p, 1, 9, 4096, "probed")
		case 1:
			_, early = r.Iprobe(p, 0, 9) // nothing there yet
			probed = r.Probe(p, 0, 9)    // blocks until the envelope lands
			if m, ok := r.Iprobe(p, 0, 9); !ok || m != probed {
				t.Error("Iprobe after Probe should see the same envelope")
			}
			received = r.Recv(p, 0, 9)
		}
	})
	mustRun(t, g)
	if early {
		t.Fatal("Iprobe saw a message before it was sent")
	}
	if probed == nil || probed.Size != 4096 || probed.Src != 0 {
		t.Fatalf("probe envelope %+v", probed)
	}
	if received == nil || received.Payload != "probed" {
		t.Fatalf("recv after probe %+v", received)
	}
}

func TestProbeRendezvousEnvelope(t *testing.T) {
	// Probe must see the RTS envelope of a large message (with its
	// true size) before any payload moves.
	g, w := testWorld(2, nil)
	var sizeSeen int64
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(p, 1, 3, 8<<20, nil)
		case 1:
			m := r.Probe(p, 0, 3)
			sizeSeen = m.Size
			r.Recv(p, 0, 3)
		}
	})
	mustRun(t, g)
	if sizeSeen != 8<<20 {
		t.Fatalf("probed size %d", sizeSeen)
	}
}

// TestWaitQueueBound pins that waits leave no dead spin fallbacks in the
// event queue: each rank's fallback is one re-armable timer, so after
// three 64-rank Alltoalls (none of whose waits reaches the default 4 s
// threshold) rank 0 finds at most a few live entries per rank pending.
// A fallback closure per wait left over 12,000 behind.
func TestWaitQueueBound(t *testing.T) {
	const n = 64
	g, w := testWorld(n, nil)
	pending := -1
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		for i := 0; i < 3; i++ {
			r.Alltoall(p, 2<<10)
		}
		if r.ID() == 0 {
			pending = p.Engine().Pending()
		}
	})
	mustRun(t, g)
	if pending < 0 || pending > 4*n {
		t.Fatalf("%d events pending after the Alltoalls, want at most %d", pending, 4*n)
	}
}
