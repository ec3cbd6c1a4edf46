package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Property: a random traffic matrix is delivered exactly once per
// message, with per-(src,dst,tag) FIFO ordering, regardless of message
// sizes straddling the eager/rendezvous boundary.
func TestRandomTrafficDeliveredExactlyOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		g, w := testWorld(n, nil)

		// Plan: each rank sends a random number of messages to random
		// peers; receivers know exactly what to expect per (src, tag).
		type plan struct {
			dst, tag int
			size     int64
			id       int
		}
		sends := make([][]plan, n)
		expect := make([]map[int]int, n) // per dst: count by src
		for i := range expect {
			expect[i] = make(map[int]int)
		}
		id := 0
		for src := 0; src < n; src++ {
			for k := 0; k < rng.Intn(6); k++ {
				dst := rng.Intn(n)
				if dst == src {
					continue
				}
				size := int64(rng.Intn(200 << 10)) // straddles eager cutoff
				sends[src] = append(sends[src], plan{dst: dst, tag: 5, size: size, id: id})
				expect[dst][src]++
				id++
			}
		}

		received := make([]map[int][]int, n) // per dst, per src: payload ids
		for i := range received {
			received[i] = make(map[int][]int)
		}
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			me := r.ID()
			var reqs []*Request
			for _, s := range sends[me] {
				reqs = append(reqs, r.Isend(p, s.dst, s.tag, s.size, s.id))
			}
			total := 0
			for _, c := range expect[me] {
				total += c
			}
			for k := 0; k < total; k++ {
				m := r.Recv(p, AnySource, 5)
				received[me][m.Src] = append(received[me][m.Src], m.Payload.(int))
			}
			r.Waitall(p, reqs...)
		})
		if _, err := g.Run(0); err != nil {
			return false
		}
		// Check counts and FIFO per (src, dst).
		for dst := 0; dst < n; dst++ {
			for src, want := range expect[dst] {
				got := received[dst][src]
				if len(got) != want {
					return false
				}
				// ids from one src to one dst were issued in increasing
				// order; FIFO delivery preserves it.
				for i := 1; i < len(got); i++ {
					if got[i] <= got[i-1] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: collectives complete for every world size and leave no
// matching state behind.
func TestCollectivesCompleteForAllSizes(t *testing.T) {
	for n := 1; n <= 9; n++ {
		g, w := testWorld(n, nil)
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			r.Barrier(p)
			r.Bcast(p, n/2, 4096, nil)
			r.Reduce(p, 0, 2048, nil, nil)
			r.Allreduce(p, 64, nil, nil)
			if n > 1 {
				r.Alltoall(p, 8<<10)
			}
			r.Gather(p, n-1, 16<<10, nil)
			r.Allgather(p, 4<<10)
			r.Barrier(p)
		})
		if _, err := g.Run(0); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			r := w.Rank(i)
			if len(r.posted) != 0 || len(r.unexpected) != 0 {
				t.Fatalf("n=%d rank %d leaked matching state", n, i)
			}
		}
	}
}

// Messages exactly at the eager threshold stay eager; one byte more
// goes rendezvous. Both must deliver.
func TestEagerThresholdBoundary(t *testing.T) {
	for _, delta := range []int64{0, 1} {
		g, w := testWorld(2, nil)
		size := DefaultConfig().EagerThreshold + delta
		var got *Message
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			if r.ID() == 0 {
				r.Send(p, 1, 1, size, "x")
			} else {
				got = r.Recv(p, 0, 1)
			}
		})
		mustRun(t, g)
		if got == nil || got.Size != size {
			t.Fatalf("delta=%d: %+v", delta, got)
		}
	}
}

// A mismatched receive is a deadlock the kernel must detect and report,
// not hang on.
func TestMismatchedRecvReportsDeadlock(t *testing.T) {
	g, w := testWorld(2, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			r.Send(p, 1, 1, 64, nil)
			return
		}
		r.Recv(p, 0, 2) // wrong tag: never arrives
	})
	_, err := g.Run(0)
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
	g.Close()
}

// Head-to-head rendezvous sends without matching receives posted first
// must still progress (the handshake decouples them).
func TestHeadToHeadLargeSends(t *testing.T) {
	g, w := testWorld(2, nil)
	const size = 5 << 20
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		other := 1 - r.ID()
		// Both send first via Isend, then receive: classic exchange
		// that would deadlock with blocking sends and no buffering.
		sq := r.Isend(p, other, 1, size, nil)
		r.Recv(p, other, 1)
		r.Wait(p, sq)
	})
	mustRun(t, g)
}

// Wildcard Irecv matches whichever source arrives first.
func TestIrecvAnySource(t *testing.T) {
	g, w := testWorld(3, nil)
	var got *Message
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		switch r.ID() {
		case 0:
			q := r.Irecv(p, AnySource, AnyTag)
			got = r.Wait(p, q)
		case 1:
			r.Node().IdleFor(p, sim.Second)
			r.Send(p, 0, 7, 64, "late")
		case 2:
			r.Send(p, 0, 9, 64, "early")
		}
	})
	mustRun(t, g)
	if got == nil || got.Src != 2 {
		t.Fatalf("got %+v", got)
	}
}

// Many outstanding requests on one rank complete under Waitall in any
// completion order.
func TestManyOutstandingRequests(t *testing.T) {
	g, w := testWorld(4, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		if r.ID() == 0 {
			var reqs []*Request
			for peer := 1; peer < 4; peer++ {
				for k := 0; k < 3; k++ {
					reqs = append(reqs, r.Irecv(p, peer, k))
					reqs = append(reqs, r.Isend(p, peer, 10+k, int64(1+k*40<<10), nil))
				}
			}
			r.Waitall(p, reqs...)
			return
		}
		for k := 0; k < 3; k++ {
			r.Send(p, 0, k, 512, nil)
			r.Recv(p, 0, 10+k)
		}
	})
	mustRun(t, g)
	if got := w.Rank(0).Stats().MsgsRecv; got != 9 {
		t.Fatalf("rank0 received %d", got)
	}
}

// The MPI software costs must charge the node: communication at a
// lower operating point takes measurably longer for the CPU-bound
// portion.
func TestSoftwareOverheadScalesWithFrequency(t *testing.T) {
	elapsed := func(opIdx int) sim.Duration {
		g, w := testWorld(2, nil)
		var end sim.Time
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			r.Node().SetOperatingPointIndex(p, opIdx)
			other := 1 - r.ID()
			for i := 0; i < 50; i++ {
				if r.ID() == 0 {
					r.Send(p, other, 1, 256<<10, nil)
					r.Recv(p, other, 1)
				} else {
					r.Recv(p, 0, 1)
					r.Send(p, 0, 1, 256<<10, nil)
				}
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
		mustRun(t, g)
		return end.Sub(0)
	}
	fast, slow := elapsed(0), elapsed(4)
	ratio := float64(slow) / float64(fast)
	if ratio < 1.02 || ratio > 1.12 {
		t.Fatalf("comm slowdown at 600MHz = %.4f, want Fig 8a's ~1.06", ratio)
	}
}

// Reduce must work with a non-commutative-safe combine order: the
// binomial tree applies combine(acc, incoming); verify associativity
// usage by string concatenation length (order may vary, length must
// cover all ranks).
func TestReduceCombineCoverage(t *testing.T) {
	n := 7
	g, w := testWorld(n, nil)
	var got any
	concat := func(a, b any) any { return a.(string) + b.(string) }
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		res := r.Reduce(p, 0, 64, fmt.Sprintf("%d", r.ID()), concat)
		if r.ID() == 0 {
			got = res
		}
	})
	mustRun(t, g)
	s := got.(string)
	seen := map[rune]bool{}
	for _, c := range s {
		seen[c] = true
	}
	if len(seen) != n {
		t.Fatalf("reduce covered %d ranks: %q", len(seen), s)
	}
}

// Spin-state bookkeeping: after a full collective storm, the node ends
// Idle and all NIC windows are closed.
func TestNodeStateCleanAfterCollectives(t *testing.T) {
	g, w := testWorld(4, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		r.Alltoall(p, 2<<20)
		r.Barrier(p)
	})
	mustRun(t, g)
	for i := 0; i < 4; i++ {
		if st := w.Rank(i).Node().State(); st != machine.Idle {
			t.Fatalf("node %d left in state %v", i, st)
		}
	}
}
