package mpi

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// runSharded builds an n-rank world partitioned over the given number
// of shards and runs body on every rank, returning one trace per rank.
// Each rank appends only to its own trace slot (its shard), so the
// traces are race-free and shard-count-invariant if — and only if —
// the sharded core is deterministic.
func runSharded(t *testing.T, shards, n int, tweak func(*Config),
	body func(p *sim.Proc, r *Rank, trace *[]string)) [][]string {
	t.Helper()
	g, w := shardedWorld(shards, n, tweak)
	defer g.Close()
	traces := make([][]string, n)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		body(p, r, &traces[r.ID()])
		traces[r.ID()] = append(traces[r.ID()], fmt.Sprintf("done@%v", p.Now()))
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	return traces
}

// requireShardInvariance runs body at 1, 2, 3 and n shards and demands
// byte-identical per-rank traces.
func requireShardInvariance(t *testing.T, n int, tweak func(*Config),
	body func(p *sim.Proc, r *Rank, trace *[]string)) {
	t.Helper()
	want := runSharded(t, 1, n, tweak, body)
	for _, k := range []int{2, 3, n} {
		if k > n {
			continue
		}
		got := runSharded(t, k, n, tweak, body)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: traces differ from 1 shard\n got %v\nwant %v", k, got, want)
		}
	}
}

// TestShardedEqualityMessageStorm crosses every pair of ranks with a
// burst of mixed eager and rendezvous traffic — maximal cross-shard
// pressure with heavy same-destination fan-in, the case the receiver-
// side Accept ordering has to serialize identically at any shard
// count.
func TestShardedEqualityMessageStorm(t *testing.T) {
	const n, rounds = 6, 5
	requireShardInvariance(t, n, nil, func(p *sim.Proc, r *Rank, trace *[]string) {
		me := r.ID()
		for round := 0; round < rounds; round++ {
			var reqs []*Request
			for peer := 0; peer < n; peer++ {
				if peer == me {
					continue
				}
				// Vary size across (round, sender, receiver): every few
				// messages cross the eager/rendezvous threshold.
				size := int64(1024 + 37*me + 101*peer + 250_000*((round+me+peer)%2))
				reqs = append(reqs, r.Isend(p, peer, round, size, fmt.Sprintf("m%d.%d>%d", round, me, peer)))
				reqs = append(reqs, r.Irecv(p, peer, round))
			}
			for _, q := range reqs {
				if m := r.Wait(p, q); m != nil {
					*trace = append(*trace, fmt.Sprintf("%v src%d tag%d sz%d %v", p.Now(), m.Src, m.Tag, m.Size, m.Payload))
				}
			}
		}
	})
}

// TestShardedEqualityCollectives runs the full collective repertoire —
// including the binomial gather/scatter trees and the large-message
// recursive-doubling Allreduce — across shard counts.
func TestShardedEqualityCollectives(t *testing.T) {
	const n = 8
	sum := func(a, b any) any { return a.(int) + b.(int) }
	requireShardInvariance(t, n, nil, func(p *sim.Proc, r *Rank, trace *[]string) {
		me := r.ID()
		log := func(f string, args ...any) {
			*trace = append(*trace, fmt.Sprintf("%v ", p.Now())+fmt.Sprintf(f, args...))
		}
		r.Barrier(p)
		log("barrier")
		log("bcast=%v", r.Bcast(p, 2, 4096, fmt.Sprintf("root-payload")))
		log("reduce=%v", r.Reduce(p, 1, 2048, me+1, sum))
		log("small-allreduce=%v", r.Allreduce(p, 512, me*me, sum))
		log("large-allreduce=%v", r.Allreduce(p, 256<<10, me+10, sum))
		log("gather=%v", r.Gather(p, 3, 8192, fmt.Sprintf("g%d", me)))
		parts := make([]any, n)
		for i := range parts {
			parts[i] = fmt.Sprintf("s%d", i)
		}
		log("scatter=%v", r.Scatter(p, 5, 16384, parts))
		r.Alltoall(p, 32<<10)
		log("alltoall")
	})
}

// TestShardedEqualityUnbalancedRanks puts computation imbalance and a
// non-power-of-two rank count (exercising the recursive-doubling
// fold/unfold) through the shard sweep.
func TestShardedEqualityUnbalancedRanks(t *testing.T) {
	const n = 5
	sum := func(a, b any) any { return a.(int) + b.(int) }
	requireShardInvariance(t, n, nil, func(p *sim.Proc, r *Rank, trace *[]string) {
		me := r.ID()
		for i := 0; i < 3; i++ {
			p.Sleep(sim.Duration(me+1) * 3 * sim.Millisecond)
			got := r.Allreduce(p, 128<<10, me+i, sum)
			*trace = append(*trace, fmt.Sprintf("%v rd=%v", p.Now(), got))
		}
	})
}
