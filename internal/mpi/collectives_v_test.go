package mpi

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestGathervCollectsVariableSizes(t *testing.T) {
	n := 5
	root := 2
	g, w := testWorld(n, nil)
	var got []any
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = int64(i+1) << 10
		}
		res := r.Gatherv(p, root, sizes, fmt.Sprintf("blk%d", r.ID()))
		if r.ID() == root {
			got = res
		} else if res != nil {
			t.Errorf("non-root got %v", res)
		}
	})
	mustRun(t, g)
	for i, v := range got {
		if v != fmt.Sprintf("blk%d", i) {
			t.Fatalf("slot %d = %v", i, v)
		}
	}
	// Root received exactly the declared byte counts.
	var want int64
	for i := 0; i < n; i++ {
		if i != root {
			want += int64(i+1) << 10
		}
	}
	if gotB := w.Rank(root).Stats().BytesRecv; gotB != want {
		t.Fatalf("root received %d want %d", gotB, want)
	}
}

func TestScattervDistributesVariableSizes(t *testing.T) {
	n := 4
	g, w := testWorld(n, nil)
	got := make([]any, n)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		var sizes []int64
		var parts []any
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				sizes = append(sizes, int64(i+1)*100)
				parts = append(parts, i*11)
			}
		}
		got[r.ID()] = r.Scatterv(p, 0, sizes, parts)
	})
	mustRun(t, g)
	for i, v := range got {
		if v != i*11 {
			t.Fatalf("rank %d got %v", i, v)
		}
	}
	// The counts are read only at root, yet each forward down the
	// binomial tree (0 → 2 → 3, 0 → 1) carries its subtree's bytes.
	var sent, recv []int64
	for i := 0; i < n; i++ {
		st := w.Rank(i).Stats()
		sent, recv = append(sent, st.BytesSent), append(recv, st.BytesRecv)
	}
	if got, want := fmt.Sprint(sent, recv), "[900 0 400 0] [0 200 700 400]"; got != want {
		t.Fatalf("bytes sent, received per rank %s, want %s", got, want)
	}
}

func TestScanPrefixSums(t *testing.T) {
	n := 6
	g, w := testWorld(n, nil)
	got := make([]any, n)
	sum := func(a, b any) any { return a.(int) + b.(int) }
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		got[r.ID()] = r.Scan(p, 8, r.ID()+1, sum)
	})
	mustRun(t, g)
	for i, v := range got {
		want := (i + 1) * (i + 2) / 2
		if v != want {
			t.Fatalf("rank %d scan = %v want %d", i, v, want)
		}
	}
}

func TestScanSingleRank(t *testing.T) {
	g, w := testWorld(1, nil)
	var got any
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		got = r.Scan(p, 8, 42, func(a, b any) any { return a.(int) + b.(int) })
	})
	mustRun(t, g)
	if got != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestReduceScatter(t *testing.T) {
	n := 4
	g, w := testWorld(n, nil)
	got := make([]any, n)
	sum := func(a, b any) any { return a.(int) + b.(int) }
	split := func(total any) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = total.(int) + i // each block derived from the total
		}
		return out
	}
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		got[r.ID()] = r.ReduceScatter(p, 1024, 10, sum, split)
	})
	mustRun(t, g)
	for i, v := range got {
		if v != 40+i {
			t.Fatalf("rank %d got %v want %d", i, v, 40+i)
		}
	}
}

func TestReduceScatterNilSplit(t *testing.T) {
	g, w := testWorld(3, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		if got := r.ReduceScatter(p, 300, nil, nil, nil); got != nil {
			t.Errorf("rank %d got %v", r.ID(), got)
		}
	})
	mustRun(t, g)
}

func TestVariableCollectiveValidation(t *testing.T) {
	g, w := testWorld(2, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		if r.ID() != 0 {
			// Rank 1 must still participate in nothing; validation
			// panics fire before any traffic.
			return
		}
		for _, fn := range []func(){
			func() { r.Gatherv(p, 0, []int64{1}, nil) },
			func() { r.Scatterv(p, 0, []int64{1}, []any{nil}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic")
					}
				}()
				fn()
			}()
		}
	})
	mustRun(t, g)
}
