package mpi

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

func TestSplitRowsAndColumns(t *testing.T) {
	// A 2×3 process grid split into row and column communicators.
	const rows, cols = 2, 3
	g, w := testWorld(rows*cols, nil)
	rowSums := make([]any, rows*cols)
	colSums := make([]any, rows*cols)
	sum := func(a, b any) any { return a.(int) + b.(int) }
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		row := r.ID() / cols
		col := r.ID() % cols
		rowComm := r.Split(p, row, col)
		colComm := r.Split(p, col, row)
		if rowComm.Size() != cols || colComm.Size() != rows {
			t.Errorf("rank %d: comm sizes %d/%d", r.ID(), rowComm.Size(), colComm.Size())
		}
		if rowComm.Rank() != col || colComm.Rank() != row {
			t.Errorf("rank %d: comm ranks %d/%d", r.ID(), rowComm.Rank(), colComm.Rank())
		}
		rowSums[r.ID()] = rowComm.Allreduce(p, 8, r.ID(), sum)
		colSums[r.ID()] = colComm.Allreduce(p, 8, r.ID(), sum)
	})
	mustRun(t, g)
	// Row 0 = ranks {0,1,2} sum 3; row 1 = {3,4,5} sum 12.
	for i := 0; i < rows*cols; i++ {
		wantRow := 3
		if i >= cols {
			wantRow = 12
		}
		if rowSums[i] != wantRow {
			t.Fatalf("rank %d row sum %v want %d", i, rowSums[i], wantRow)
		}
		// Column c = {c, c+3}: sum 2c+3.
		wantCol := 2*(i%cols) + 3
		if colSums[i] != wantCol {
			t.Fatalf("rank %d col sum %v want %d", i, colSums[i], wantCol)
		}
	}
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	g, w := testWorld(4, nil)
	positions := make([]int, 4)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		// Reverse ordering: higher world rank gets lower key.
		c := r.Split(p, 0, -r.ID())
		positions[r.ID()] = c.Rank()
	})
	mustRun(t, g)
	for world, pos := range positions {
		if want := 3 - world; pos != want {
			t.Fatalf("world %d at comm pos %d want %d", world, pos, want)
		}
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	g, w := testWorld(3, nil)
	var excluded *Comm = &Comm{} // sentinel non-nil
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		color := 0
		if r.ID() == 2 {
			color = -1 // MPI_UNDEFINED
		}
		c := r.Split(p, color, 0)
		if r.ID() == 2 {
			excluded = c
		} else if c == nil || c.Size() != 2 {
			t.Errorf("rank %d comm %+v", r.ID(), c)
		}
	})
	mustRun(t, g)
	if excluded != nil {
		t.Fatal("negative color must yield a nil comm")
	}
}

func TestCommP2PIsolation(t *testing.T) {
	// Two disjoint communicators use the same comm-local tag; traffic
	// must not cross.
	g, w := testWorld(4, nil)
	got := make([]any, 4)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		c := r.Split(p, r.ID()%2, 0)
		if c.Rank() == 0 {
			c.Send(p, 1, 5, 64, fmt.Sprintf("group%d", r.ID()%2))
		} else {
			got[r.ID()] = c.Recv(p, 0, 5).Payload
		}
	})
	mustRun(t, g)
	// World ranks 2 and 3 are comm rank 1 of groups 0 and 1.
	if got[2] != "group0" || got[3] != "group1" {
		t.Fatalf("isolation broken: %v", got)
	}
}

func TestCommRecvTranslatesSource(t *testing.T) {
	g, w := testWorld(4, nil)
	var m *Message
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		// Comm of the odd ranks: world 1 → comm 0, world 3 → comm 1.
		color := r.ID() % 2
		c := r.Split(p, color, 0)
		if color != 1 {
			return
		}
		if c.Rank() == 1 {
			c.Send(p, 0, 2, 128, "hi")
		} else {
			m = c.Recv(p, AnySource, 2)
		}
	})
	mustRun(t, g)
	if m == nil || m.Src != 1 || m.Tag != 2 || m.Payload != "hi" {
		t.Fatalf("message %+v", m)
	}
}

func TestCommCollectives(t *testing.T) {
	g, w := testWorld(6, nil)
	sum := func(a, b any) any { return a.(int) + b.(int) }
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		c := r.Split(p, r.ID()%2, 0)
		c.Barrier(p)
		val := c.Bcast(p, 0, 1024, c.Rank()*0+r.ID()%2*100)
		if val != r.ID()%2*100 && c.Rank() != 0 {
			t.Errorf("bcast got %v", val)
		}
		res := c.Reduce(p, 0, 64, 1, sum)
		if c.Rank() == 0 && res != 3 {
			t.Errorf("reduce got %v", res)
		}
		c.Alltoall(p, 4096)
		c.Allgather(p, 2048)
		out := c.Gather(p, 0, 512, c.Rank())
		if c.Rank() == 0 {
			if len(out) != 3 || out[1] != 1 || out[2] != 2 {
				t.Errorf("gather %v", out)
			}
		}
		c.Barrier(p)
	})
	mustRun(t, g)
}

// TestCommAllreduceMatchesWorld pins one Allreduce rule for the world
// and sub-communicators: on a communicator of every rank in world
// order, a large Allreduce takes the same simulated time as the
// world's, on every rank.
func TestCommAllreduceMatchesWorld(t *testing.T) {
	const n, size = 8, 1 << 20
	elapsed := func(viaComm bool) []sim.Duration {
		g, w := testWorld(n, nil)
		defer g.Close()
		took := make([]sim.Duration, n)
		w.SpawnRanks(func(p *sim.Proc, r *Rank) {
			c := r.Split(p, 0, r.ID())
			r.Barrier(p)
			start := p.Now()
			if viaComm {
				c.Allreduce(p, size, nil, nil)
			} else {
				r.Allreduce(p, size, nil, nil)
			}
			took[r.ID()] = p.Now().Sub(start)
		})
		mustRun(t, g)
		return took
	}
	world, comm := elapsed(false), elapsed(true)
	for i := range world {
		if comm[i] != world[i] {
			t.Errorf("rank %d: comm Allreduce took %v, world's %v", i, comm[i], world[i])
		}
	}
}

func TestCommSendrecvRing(t *testing.T) {
	g, w := testWorld(4, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		c := r.Split(p, 0, 0) // everyone, same order
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		m := c.Sendrecv(p, next, 1, 100<<10, c.Rank(), prev, 1)
		if m.Payload != prev {
			t.Errorf("rank %d got %v want %d", c.Rank(), m.Payload, prev)
		}
	})
	mustRun(t, g)
}

func TestCommTagValidation(t *testing.T) {
	g, w := testWorld(2, nil)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		c := r.Split(p, 0, 0)
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("expected panic for oversized comm tag")
			}
		}()
		c.Send(p, 1, MaxCommTag+1, 8, nil)
	})
	mustRun(t, g)
}

// TestWorldTagOutsideCommContexts pins that a world Send cannot forge
// a sub-communicator's p2p context: the world tag that a comm's tag 5
// maps to is out of the world's range, so the comm's Recv gets the
// comm's own message.
func TestWorldTagOutsideCommContexts(t *testing.T) {
	g, w := testWorld(2, nil)
	var got any
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		c := r.Split(p, 0, 0)
		if r.ID() == 1 {
			got = c.Recv(p, 0, 5).Payload
			return
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a world Send into a communicator's tag context did not panic")
				}
			}()
			r.Send(p, 1, commP2PBase+c.slot*commP2PStride+5, 8, "world")
		}()
		c.Send(p, 1, 5, 8, "comm")
	})
	mustRun(t, g)
	if got != "comm" {
		t.Fatalf("comm Recv got %v, want the comm's own message", got)
	}
}

func TestCommSlotExhaustion(t *testing.T) {
	// Only rank 0 allocates slots; when it runs out its panic unwinds
	// mid-split, leaving the peer parked — the engine must surface
	// that as a deadlock rather than hang.
	g, w := testWorld(2, nil)
	panicked := false
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		for i := 0; i < maxCommSlots+2; i++ {
			r.Split(p, 0, 0)
		}
	})
	if _, err := g.Run(0); err == nil {
		t.Fatal("expected a deadlock error from the orphaned peer")
	}
	g.Close()
	if !panicked {
		t.Fatal("rank 0 never hit slot exhaustion")
	}
}
