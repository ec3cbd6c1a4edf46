package workloads

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/powerpack"
	"repro/internal/sim"
)

// harness runs a workload on a fresh cluster at the top operating point
// with no DVS policy, returning the per-node contexts and the end time.
func harness(t *testing.T, w Workload) ([]*powerpack.NodeCtx, []*machine.Node, sim.Time) {
	t.Helper()
	ctxs, nodes, _, end := harnessWorld(t, w)
	return ctxs, nodes, end
}

// harnessWorld is harness exposing the MPI world for traffic checks.
func harnessWorld(t *testing.T, w Workload) ([]*powerpack.NodeCtx, []*machine.Node, *mpi.World, sim.Time) {
	t.Helper()
	g, world := testWorld(w.Ranks())
	defer g.Close()
	n := w.Ranks()
	nodes := make([]*machine.Node, n)
	for i := range nodes {
		nodes[i] = world.Rank(i).Node()
	}
	prof := powerpack.NewProfiler()
	ctxs := make([]*powerpack.NodeCtx, n)
	for i := range ctxs {
		ctxs[i] = powerpack.NewNodeCtx(nodes[i], prof, nil)
	}
	var end sim.Time
	for i := 0; i < n; i++ {
		i := i
		g.Engine(0).Spawn("rank", func(p *sim.Proc) {
			w.Run(Ctx{P: p, Rank: world.Rank(i), Node: nodes[i], PP: ctxs[i]})
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	// Run to exhaustion; "end" is the last rank's finish.
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	return ctxs, nodes, world, end
}

// testWorld builds an n-rank MPI world on fresh nodes over the default
// fabric, all on one event-core shard.
func testWorld(n int) (*sim.Group, *mpi.World) {
	g := sim.NewGroup(1, netsim.Default100Mb().Latency)
	nodes := make([]*machine.Node, n)
	for i := range nodes {
		nodes[i] = machine.NewNode(g.Engine(0), i, machine.DefaultParams())
	}
	return g, mpi.NewWorld(g, nodes, netsim.New(g.Engine(0), n, netsim.Default100Mb()), mpi.DefaultConfig())
}

func TestMicrobenchNamesAndRanks(t *testing.T) {
	cases := []struct {
		w    Workload
		name string
		n    int
	}{
		{NewMemBench(1), "membench", 1},
		{NewCacheBench(1), "cachebench", 1},
		{NewRegBench(1), "regbench", 1},
		{NewCommBench256K(1), "commbench-262144B", 2},
		{NewCommBench4K(1), "commbench-4096B", 2},
		{NewSwim(1), "swim", 1},
		{NewMgrid(1), "mgrid", 1},
		{NewFT('B', 8), "ft.B", 8},
		{NewTranspose(1), "transpose", 15},
	}
	for _, c := range cases {
		if c.w.Name() != c.name {
			t.Errorf("name: got %q want %q", c.w.Name(), c.name)
		}
		if c.w.Ranks() != c.n {
			t.Errorf("%s ranks: got %d want %d", c.name, c.w.Ranks(), c.n)
		}
	}
}

func TestMemBenchIsMemoryBound(t *testing.T) {
	_, nodes, end := harness(t, NewMemBench(10))
	n := nodes[0]
	mem := n.StateTime(machine.MemoryStall)
	if float64(mem)/float64(end) < 0.95 {
		t.Fatalf("memory-stall fraction %.3f, want ≥0.95", float64(mem)/float64(end))
	}
}

func TestCacheAndRegBenchAreComputeBound(t *testing.T) {
	for _, w := range []Workload{NewCacheBench(100), NewRegBench(100)} {
		_, nodes, end := harness(t, w)
		comp := nodes[0].StateTime(machine.Compute)
		if float64(comp)/float64(end) < 0.95 {
			t.Fatalf("%s compute fraction %.3f", w.Name(), float64(comp)/float64(end))
		}
	}
}

func TestCommBenchIsCommunicationBound(t *testing.T) {
	_, nodes, end := harness(t, NewCommBench256K(20))
	n := nodes[0]
	wait := n.StateTime(machine.Spin) + n.StateTime(machine.Blocked)
	if float64(wait)/float64(end) < 0.80 {
		t.Fatalf("wait fraction %.3f, want ≥0.80", float64(wait)/float64(end))
	}
}

func TestSwimMoreMemoryBoundThanMgrid(t *testing.T) {
	_, swimNodes, swimEnd := harness(t, NewSwim(5))
	_, mgridNodes, mgridEnd := harness(t, NewMgrid(5))
	swimFrac := float64(swimNodes[0].StateTime(machine.MemoryStall)) / float64(swimEnd)
	mgridFrac := float64(mgridNodes[0].StateTime(machine.MemoryStall)) / float64(mgridEnd)
	if swimFrac < 0.85 {
		t.Fatalf("swim memory fraction %.3f, want ≈0.9", swimFrac)
	}
	if mgridFrac > 0.35 {
		t.Fatalf("mgrid memory fraction %.3f, want ≈0.25", mgridFrac)
	}
}

func TestFTClassValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for class D")
		}
	}()
	NewFT('D', 8)
}

func TestFTRegionDominatesRuntime(t *testing.T) {
	ft := NewFT('A', 4)
	ft.IterOverride = 2
	ctxs, _, end := harness(t, ft)
	prof := ctxs[0].Profile(RegionFFT)
	if prof == nil {
		t.Fatal("fft region not recorded")
	}
	if prof.Count != 2 {
		t.Fatalf("fft region count %d", prof.Count)
	}
	// The paper: "most execution time and slack time resides in
	// function fft()".
	if frac := float64(prof.Time) / float64(end); frac < 0.6 {
		t.Fatalf("fft region fraction %.3f", frac)
	}
}

func TestFTCommVolumeMatchesClass(t *testing.T) {
	ft := NewFT('A', 4)
	ft.IterOverride = 1
	_, _, world, _ := harnessWorld(t, ft)
	n := ft.Ranks()
	points := int64(256 * 256 * 128)
	perPeer := points * 16 / int64(n*n)
	wantAtLeast := perPeer * int64(n-1) // one transpose
	got := world.Rank(0).Stats().BytesSent
	if got < wantAtLeast {
		t.Fatalf("rank 0 sent %d bytes, want ≥ %d", got, wantAtLeast)
	}
}

func TestTransposeRedistSizes(t *testing.T) {
	tr := NewTranspose(1)
	total := int64(0)
	for src := 0; src < tr.Ranks(); src++ {
		sizes := tr.redistSizes(src)
		var sum int64
		for _, s := range sizes {
			sum += s
		}
		// Every source's block is fully redistributed: 2400×4000×8.
		if sum != 2400*4000*8 {
			t.Fatalf("src %d redistributes %d bytes", src, sum)
		}
		total += sum
	}
	if total != 12000*12000*8 {
		t.Fatalf("total redistribution %d", total)
	}
	// The corner rank (0,0) keeps a large share local — the load
	// imbalance the paper points out.
	self := tr.redistSizes(0)[0]
	if self != 2400*2400*8 {
		t.Fatalf("rank 0 self-share %d, want %d", self, 2400*2400*8)
	}
}

func TestTransposeRedistConsistency(t *testing.T) {
	// What i sends to j must be what j expects from i — Alltoallv's
	// contract. The geometric construction is symmetric under
	// (i,j) → (j,i) with rows and cols swapped.
	tr := NewTranspose(1)
	n := tr.Ranks()
	recv := make([]int64, n)
	for src := 0; src < n; src++ {
		for dst, sz := range tr.redistSizes(src) {
			recv[dst] += sz
		}
	}
	var total int64
	for _, v := range recv {
		total += v
	}
	if total != 12000*12000*8 {
		t.Fatalf("received total %d", total)
	}
}

func TestTransposeRanksGuard(t *testing.T) {
	tr := NewTranspose(1)
	g, world := testWorld(1)
	defer g.Close()
	node := world.Rank(0).Node()
	g.Engine(0).Spawn("rank", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic with wrong world size")
			}
		}()
		tr.Run(Ctx{P: p, Rank: world.Rank(0), Node: node, PP: powerpack.NewNodeCtx(node, powerpack.NewProfiler(), nil)})
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeRootReceivesGather(t *testing.T) {
	tr := &Transpose{N: 600, PRows: 5, PCols: 3, Iterations: 1}
	_, _, world, _ := harnessWorld(t, tr)
	// Root received one block from each of the other 14 ranks in the
	// gather, plus redistribution traffic.
	blockBytes := int64(600/5) * int64(600/3) * 8
	got := world.Rank(0).Stats().BytesRecv
	if got < blockBytes*14 {
		t.Fatalf("root received %d bytes, want ≥ %d", got, blockBytes*14)
	}
}

func TestCommBench4KTouchesBuffer(t *testing.T) {
	_, nodes, _ := harness(t, NewCommBench4K(50))
	if nodes[0].StateTime(machine.MemoryStall) == 0 {
		t.Fatal("4K bench should touch its buffer at 64B stride")
	}
	_, nodes256, _ := harness(t, NewCommBench256K(5))
	if nodes256[0].StateTime(machine.MemoryStall) != 0 {
		t.Fatal("256K bench should not add buffer touches")
	}
}

func TestSyntheticDeterministicProgram(t *testing.T) {
	a := NewSynthetic(42, 4, 20, 1).program()
	b := NewSynthetic(42, 4, 20, 1).program()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different programs")
		}
	}
	c := NewSynthetic(43, 4, 20, 1).program()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestSyntheticSingleRankAvoidsComm(t *testing.T) {
	w := NewSynthetic(7, 1, 40, 1)
	for _, ph := range w.program() {
		if ph.kind >= 3 && ph.kind <= 6 {
			t.Fatalf("single-rank program contains comm phase %d", ph.kind)
		}
	}
	// And it runs to completion.
	_, _, end := harness(t, w)
	if end <= 0 {
		t.Fatal("no progress")
	}
}

func TestSyntheticValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSynthetic(1, 0, 1, 1) },
		func() { NewSynthetic(1, 1, 0, 1) },
		func() { NewSynthetic(1, 1, 1, 0) },
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
}
