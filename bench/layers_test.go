package main

import (
	"math"
	"testing"

	"repro/internal/dvs"
	"repro/internal/lint/profgate"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestFoldCPU pins the bucket mapping on a hand-built profile.
func TestFoldCPU(t *testing.T) {
	b := profgate.NewBuilder("cpu", "nanoseconds")
	b.Add(40, "repro/internal/sim.(*eventHeap).siftDown", "repro/internal/sim.(*eventHeap).pop", "repro/internal/sim.(*Engine).Run")
	b.Add(30, "repro/internal/sim.(*Engine).resumeProc", "repro/internal/sim.(*Engine).Run")
	b.Add(20, "runtime.memmove", "runtime.growslice")
	b.Add(10, "runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker")
	p, err := profgate.ParseProfile("fixture", b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := foldCPU(p)
	want := map[string]float64{"sim.heap": 0.4, "sim.proc": 0.3, "runtime": 0.3, "gc": 0.1}
	for l, share := range got {
		if math.Abs(share-want[l]) > 1e-12 {
			t.Errorf("cpu.%s = %v, want %v", l, share, want[l])
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Group).window", "repro/internal/sim.(*Group).Run"}, "sim.group"},
		{[]string{"repro/internal/sim.(*Cond).Wait"}, "sim.proc"},
		{[]string{"repro/internal/sim.(*Engine).SpawnAt.func1"}, "sim.proc"},
		{[]string{"repro/internal/sim.(*Engine).Schedule"}, "sim.other"},
		{[]string{"runtime.mallocgc", "repro/internal/mpi.(*Rank).transmit"}, "mpi"},
		{[]string{"repro/internal/exec.Map[...].func1"}, "exec"},
		{[]string{"repro/internal/lint/profgate.ParseProfile"}, "other"},
		{[]string{"time.now", "main.(*tracedFabric).Send", "repro/internal/mpi.(*Rank).transmit"}, "bench"},
		{[]string{"runtime.goexit"}, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestStrategyDecorator: the decorated strategy keeps its name, keeps a
// nil region policy nil, and counts a real policy's callbacks.
func TestStrategyDecorator(t *testing.T) {
	pr := newProbes()
	eng := sim.NewEngine()
	node := machine.NewNode(eng, 0, machine.DefaultParams())
	ctx := dvs.InstallCtx{Eng: eng, Nodes: []*machine.Node{node}}

	static := pr.strategy(dvs.Static{})
	if static.Name() != "static" {
		t.Errorf("Name() = %q, want static", static.Name())
	}
	if p := static.Install(ctx); p != nil {
		t.Errorf("Static installs policy %v through the decorator, want nil", p)
	}

	dyn := pr.strategy(dvs.NewDynamic())
	if dyn.Name() != "dynamic" {
		t.Errorf("Name() = %q, want dynamic", dyn.Name())
	}
	policy := dyn.Install(ctx)
	if policy == nil {
		t.Fatal("Dynamic installs no policy through the decorator")
	}
	eng.Spawn("app", func(p *sim.Proc) {
		policy.OnEnter(p, node, "r")
		policy.OnExit(p, node, "r")
	})
	if _, err := eng.Run(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	if pr.onEnter.Load() != 1 || pr.onExit.Load() != 1 {
		t.Errorf("counted %d enters, %d exits, want 1 each", pr.onEnter.Load(), pr.onExit.Load())
	}
}

func TestCovered(t *testing.T) {
	if got := covered([][2]int64{{5, 8}, {0, 2}, {1, 3}, {7, 10}}); got != 8 {
		t.Errorf("covered = %d, want 8", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
}
