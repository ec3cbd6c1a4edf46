package mpi_test

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// A four-rank allreduce over the simulated cluster: ranks contribute
// their id+1 and every rank receives the sum.
func Example() {
	g := sim.NewGroup(1, netsim.Default100Mb().Latency)
	defer g.Close()
	nodes := make([]*machine.Node, 4)
	for i := range nodes {
		nodes[i] = machine.NewNode(g.Engine(0), i, machine.DefaultParams())
	}
	sw := netsim.New(g.Engine(0), 4, netsim.Default100Mb())
	world := mpi.NewWorld(g, nodes, sw, mpi.DefaultConfig())

	sum := func(a, b any) any { return a.(int) + b.(int) }
	results := make([]any, 4)
	world.SpawnRanks(func(p *sim.Proc, r *mpi.Rank) {
		results[r.ID()] = r.Allreduce(p, 8, r.ID()+1, sum)
	})
	if _, err := g.Run(0); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(results)
	// Output:
	// [10 10 10 10]
}
