// Custom: extend the library with your own workload and DVS strategy
// through the public API. The workload is a 1-D iterative stencil with
// halo exchange (compute-heavy interior, neighbor communication each
// step); the strategy is a per-node governor that reacts to utilization
// like cpuspeed but steps proportionally instead of jumping to max —
// the kind of policy the paper's framework is meant to let you study.
package main

import (
	"fmt"
	"log"

	"repro"
)

// stencil is a custom SPMD workload: each rank owns a slab of a 1-D
// grid and per iteration computes its interior then exchanges halos
// with its neighbors.
type stencil struct {
	cells int64 // per rank
	iters int
	ranks int
}

func (s *stencil) Name() string { return "stencil" }
func (s *stencil) Ranks() int   { return s.ranks }

func (s *stencil) Run(ctx repro.WorkloadCtx) {
	const haloBytes = 64 << 10
	me := ctx.Rank.ID()
	n := ctx.Rank.Size()
	for it := 0; it < s.iters; it++ {
		// Interior update: ~1 DRAM access per 4 cells (cache lines),
		// ~12 cycles per cell.
		ctx.PP.EnterRegion(ctx.P, "compute")
		ctx.Node.MemoryRounds(ctx.P, s.cells/4)
		ctx.Node.Compute(ctx.P, float64(s.cells)*12)
		ctx.PP.ExitRegion(ctx.P, "compute")

		// Halo exchange with neighbors.
		ctx.PP.EnterRegion(ctx.P, "halo")
		if me > 0 {
			ctx.Rank.Sendrecv(ctx.P, me-1, 1, haloBytes, nil, me-1, 1)
		}
		if me < n-1 {
			ctx.Rank.Sendrecv(ctx.P, me+1, 1, haloBytes, nil, me+1, 1)
		}
		ctx.PP.ExitRegion(ctx.P, "halo")
	}
}

// proportional is a custom strategy: a per-node daemon that maps the
// last interval's utilization onto the operating-point table instead of
// cpuspeed's jump-to-max policy.
type proportional struct {
	interval repro.Duration
}

func (*proportional) Name() string { return "proportional" }

func (g *proportional) Install(ctx repro.StrategyInstallCtx) repro.RegionPolicy {
	for _, n := range ctx.Nodes {
		n := n
		// Each daemon runs on its own node's engine: under a sharded
		// run ctx.Eng is shard 0's and does not own every node.
		n.Engine().Spawn(fmt.Sprintf("prop%d", n.ID()), func(p *repro.Proc) {
			prevBusy, prevIdle := n.Utilization()
			for {
				p.Sleep(g.interval)
				if ctx.Done != nil && ctx.Done() {
					return
				}
				busy, idle := n.Utilization()
				db, di := busy-prevBusy, idle-prevIdle
				prevBusy, prevIdle = busy, idle
				if db+di <= 0 {
					continue
				}
				util := float64(db) / float64(db+di)
				table := n.Params().Table
				// Map utilization onto the table: fully busy picks the
				// fastest point, fully idle the slowest.
				idx := int((1 - util) * float64(table.Len()))
				if idx >= table.Len() {
					idx = table.Len() - 1
				}
				if idx != n.OPIndex() {
					if err := n.SetOperatingPointIndex(p, idx); err != nil {
						// The index is clamped to the table, so this is
						// unreachable; if it ever fires, stop the daemon
						// rather than keep issuing bad transitions.
						return
					}
				}
			}
		})
	}
	return nil
}

func main() {
	cfg := repro.DefaultConfig()
	cfg.Settle = 30 * repro.Second
	cfg.Reps = 1
	cfg.UseTrueEnergy = true
	runner, err := repro.NewRunner(cfg)
	if err != nil {
		log.Fatal(err)
	}

	w := &stencil{cells: 8 << 20, iters: 10, ranks: 8}

	static, err := runner.Sweep(w, repro.Static{})
	if err != nil {
		log.Fatal(err)
	}
	norm := static.Normalized(0)
	fmt.Println("custom stencil workload — static DVS crescendo:")
	for i, p := range static.Points {
		fmt.Printf("  %-8v E=%.3f D=%.3f\n", p.Freq, norm.Points[i].Energy, norm.Points[i].Delay)
	}
	best := norm.Best(repro.DeltaHPC)
	fmt.Printf("HPC best operating point: %v (%.1f%% more efficient than 1.4GHz)\n\n",
		static.Points[best].Freq, 100*norm.Improvement(best, 0, repro.DeltaHPC))

	// Dynamic control on the halo region only.
	dyn, err := runner.Run(w, repro.NewDynamic("halo"), 0)
	if err != nil {
		log.Fatal(err)
	}
	base, err := runner.Run(w, repro.Static{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic (halo@600MHz):  E=%.3f D=%.3f vs static 1.4GHz\n",
		float64(dyn.EnergyTrue)/float64(base.EnergyTrue),
		dyn.Delay.Seconds()/base.Delay.Seconds())

	// The custom governor, plugged in exactly like the built-ins.
	prop, err := runner.Run(w, &proportional{interval: repro.Second}, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom proportional:    E=%.3f D=%.3f vs static 1.4GHz\n",
		float64(prop.EnergyTrue)/float64(base.EnergyTrue),
		prop.Delay.Seconds()/base.Delay.Seconds())
}
