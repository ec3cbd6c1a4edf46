// Package dvs implements the three distributed DVS strategies the paper
// studies (Section 4):
//
//  1. Cpuspeed — the stock Linux daemon: per-node, interval-driven,
//     steering frequency from /proc/stat CPU-idle percentages.
//  2. Static — one synchronized fixed frequency on all nodes for the
//     whole run.
//  3. Dynamic — application-directed control: PowerPack calls inserted
//     at region boundaries drop to a low operating point inside
//     slack-heavy program phases and restore the base point on exit.
package dvs

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/powerpack"
	"repro/internal/sim"
)

// InstallCtx is what a strategy needs to arm itself on a cluster.
type InstallCtx struct {
	// Eng is shard 0's engine. Under a sharded run it owns only the
	// nodes on that shard, so per-node daemons must spawn on
	// n.Engine() instead, as Cpuspeed and Slack do.
	Eng   *sim.Engine
	Nodes []*machine.Node
	// BaseIdx is the operating point the experiment sweeps (the x-axis
	// of the paper's crescendos).
	BaseIdx int
	// Done reports whether the workload has completed; daemons poll it
	// to terminate so the simulation can drain.
	Done func() bool
}

// mustSetOP asserts a blocking operating-point switch succeeds.
// Strategies compute indices from the table itself (StepUp/StepDown
// clamp, BaseIdx comes from the sweep), so a failure is a strategy bug
// and fails fast rather than silently running at the wrong frequency.
func mustSetOP(p *sim.Proc, n *machine.Node, idx int) {
	if err := n.SetOperatingPointIndex(p, idx); err != nil {
		panic(err)
	}
}

// mustSetOPAsync is mustSetOP for event-context (timer daemon) switches.
func mustSetOPAsync(n *machine.Node, idx int) {
	if err := n.SetOperatingPointIndexAsync(idx); err != nil {
		panic(err)
	}
}

// Strategy is one distributed DVS policy.
type Strategy interface {
	// Name identifies the strategy in reports ("cpuspeed", "static",
	// "dynamic").
	Name() string
	// Install arms the strategy on the cluster before the workload
	// starts, returning the region policy PowerPack should apply (nil
	// when the strategy ignores application regions).
	Install(ctx InstallCtx) powerpack.RegionPolicy
}

// Static pins every node to the base operating point for the whole run
// (the paper's "static control": the user synchronizes and sets the
// frequency for all nodes to a single value).
type Static struct{}

// Name implements Strategy.
func (Static) Name() string { return "static" }

// Install implements Strategy.
func (Static) Install(ctx InstallCtx) powerpack.RegionPolicy {
	for _, n := range ctx.Nodes {
		mustSetOPAsync(n, ctx.BaseIdx)
	}
	return nil
}

// Dynamic is the paper's hand-tuned dynamic control: nodes start at the
// base point; when the application enters a marked slack region the
// node drops to the lowest operating point, and restores the base point
// on exit. Regions holds the marked region names to act on (empty =
// act on every region).
type Dynamic struct {
	// Regions, if non-empty, limits the policy to these region names.
	Regions []string
	// TargetIdx is the operating point used inside regions; a negative
	// value means the table's lowest point.
	TargetIdx int
}

// NewDynamic builds the paper's configuration: drop to the minimum
// speed inside the named regions.
func NewDynamic(regions ...string) *Dynamic {
	return &Dynamic{Regions: regions, TargetIdx: -1}
}

// Name implements Strategy.
func (*Dynamic) Name() string { return "dynamic" }

type dynamicPolicy struct {
	d       *Dynamic
	baseIdx int
	target  int
	// depth[node] is the nesting depth of acted-on regions. A slice
	// indexed by node ID rather than a map: each slot is written only by
	// the process running on that node, so ranks on different event-core
	// shards never touch the same element and no locking is needed.
	depth []int
}

// Install implements Strategy.
func (d *Dynamic) Install(ctx InstallCtx) powerpack.RegionPolicy {
	for _, n := range ctx.Nodes {
		mustSetOPAsync(n, ctx.BaseIdx)
	}
	target := d.TargetIdx
	if target < 0 {
		if len(ctx.Nodes) == 0 {
			panic("dvs: Dynamic.Install with no nodes") //lint:allow panicfree (Install misuse is a programming error caught at startup)
		}
		target = ctx.Nodes[0].Params().Table.Len() - 1
	}
	return &dynamicPolicy{d: d, baseIdx: ctx.BaseIdx, target: target, depth: perNodeSlots(ctx.Nodes)}
}

// perNodeSlots sizes a node-ID-indexed slice for a node set.
func perNodeSlots(nodes []*machine.Node) []int {
	maxID := -1
	for _, n := range nodes {
		if n.ID() > maxID {
			maxID = n.ID()
		}
	}
	return make([]int, maxID+1)
}

func (dp *dynamicPolicy) applies(region string) bool {
	if len(dp.d.Regions) == 0 {
		return true
	}
	for _, r := range dp.d.Regions {
		if r == region {
			return true
		}
	}
	return false
}

// OnEnter implements powerpack.RegionPolicy.
func (dp *dynamicPolicy) OnEnter(p *sim.Proc, n *machine.Node, region string) {
	if !dp.applies(region) {
		return
	}
	dp.depth[n.ID()]++
	if dp.depth[n.ID()] == 1 {
		mustSetOP(p, n, dp.target)
	}
}

// OnExit implements powerpack.RegionPolicy.
func (dp *dynamicPolicy) OnExit(p *sim.Proc, n *machine.Node, region string) {
	if !dp.applies(region) {
		return
	}
	if dp.depth[n.ID()] == 0 {
		panic(fmt.Sprintf("dvs: region %q exit without enter on node %d", region, n.ID())) //lint:allow panicfree (region-nesting invariant; unbalanced Enter/Exit is a workload bug)
	}
	dp.depth[n.ID()]--
	if dp.depth[n.ID()] == 0 {
		mustSetOP(p, n, dp.baseIdx)
	}
}
