// Package meter reproduces the paper's two independent direct power
// measurement techniques (Section 3):
//
//   - ACPIBattery — polling the laptop's smart battery for remaining
//     capacity in mWh (1 mWh = 3.6 J), refreshed only every 15-20
//     seconds and quantized to whole mWh, which is why the paper runs
//     long workloads and iterates executions;
//   - BaytechStrip — remote power-strip management hardware reporting
//     per-outlet average power once a minute over SNMP.
//
// Both instruments observe the exact energy integrators of the node
// model through a realistic sampling-and-quantization window, so the
// measurement-protocol part of the paper's framework (including its
// error characteristics) is exercised, not just the true values.
package meter

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
)

// Reading is one battery capacity poll.
type Reading struct {
	At        sim.Time
	Remaining float64 // mWh, quantized to whole units
}

// ACPIBattery simulates a smart battery attached to one node. Spawn
// starts the polling process; readings accumulate until the done
// function reports true.
type ACPIBattery struct {
	node     *machine.Node
	capacity float64 // mWh at full charge
	refresh  sim.Duration
	readings []Reading
}

// DefaultBatteryCapacityMWh is a stock Inspiron 8600 battery
// (~72 Wh = 72000 mWh).
const DefaultBatteryCapacityMWh = 72000

// NewACPIBattery creates a fully charged battery for node with the
// given poll refresh (the paper observes 15-20 s).
func NewACPIBattery(node *machine.Node, capacityMWh float64, refresh sim.Duration) *ACPIBattery {
	if capacityMWh <= 0 {
		panic("meter: non-positive battery capacity") //lint:allow panicfree (constructor misuse; meter config is fixed at build time)
	}
	if refresh <= 0 {
		panic("meter: non-positive refresh") //lint:allow panicfree (constructor misuse; meter config is fixed at build time)
	}
	return &ACPIBattery{node: node, capacity: capacityMWh, refresh: refresh}
}

// Spawn starts the polling process on the node's own engine. It takes
// an immediate reading at the current time, then polls every refresh
// until done() is true.
func (b *ACPIBattery) Spawn(done func() bool) {
	b.node.Engine().Spawn(fmt.Sprintf("acpi%d", b.node.ID()), func(p *sim.Proc) {
		b.poll(p.Now())
		for {
			p.Sleep(b.refresh)
			b.poll(p.Now())
			if done != nil && done() {
				return
			}
		}
	})
}

// poll records the quantized remaining capacity at time t.
func (b *ACPIBattery) poll(t sim.Time) {
	used := b.node.EnergyAt(t).MilliwattHours()
	remaining := math.Floor(b.capacity - used)
	if remaining < 0 {
		remaining = 0 // battery exhausted; the protocol should avoid this
	}
	b.readings = append(b.readings, Reading{At: t, Remaining: remaining})
}

// Readings returns all polls so far.
func (b *ACPIBattery) Readings() []Reading {
	out := make([]Reading, len(b.readings))
	copy(out, b.readings)
	return out
}

// Exhausted reports whether the battery hit zero in any reading.
func (b *ACPIBattery) Exhausted() bool {
	for _, r := range b.readings {
		if r.Remaining <= 0 {
			return true
		}
	}
	return false
}

// EnergyBetween estimates the energy consumed over [start, end] the way
// the paper does: the difference between the last reading at or before
// start and the first reading at or after end. ok is false when the
// polls do not bracket the interval.
func (b *ACPIBattery) EnergyBetween(start, end sim.Time) (power.Joules, bool) {
	var before, after *Reading
	for i := range b.readings {
		r := &b.readings[i]
		if r.At <= start {
			before = r
		}
		if r.At >= end {
			after = r
			break
		}
	}
	if before == nil || after == nil {
		return 0, false
	}
	return power.JoulesFromMilliwattHours(before.Remaining - after.Remaining), true
}

// OutletRecord is one Baytech poll: average power on one outlet over
// the preceding interval.
type OutletRecord struct {
	At     sim.Time
	Outlet int
	AvgW   power.Watts
}

// BaytechStrip simulates the remote management strip: every interval it
// reports the average power of each outlet (node) since the previous
// poll.
type BaytechStrip struct {
	nodes    []*machine.Node
	interval sim.Duration
	records  []OutletRecord
	lastE    []power.Joules
}

// NewBaytechStrip wires every node to an outlet, polled at interval
// (the hardware updates once a minute).
func NewBaytechStrip(nodes []*machine.Node, interval sim.Duration) *BaytechStrip {
	if len(nodes) == 0 {
		panic("meter: empty strip") //lint:allow panicfree (constructor misuse; meter config is fixed at build time)
	}
	if interval <= 0 {
		panic("meter: non-positive interval") //lint:allow panicfree (constructor misuse; meter config is fixed at build time)
	}
	return &BaytechStrip{
		nodes:    nodes,
		interval: interval,
		lastE:    make([]power.Joules, len(nodes)),
	}
}

// GlobalPri is the coordinator-global priority the strip's polls use;
// it must not collide with any other same-time global source (see
// sim.Group.ScheduleGlobal).
const GlobalPri = 2

// Spawn starts the management unit's polling process on g. Each poll
// runs as a coordinator global at a window barrier, where every
// shard's node energy integrator is safely visible. The first tick
// only baselines the energy counters; records follow every interval
// until done() is true.
func (s *BaytechStrip) Spawn(g *sim.Group, done func() bool) {
	start := g.Now()
	g.ScheduleGlobal(start, GlobalPri, func() {
		for i, n := range s.nodes {
			s.lastE[i] = n.EnergyAt(start)
		}
		s.tick(g, start.Add(s.interval), done)
	})
}

// tick schedules one poll at time at, which records every outlet and
// re-arms itself unless done.
func (s *BaytechStrip) tick(g *sim.Group, at sim.Time, done func() bool) {
	g.ScheduleGlobal(at, GlobalPri, func() {
		for i, n := range s.nodes {
			e := n.EnergyAt(at)
			avg := power.Watts(float64(e-s.lastE[i]) / s.interval.Seconds())
			s.lastE[i] = e
			s.records = append(s.records, OutletRecord{At: at, Outlet: i, AvgW: avg})
		}
		if done != nil && done() {
			return
		}
		s.tick(g, at.Add(s.interval), done)
	})
}

// Records returns all outlet polls so far.
func (s *BaytechStrip) Records() []OutletRecord {
	out := make([]OutletRecord, len(s.records))
	copy(out, s.records)
	return out
}

// EnergyBetween integrates an outlet's average-power records over the
// polls covering [start, end] (each record covers the interval ending
// at its timestamp). ok is false if the records do not cover the range.
func (s *BaytechStrip) EnergyBetween(outlet int, start, end sim.Time) (power.Joules, bool) {
	var total power.Joules
	covered := false
	for _, r := range s.records {
		if r.Outlet != outlet {
			continue
		}
		intStart := r.At - sim.Time(s.interval)
		if r.At <= start || intStart >= end {
			continue
		}
		// Clip the record's interval to [start, end].
		lo, hi := intStart, r.At
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		total += power.Joules(float64(r.AvgW) * hi.Sub(lo).Seconds())
		covered = true
	}
	if !covered {
		return 0, false
	}
	return total, true
}
