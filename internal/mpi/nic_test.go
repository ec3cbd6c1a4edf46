package mpi

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
)

// nicWindowReadings runs the NIC-window scenario on the given shard
// count and returns every reading it takes, keyed by name: floats as
// their IEEE-754 bits, durations as nanoseconds.
//
// Rank 0 posts a burst of 16 Isends of 2–3.6 KB to rank 1. Its
// transmit link serializes them into touching windows while its
// receive side is closed, so rank 0's NIC goes off and on again at
// every touch point. Rank 1 replies once it holds them all. Rank 0
// then makes one blocking 2 KB Send and schedules two coordinator
// globals: one at exactly that window's end, which must still see the
// window open, and one later that reads energy and utilization
// back-dated to the middle of the window, past the window's end edge.
func nicWindowReadings(t *testing.T, shards int) map[string]uint64 {
	t.Helper()
	g, w := shardedWorld(shards, 2, nil)
	defer g.Close()
	got := map[string]uint64{}
	nodes := []*machine.Node{w.Rank(0).Node(), w.Rank(1).Node()}
	finish := make([]sim.Time, 2)

	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		const burst = 16
		switch r.ID() {
		case 0:
			reqs := make([]*Request, burst)
			for i := range reqs {
				reqs[i] = r.Isend(p, 1, i, int64(2048+104*i), nil)
			}
			r.Waitall(p, reqs...)
			r.Recv(p, 1, burst)
			r.Send(p, 1, burst+1, 2048, nil)
			ser := w.sw.SerializationTime(2048)
			end := p.Now().Add(ser)
			g.ScheduleGlobal(end, 0, func() {
				for i, n := range nodes {
					got[fmt.Sprintf("at-end.node%d.nic_w", i)] = math.Float64bits(float64(n.ComponentPowers()[power.NIC]))
					got[fmt.Sprintf("at-end.node%d.total_w", i)] = math.Float64bits(float64(n.Power()))
				}
			})
			mid := end.Add(-ser / 2)
			g.ScheduleGlobal(end.Add(ser/2), 0, func() {
				for i, n := range nodes {
					got[fmt.Sprintf("back-dated.node%d.energy_j", i)] = math.Float64bits(float64(n.EnergyAt(mid)))
					busy, idle := n.UtilizationAt(mid)
					got[fmt.Sprintf("back-dated.node%d.busy_ns", i)] = uint64(busy)
					got[fmt.Sprintf("back-dated.node%d.idle_ns", i)] = uint64(idle)
				}
			})
		case 1:
			for i := 0; i < burst; i++ {
				r.Recv(p, 0, i)
			}
			r.Send(p, 0, burst, 2048, nil)
			r.Recv(p, 0, burst+1)
		}
		finish[r.ID()] = p.Now()
	})
	mustRun(t, g)

	// The final readings back-date to the last rank's finish, so they do
	// not depend on where the group's clock stopped.
	at := max(finish[0], finish[1])
	for i, n := range nodes {
		for _, c := range power.Components() {
			got[fmt.Sprintf("final.node%d.%v_j", i, c)] = math.Float64bits(float64(n.ComponentEnergyAt(c, at)))
		}
		busy, idle := n.UtilizationAt(at)
		got[fmt.Sprintf("final.node%d.busy_ns", i)] = uint64(busy)
		got[fmt.Sprintf("final.node%d.idle_ns", i)] = uint64(idle)
		for _, s := range machine.States() {
			got[fmt.Sprintf("final.node%d.in_%v_ns", i, s)] = uint64(n.StateTimeAt(s, at))
		}
	}
	return got
}

// TestNICWindowReadings pins, bit for bit, every energy, counter and
// coordinator reading of the NIC-window scenario on 1 and 2 shards.
// Touching windows must split every component's integral at the touch
// point, a reading at a window edge's own instant must see the power
// from before the edge, and a back-dated reading must see every edge
// that fired before the reading ran.
func TestNICWindowReadings(t *testing.T) {
	want := map[string]uint64{
		"at-end.node0.nic_w":          0x3ff199999999999a,
		"at-end.node0.total_w":        0x40281f4c2b51bd62,
		"at-end.node1.nic_w":          0x3ff199999999999a,
		"at-end.node1.total_w":        0x40303dba908a265f,
		"back-dated.node0.busy_ns":    5137268,
		"back-dated.node0.energy_j":   0x3fb63f5aaf6abf4d,
		"back-dated.node0.idle_ns":    215579,
		"back-dated.node1.busy_ns":    5400480,
		"back-dated.node1.energy_j":   0x3fb7f50f371c55c0,
		"back-dated.node1.idle_ns":    0,
		"final.node0.board_j":         0x3f9c341665a5a9cf,
		"final.node0.busy_ns":         5137268,
		"final.node0.cpu_j":           0x3fa364b49f008c32,
		"final.node0.disk_j":          0x3f7a8b605faafa2e,
		"final.node0.idle_ns":         263212,
		"final.node0.in_blocked_ns":   0,
		"final.node0.in_compute_ns":   53571,
		"final.node0.in_copy_ns":      7899,
		"final.node0.in_idle_ns":      263212,
		"final.node0.in_memstall_ns":  0,
		"final.node0.in_spin_ns":      5075798,
		"final.node0.in_switching_ns": 0,
		"final.node0.memory_j":        0x3f83eebe8f1c6817,
		"final.node0.nic_j":           0x3f77d341527d1cd9,
		"final.node1.board_j":         0x3f9c341665a5a9d2,
		"final.node1.busy_ns":         5400480,
		"final.node1.cpu_j":           0x3fa67da3cf3eb35d,
		"final.node1.disk_j":          0x3f7a8b605faafa2d,
		"final.node1.idle_ns":         0,
		"final.node1.in_blocked_ns":   0,
		"final.node1.in_compute_ns":   321426,
		"final.node1.in_copy_ns":      63442,
		"final.node1.in_idle_ns":      0,
		"final.node1.in_memstall_ns":  0,
		"final.node1.in_spin_ns":      5015612,
		"final.node1.in_switching_ns": 0,
		"final.node1.memory_j":        0x3f841a6cd788815b,
		"final.node1.nic_j":           0x3f77d341527d1cda,
	}
	for _, shards := range []int{1, 2} {
		got := nicWindowReadings(t, shards)
		names := make([]string, 0, len(want))
		for name := range want {
			names = append(names, name)
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if g, ok := got[name]; !ok || g != want[name] {
				t.Errorf("%d shards: %s = %#x (taken: %v), want %#x", shards, name, g, ok, want[name])
			}
		}
	}
}
