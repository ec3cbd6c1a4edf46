// Package netsim models the cluster interconnect: a non-blocking
// store-and-forward Ethernet switch (the paper's Cisco Catalyst 2950)
// with one full-duplex 100 Mb port per node, or, for topology studies,
// a two-tier tree of such switches. The flat switch is the one-edge
// case of the tree (New).
//
// The model is message-granular rather than frame-granular: a transfer
// occupies the sender's transmit link and the receiver's receive link
// for its serialization time, pipelined through the switch with a fixed
// cut-through latency. Per-link "next free" bookkeeping gives exact
// first-come-first-served contention (fan-in to one receiver serializes
// on its port, which is what makes the parallel-transpose gather a
// bottleneck) without simulating millions of frames.
//
// Booking is split in two so the model works when sender and receiver
// live on different event-core shards: Send books the transmit link
// from sender context and computes the arrival time (first byte at the
// receiver port); Accept books the receive link from receiver context
// when that arrival fires, serializing fan-in in arrival order. The
// receive-side queueing that used to be resolved by a shared
// "earliest rx slot" lookup at send time is instead resolved by the
// receiver shard's O(log n) event heap ordering the arrival events —
// no state is read across the shard boundary, and for a fixed arrival
// order the delivery times are identical to the old single-stage
// model: max(arrive, rxFree) + ser == max(arrive - lat, rxFree - lat)
// + lat + ser.
package netsim

import "repro/internal/sim"

// Config describes the interconnect fabric.
type Config struct {
	// BandwidthBytesPerSec is the effective per-direction link
	// bandwidth after protocol overheads. Raw 100 Mb/s Ethernet under
	// MPICH-over-TCP sustains roughly 9.5 MB/s.
	BandwidthBytesPerSec float64
	// Latency is the end-to-end message latency excluding
	// serialization: switch cut-through plus wire plus interrupt
	// plumbing.
	Latency sim.Duration
}

// Default100Mb returns the calibrated model of the paper's fabric:
// switched 100 Mb Ethernet under MPICH 1.2.5/TCP.
func Default100Mb() Config {
	return Config{
		BandwidthBytesPerSec: 9.5e6,
		Latency:              45 * sim.Microsecond,
	}
}

// New builds the paper's flat fabric: one non-blocking switch with
// ports full-duplex ports. It is a Tree with a single edge switch, so
// every pair of ports is intra-edge and the uplink never carries
// traffic.
//
//lint:range ports [1,inf]
func New(eng *sim.Engine, ports int, cfg Config) *Tree {
	return NewTree(eng, ports, TreeConfig{
		Host:                       cfg,
		PortsPerEdge:               ports,
		UplinkBandwidthBytesPerSec: cfg.BandwidthBytesPerSec,
	})
}

// Gigabit returns a switched gigabit Ethernet model (an interconnect
// upgrade ablation: as the network gets faster, communication slack —
// and with it DVS savings on comm-bound codes — shrinks).
func Gigabit() Config {
	return Config{
		BandwidthBytesPerSec: 85e6,
		Latency:              25 * sim.Microsecond,
	}
}
