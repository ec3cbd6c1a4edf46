package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Fabric is the interconnect abstraction the MPI runtime drives. Tree
// implements it, both flat (New) and two-tier (NewTree).
// Bulk transfers are booked in two stages so sender and receiver can
// live on different event-core shards: Send from sender context,
// Accept from receiver context when the arrival fires.
type Fabric interface {
	// Ports reports the number of host ports.
	Ports() int
	// SerializationTime returns how long size bytes occupy a host link.
	SerializationTime(size int64) sim.Duration
	// MinLatency reports the minimum sender-to-receiver delay; it bounds
	// the conservative lookahead for sharded runs.
	MinLatency() sim.Duration
	// Send books the transmit side of a bulk message at time now and
	// returns when its first byte leaves the sender and when it reaches
	// the receiver port.
	Send(src, dst int, size int64, now sim.Time) (start, arrive sim.Time)
	// Accept books the receive side at the arrival time returned by Send
	// and returns when the last byte lands.
	Accept(src, dst int, size int64, arrive sim.Time) (deliver sim.Time)
	// Control delivers a small protocol message sent at time now on the
	// priority path.
	Control(src, dst int, size int64, now sim.Time) (deliver sim.Time)
}

// Tree implements Fabric.
var _ Fabric = (*Tree)(nil)

// TreeConfig describes a two-tier interconnect: hosts attach to edge
// switches; edge switches attach to a core switch through uplinks that
// may be oversubscribed (slower than the sum of their host links).
type TreeConfig struct {
	// Host is the host-link model (bandwidth, edge-hop latency).
	Host Config
	// PortsPerEdge is the number of hosts per edge switch.
	PortsPerEdge int
	// UplinkBandwidthBytesPerSec is the edge-to-core link speed.
	UplinkBandwidthBytesPerSec float64
	// CoreLatency is the extra latency of crossing the core.
	CoreLatency sim.Duration
}

// Tree is a two-tier fabric. Intra-edge traffic sees a single
// non-blocking switch; inter-edge traffic additionally serializes on
// the source edge's uplink and the destination edge's downlink, which
// is where oversubscription bites.
//
// All methods must be called from engine context (process bodies or
// event callbacks). Under a sharded group, Send/Control must run on the
// source port's shard and Accept on the destination port's shard. The
// per-port fields are indexed by the port whose shard writes them, so
// a single-edge tree (New) needs no locks. The per-edge uplink and
// downlink state is shared by every port on an edge and booked from
// the sender's shard, so a multi-edge tree is only valid on a single
// shard (cluster.Config.Validate enforces this).
type Tree struct {
	eng    *sim.Engine
	cfg    TreeConfig
	txFree []sim.Time // per host port
	rxFree []sim.Time // per host port
	upFree []sim.Time // per edge switch: uplink toward the core
	dnFree []sim.Time // per edge switch: downlink from the core

	portMsgs  []int64 // messages sent, per source port
	portBytes []int64 // bytes sent, per source port
}

// NewTree builds a tree fabric with the given number of host ports.
func NewTree(eng *sim.Engine, ports int, cfg TreeConfig) *Tree {
	if ports <= 0 {
		panic(fmt.Sprintf("netsim: %d ports", ports)) //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	if cfg.PortsPerEdge <= 0 || cfg.PortsPerEdge > ports {
		panic("netsim: invalid PortsPerEdge") //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	if cfg.Host.BandwidthBytesPerSec <= 0 || cfg.UplinkBandwidthBytesPerSec <= 0 {
		panic("netsim: non-positive bandwidth") //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	if cfg.Host.Latency < 0 || cfg.CoreLatency < 0 {
		panic("netsim: negative latency") //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	edges := (ports + cfg.PortsPerEdge - 1) / cfg.PortsPerEdge
	return &Tree{
		eng:       eng,
		cfg:       cfg,
		txFree:    make([]sim.Time, ports),
		rxFree:    make([]sim.Time, ports),
		upFree:    make([]sim.Time, edges),
		dnFree:    make([]sim.Time, edges),
		portMsgs:  make([]int64, ports),
		portBytes: make([]int64, ports),
	}
}

// Ports implements Fabric.
func (t *Tree) Ports() int { return len(t.txFree) }

// Edges reports the number of edge switches.
func (t *Tree) Edges() int { return len(t.upFree) }

// EdgeOf reports which edge switch a host port attaches to.
func (t *Tree) EdgeOf(port int) int {
	t.checkPort(port)
	return port / t.cfg.PortsPerEdge
}

// SerializationTime implements Fabric (host-link rate).
func (t *Tree) SerializationTime(size int64) sim.Duration {
	if size <= 0 {
		return 0
	}
	return sim.DurationOf(float64(size) / t.cfg.Host.BandwidthBytesPerSec)
}

func (t *Tree) uplinkSer(size int64) sim.Duration {
	if size <= 0 {
		return 0
	}
	return sim.DurationOf(float64(size) / t.cfg.UplinkBandwidthBytesPerSec)
}

// MinLatency implements Fabric: the intra-edge hop is the fastest path.
// It is the conservative lookahead bound for sharded runs: a
// cross-shard interaction initiated at t can never matter to its target
// before t + MinLatency().
func (t *Tree) MinLatency() sim.Duration { return t.cfg.Host.Latency }

// Send books the transmit side of a message of size bytes from port src
// to port dst, starting no earlier than now. It returns start (when the
// first byte leaves the sender, i.e. when the transmit link is free)
// and arrive (when the first byte reaches the receiver port). The
// caller must complete the booking by calling Accept from receiver
// context at arrive; fan-in contention on the receive link is resolved
// there, in arrival order.
//
//lint:hotpath runs once per simulated message
func (t *Tree) Send(src, dst int, size int64, now sim.Time) (start, arrive sim.Time) {
	if src == dst {
		t.selfTransferPanic(src)
	}
	t.checkPort(src)
	t.checkPort(dst)
	serHost := t.SerializationTime(size)
	lat := t.cfg.Host.Latency

	es, ed := src/t.cfg.PortsPerEdge, dst/t.cfg.PortsPerEdge
	if es == ed {
		// Intra-edge: a single store-and-forward switch hop.
		start = max(now, t.txFree[src])
		t.txFree[src] = start.Add(serHost)
		arrive = start.Add(lat)
	} else {
		// Inter-edge pipeline: host tx → uplink → core → downlink →
		// host rx. The slowest stage dominates the transfer; every
		// stage is booked busy for its own serialization time at its
		// pipeline offset.
		serUp := t.uplinkSer(size)
		totalLat := 2*lat + t.cfg.CoreLatency
		start = max(now, t.txFree[src],
			t.upFree[es]-sim.Time(lat),
			t.dnFree[ed]-sim.Time(lat+t.cfg.CoreLatency))
		t.txFree[src] = start.Add(serHost)
		t.upFree[es] = start.Add(sim.Duration(lat) + serUp)
		t.dnFree[ed] = start.Add(sim.Duration(lat) + t.cfg.CoreLatency + serUp)
		arrive = start.Add(sim.Duration(totalLat))
	}
	t.portMsgs[src]++
	t.portBytes[src] += size
	return start, arrive
}

// Accept books the receive side of a message whose first byte reaches
// dst at arrive (as returned by Send) and returns deliver, when the
// last byte lands one bottleneck-stage serialization behind any earlier
// arrivals still occupying the receive link.
//
//lint:hotpath runs once per simulated message
func (t *Tree) Accept(src, dst int, size int64, arrive sim.Time) (deliver sim.Time) {
	t.checkPort(src)
	t.checkPort(dst)
	bottleneck := t.SerializationTime(size)
	if src/t.cfg.PortsPerEdge != dst/t.cfg.PortsPerEdge {
		bottleneck = max(bottleneck, t.uplinkSer(size))
	}
	deliver = max(arrive, t.rxFree[dst]).Add(bottleneck)
	t.rxFree[dst] = deliver
	return deliver
}

// Transfer books a whole message from port src to port dst starting no
// earlier than the engine clock, and returns the interval it occupies:
// start (when the first byte leaves the sender) and deliver (when the
// last byte arrives at the receiver). It is the single-engine
// convenience form of Send followed immediately by Accept; sharded
// callers split the two stages across the owning shards instead.
func (t *Tree) Transfer(src, dst int, size int64) (start, deliver sim.Time) {
	start, arrive := t.Send(src, dst, size, t.eng.Now())
	deliver = t.Accept(src, dst, size, arrive)
	return start, deliver
}

// Control books a small protocol message (RTS/CTS handshakes, ACKs)
// from src to dst at time now without occupying the links: real stacks
// interleave tiny control packets into bulk streams rather than
// queueing them behind megabytes of data, so they see only
// serialization plus switch latency, with the core hop added for
// inter-edge pairs. It returns the delivery time.
func (t *Tree) Control(src, dst int, size int64, now sim.Time) (deliver sim.Time) {
	if src == dst {
		t.selfTransferPanic(src)
	}
	t.checkPort(src)
	t.checkPort(dst)
	t.portMsgs[src]++
	t.portBytes[src] += size
	lat := t.cfg.Host.Latency
	if src/t.cfg.PortsPerEdge != dst/t.cfg.PortsPerEdge {
		lat += t.cfg.Host.Latency + t.cfg.CoreLatency
	}
	return now.Add(t.SerializationTime(size) + lat)
}

func (t *Tree) selfTransferPanic(port int) {
	panic(fmt.Sprintf("netsim: self-transfer on port %d", port)) //lint:allow panicfree (network-model invariant; port/size misuse is a simulator bug)
}

// Stats reports the total messages and bytes transferred. The totals
// are summed from per-source-port counters (each written only by the
// port's owning shard), so call it only between windows or after a run.
func (t *Tree) Stats() (messages, bytes int64) {
	for p := range t.portMsgs {
		messages += t.portMsgs[p]
		bytes += t.portBytes[p]
	}
	return messages, bytes
}

func (t *Tree) checkPort(p int) {
	if p < 0 || p >= len(t.txFree) {
		t.portRangePanic(p)
	}
}

// portRangePanic is the cold half of checkPort, split out so the hot
// Send/Accept paths stay allocation-free and inlinable.
func (t *Tree) portRangePanic(p int) {
	panic(fmt.Sprintf("netsim: port %d out of range [0,%d)", p, len(t.txFree))) //lint:allow panicfree (network-model invariant; port/size misuse is a simulator bug)
}
