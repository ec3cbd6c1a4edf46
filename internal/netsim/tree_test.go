package netsim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

func newTree(ports, perEdge int) (*sim.Engine, *Tree) {
	e := sim.NewEngine()
	return e, NewTree(e, ports, TreeConfig{
		Host:                       Config{BandwidthBytesPerSec: 1e6, Latency: 50 * sim.Microsecond},
		PortsPerEdge:               perEdge,
		UplinkBandwidthBytesPerSec: 2e6, // 2:1 host oversubscription at 4 ports/edge
		CoreLatency:                20 * sim.Microsecond,
	})
}

func TestTreeTopology(t *testing.T) {
	_, tr := newTree(8, 4)
	if tr.Ports() != 8 || tr.Edges() != 2 {
		t.Fatalf("ports=%d edges=%d", tr.Ports(), tr.Edges())
	}
	if tr.EdgeOf(0) != 0 || tr.EdgeOf(3) != 0 || tr.EdgeOf(4) != 1 || tr.EdgeOf(7) != 1 {
		t.Fatal("edge mapping")
	}
}

func TestTreeIntraEdgeMatchesSwitch(t *testing.T) {
	_, tr := newTree(8, 4)
	start, deliver := tr.Transfer(0, 1, 500_000)
	if start != 0 {
		t.Fatalf("start %v", start)
	}
	want := sim.Time(500*sim.Millisecond + 50*sim.Microsecond)
	if deliver != want {
		t.Fatalf("deliver %v want %v", deliver, want)
	}
	_, flat := newSwitch(8)
	if fs, fd := flat.Transfer(0, 1, 500_000); fs != start || fd != deliver {
		t.Fatalf("flat switch books [%v, %v], tree edge [%v, %v]", fs, fd, start, deliver)
	}
}

// TestTreeShardedDisjointPorts drives a single-edge tree the way two
// event-core shards do: each goroutine owns half the ports, calls Send
// for its own sources and Accept for its own destinations, and never
// touches the other half's state. Under -race this proves the flat
// fabric is shard-safe; the bookings must also match a sequential run.
func TestTreeShardedDisjointPorts(t *testing.T) {
	const ports, msgs = 8, 200
	// owner g books sources g*4..g*4+3 toward the other half, then
	// accepts the mirror-image traffic arriving on its own ports.
	run := func(tr *Tree, g int, out []sim.Time) {
		own, peer := g*ports/2, (1-g)*ports/2
		for i := 0; i < msgs; i++ {
			src, dst := own+i%4, peer+(i/4)%4
			size := int64(1000 + 37*i)
			_, arrive := tr.Send(src, dst, size, sim.Time(i)*sim.Time(sim.Millisecond))
			out[2*i] = arrive
			out[2*i+1] = tr.Accept(dst, src, size, arrive)
		}
	}
	seq := New(sim.NewEngine(), ports, Default100Mb())
	want := [2][]sim.Time{make([]sim.Time, 2*msgs), make([]sim.Time, 2*msgs)}
	run(seq, 0, want[0])
	run(seq, 1, want[1])

	par := New(sim.NewEngine(), ports, Default100Mb())
	got := [2][]sim.Time{make([]sim.Time, 2*msgs), make([]sim.Time, 2*msgs)}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run(par, g, got[g])
		}(g)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent bookings on disjoint ports differ from a sequential run")
	}
	wantMsgs, wantBytes := seq.Stats()
	if m, b := par.Stats(); m != wantMsgs || b != wantBytes || m != 2*msgs {
		t.Fatalf("stats = %d msgs %d bytes, want %d msgs %d bytes", m, b, wantMsgs, wantBytes)
	}
}

func TestTreeInterEdgeAddsCoreLatency(t *testing.T) {
	_, tr := newTree(8, 4)
	_, deliver := tr.Transfer(0, 4, 500_000)
	// Host serialization dominates (uplink is faster); latency is two
	// edge hops plus the core.
	want := sim.Time(500*sim.Millisecond + 2*50*sim.Microsecond + 20*sim.Microsecond)
	if deliver != want {
		t.Fatalf("deliver %v want %v", deliver, want)
	}
}

func TestTreeUplinkContention(t *testing.T) {
	_, tr := newTree(8, 4)
	// Three hosts on edge 0 send cross-edge simultaneously: their
	// host links are distinct but they share one 2 MB/s uplink, so the
	// third transfer's delivery is pushed out by uplink serialization.
	_, d1 := tr.Transfer(0, 4, 1_000_000)
	_, d2 := tr.Transfer(1, 5, 1_000_000)
	_, d3 := tr.Transfer(2, 6, 1_000_000)
	if !(d1 < d2 && d2 < d3) {
		t.Fatalf("uplink contention not serializing: %v %v %v", d1, d2, d3)
	}
	// Uplink spacing is the 0.5 s uplink serialization, not the 1 s
	// host serialization.
	if gap := d2.Sub(d1); gap != 500*sim.Millisecond {
		t.Fatalf("uplink spacing %v", gap)
	}
	// Intra-edge traffic on the other edge (on ports whose host links
	// are idle) is unaffected.
	_, d4 := tr.Transfer(5, 7, 1_000_000)
	if d4 >= d3 {
		t.Fatalf("intra-edge transfer blocked by uplink: %v vs %v", d4, d3)
	}
}

func TestTreeSlowUplinkIsBottleneck(t *testing.T) {
	e := sim.NewEngine()
	tr := NewTree(e, 8, TreeConfig{
		Host:                       Config{BandwidthBytesPerSec: 1e6, Latency: 50 * sim.Microsecond},
		PortsPerEdge:               4,
		UplinkBandwidthBytesPerSec: 0.25e6, // 4x slower than a host link
		CoreLatency:                20 * sim.Microsecond,
	})
	_, deliver := tr.Transfer(0, 4, 1_000_000)
	// The uplink's 4 s serialization dominates the 1 s host link.
	want := sim.Time(4*sim.Second + 120*sim.Microsecond)
	if deliver != want {
		t.Fatalf("deliver %v want %v", deliver, want)
	}
}

func TestTreeControlPath(t *testing.T) {
	_, tr := newTree(8, 4)
	intra := tr.Control(0, 1, 64, 0)
	inter := tr.Control(0, 4, 64, 0)
	if inter <= intra {
		t.Fatal("inter-edge control must pay the core hop")
	}
	msgs, _ := tr.Stats()
	if msgs != 2 {
		t.Fatalf("stats %d", msgs)
	}
}

func TestTreeValidation(t *testing.T) {
	e := sim.NewEngine()
	good := TreeConfig{
		Host:                       Config{BandwidthBytesPerSec: 1e6, Latency: 1},
		PortsPerEdge:               2,
		UplinkBandwidthBytesPerSec: 1e6,
	}
	for _, fn := range []func(){
		func() { NewTree(e, 0, good) },
		func() {
			bad := good
			bad.PortsPerEdge = 0
			NewTree(e, 4, bad)
		},
		func() {
			bad := good
			bad.UplinkBandwidthBytesPerSec = 0
			NewTree(e, 4, bad)
		},
		func() {
			bad := good
			bad.CoreLatency = -1
			NewTree(e, 4, bad)
		},
		func() {
			tr := NewTree(e, 4, good)
			tr.Transfer(1, 1, 8)
		},
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

func TestFabricInterfaceCompliance(t *testing.T) {
	e := sim.NewEngine()
	var f Fabric = New(e, 2, Default100Mb())
	if f.Ports() != 2 {
		t.Fatal("switch as fabric")
	}
	f = NewTree(e, 4, TreeConfig{
		Host:                       Default100Mb(),
		PortsPerEdge:               2,
		UplinkBandwidthBytesPerSec: 9.5e6,
	})
	if f.Ports() != 4 {
		t.Fatal("tree as fabric")
	}
}
