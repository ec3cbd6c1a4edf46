package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const testLatency = 50 * sim.Microsecond

func newSwitch(ports int) (*sim.Engine, *Tree) {
	e := sim.NewEngine()
	return e, New(e, ports, Config{BandwidthBytesPerSec: 1e6, Latency: testLatency})
}

func TestSerializationTime(t *testing.T) {
	_, s := newSwitch(2)
	if got := s.SerializationTime(1_000_000); got != sim.Second {
		t.Fatalf("1MB at 1MB/s = %v", got)
	}
	if got := s.SerializationTime(0); got != 0 {
		t.Fatalf("0 bytes = %v", got)
	}
	if got := s.SerializationTime(-5); got != 0 {
		t.Fatalf("negative = %v", got)
	}
}

func TestSingleTransfer(t *testing.T) {
	_, s := newSwitch(2)
	start, deliver := s.Transfer(0, 1, 500_000) // 0.5s serialization
	if start != 0 {
		t.Fatalf("start = %v", start)
	}
	want := sim.Time(500*sim.Millisecond + 50*sim.Microsecond)
	if deliver != want {
		t.Fatalf("deliver = %v want %v", deliver, want)
	}
}

func TestBackToBackSendsSerializeOnTxLink(t *testing.T) {
	_, s := newSwitch(3)
	_, d1 := s.Transfer(0, 1, 1_000_000)
	start2, d2 := s.Transfer(0, 2, 1_000_000)
	// Second message waits for the first to leave the sender's link.
	if start2 != sim.Time(sim.Second) {
		t.Fatalf("start2 = %v", start2)
	}
	if d2.Sub(d1) != sim.Duration(sim.Second) {
		t.Fatalf("spacing = %v", d2.Sub(d1))
	}
}

func TestFanInSerializesOnRxLink(t *testing.T) {
	_, s := newSwitch(3)
	_, d1 := s.Transfer(1, 0, 1_000_000)
	start2, d2 := s.Transfer(2, 0, 1_000_000)
	// Different senders, same receiver: the receive link is the
	// bottleneck and deliveries are spaced by serialization time.
	if d2.Sub(d1) != sim.Duration(sim.Second) {
		t.Fatalf("fan-in spacing = %v", d2.Sub(d1))
	}
	if start2 >= d1 {
		t.Fatalf("pipelining lost: start2=%v d1=%v", start2, d1)
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	_, s := newSwitch(2)
	_, d1 := s.Transfer(0, 1, 1_000_000)
	_, d2 := s.Transfer(1, 0, 1_000_000)
	// Opposite directions share no link: both complete at the same time.
	if d1 != d2 {
		t.Fatalf("full duplex broken: %v vs %v", d1, d2)
	}
}

func TestDistinctPairsDoNotInterfere(t *testing.T) {
	_, s := newSwitch(4)
	_, d1 := s.Transfer(0, 1, 1_000_000)
	_, d2 := s.Transfer(2, 3, 1_000_000)
	if d1 != d2 {
		t.Fatalf("non-blocking switch violated: %v vs %v", d1, d2)
	}
}

func TestTransferAfterIdleStartsNow(t *testing.T) {
	e, s := newSwitch(2)
	s.Transfer(0, 1, 1000)
	e.Schedule(sim.Time(10*sim.Second), func() {
		start, _ := s.Transfer(0, 1, 1000)
		if start != sim.Time(10*sim.Second) {
			t.Errorf("start = %v", start)
		}
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	_, s := newSwitch(3)
	for i, tr := range []struct {
		src, dst        int
		size            int64
		wantMsgs, wantB int64
	}{
		{0, 1, 100, 1, 100},
		{1, 2, 200, 2, 300},
		{0, 2, 300, 3, 600},
	} {
		s.Transfer(tr.src, tr.dst, tr.size)
		if msgs, bytes := s.Stats(); msgs != tr.wantMsgs || bytes != tr.wantB {
			t.Fatalf("after transfer %d: stats = %d msgs %d bytes", i, msgs, bytes)
		}
	}
}

func TestBusyUntil(t *testing.T) {
	_, s := newSwitch(3)
	_, deliver := s.Transfer(0, 1, 1_000_000)
	// The sender's transmit link stays busy for the 1 s serialization:
	// a second send from port 0 at time 0 waits for it.
	if start, _ := s.Send(0, 2, 1000, 0); start != sim.Time(sim.Second) {
		t.Fatalf("tx link free at %v", start)
	}
	// The receiver's link stays busy until the first delivery: a later
	// arrival that reaches port 1 early queues behind it.
	if got := s.Accept(2, 1, 1000, 0); got != deliver.Add(s.SerializationTime(1000)) {
		t.Fatalf("rx link: deliver %v, first delivery %v", got, deliver)
	}
}

func TestPanics(t *testing.T) {
	e, s := newSwitch(2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("self transfer", func() { s.Transfer(0, 0, 10) })
	mustPanic("bad port", func() { s.Transfer(0, 5, 10) })
	mustPanic("zero ports", func() { New(e, 0, Default100Mb()) })
	mustPanic("bad bandwidth", func() { New(e, 2, Config{BandwidthBytesPerSec: 0}) })
	mustPanic("neg latency", func() {
		New(e, 2, Config{BandwidthBytesPerSec: 1, Latency: -1})
	})
}

func TestDefault100Mb(t *testing.T) {
	cfg := Default100Mb()
	// Effective bandwidth must be below the 12.5 MB/s raw line rate and
	// above half of it (TCP on 100 Mb does better than 50%).
	if cfg.BandwidthBytesPerSec <= 6.25e6 || cfg.BandwidthBytesPerSec >= 12.5e6 {
		t.Fatalf("bandwidth %v implausible", cfg.BandwidthBytesPerSec)
	}
	if cfg.Latency <= 0 || cfg.Latency > sim.Millisecond {
		t.Fatalf("latency %v implausible", cfg.Latency)
	}
}

// Property: deliveries respect causality and per-link ordering.
func TestTransferInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		e := sim.NewEngine()
		s := New(e, 4, Config{BandwidthBytesPerSec: 1e6, Latency: 10 * sim.Microsecond})
		lastDeliver := make(map[[2]int]sim.Time)
		ok := true
		for _, op := range ops {
			src := int(op % 4)
			dst := int((op / 4) % 4)
			if src == dst {
				continue
			}
			size := int64(op%1000) + 1
			start, deliver := s.Transfer(src, dst, size)
			if start < e.Now() {
				ok = false
			}
			if deliver < start.Add(s.SerializationTime(size)) {
				ok = false
			}
			// Per-pair FIFO: a later transfer never arrives earlier.
			key := [2]int{src, dst}
			if deliver < lastDeliver[key] {
				ok = false
			}
			lastDeliver[key] = deliver
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestControlBypassesLinkOccupancy(t *testing.T) {
	_, s := newSwitch(2)
	// Saturate the 0→1 direction with bulk data.
	_, bulkDeliver := s.Transfer(0, 1, 10_000_000) // 10s serialization
	// A control message in the same direction is not queued behind it.
	ctrlDeliver := s.Control(0, 1, 64, 0)
	if ctrlDeliver >= bulkDeliver {
		t.Fatalf("control queued behind bulk: %v vs %v", ctrlDeliver, bulkDeliver)
	}
	want := sim.Time(s.SerializationTime(64) + testLatency)
	if ctrlDeliver != want {
		t.Fatalf("control deliver %v want %v", ctrlDeliver, want)
	}
	// Control traffic still counts in the stats.
	msgs, _ := s.Stats()
	if msgs != 2 {
		t.Fatalf("stats msgs = %d", msgs)
	}
	if s.Ports() != 2 {
		t.Fatal("ports")
	}
}

func TestControlValidation(t *testing.T) {
	_, s := newSwitch(2)
	for _, fn := range []func(){
		func() { s.Control(0, 0, 8, 0) },
		func() { s.Control(0, 9, 8, 0) },
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

func TestGigabitConfig(t *testing.T) {
	g := Gigabit()
	if g.BandwidthBytesPerSec <= Default100Mb().BandwidthBytesPerSec*5 {
		t.Fatal("gigabit should be much faster than 100Mb")
	}
	if g.Latency >= Default100Mb().Latency {
		t.Fatal("gigabit latency should be lower")
	}
}
