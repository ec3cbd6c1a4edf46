package machine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/sim"
)

func newTestNode(t *testing.T) (*sim.Engine, *Node) {
	t.Helper()
	e := sim.NewEngine()
	return e, NewNode(e, 0, DefaultParams())
}

func run(t *testing.T, e *sim.Engine) sim.Time {
	t.Helper()
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestStateStrings(t *testing.T) {
	if len(States()) != int(numStates) {
		t.Fatal("States() incomplete")
	}
	for _, s := range States() {
		if s.String() == "" {
			t.Errorf("state %d has empty name", int(s))
		}
	}
	if State(42).String() != "state(42)" {
		t.Error("unknown state formatting")
	}
}

func TestBusyClassification(t *testing.T) {
	busy := map[State]bool{
		Idle: false, Compute: true, MemoryStall: true, Copy: true,
		Spin: true, Blocked: false, Switching: true,
	}
	for s, want := range busy {
		if s.countsBusy() != want {
			t.Errorf("%v countsBusy = %v want %v", s, s.countsBusy(), want)
		}
	}
}

func TestComputeDurationScalesWithFrequency(t *testing.T) {
	par := DefaultParams()
	var durations []sim.Duration
	for i := 0; i < par.Table.Len(); i++ {
		e := sim.NewEngine()
		n := NewNode(e, 0, par)
		i := i
		e.Spawn("w", func(p *sim.Proc) {
			n.SetOperatingPointIndex(p, i)
			start := p.Now()
			n.Compute(p, 1.4e9) // one second of work at full speed
			durations = append(durations, p.Now().Sub(start))
		})
		run(t, e)
	}
	// Slower clock always takes longer.
	for i := 1; i < len(durations); i++ {
		if durations[i] <= durations[i-1] {
			t.Fatalf("durations not increasing: %v", durations)
		}
	}
	// The 600 MHz point is close to (and slightly above) the pure 1/f
	// ratio of 2.333x — the paper's 134% slowdown.
	ratio := float64(durations[4]) / float64(durations[0])
	if ratio < 2.333 || ratio > 2.45 {
		t.Fatalf("600MHz compute slowdown %.4f outside [2.333, 2.45]", ratio)
	}
}

func TestMemoryRoundsWeaklyFrequencyDependent(t *testing.T) {
	par := DefaultParams()
	elapsed := func(opIdx int) sim.Duration {
		e := sim.NewEngine()
		n := NewNode(e, 0, par)
		var d sim.Duration
		e.Spawn("w", func(p *sim.Proc) {
			n.SetOperatingPointIndex(p, opIdx)
			start := p.Now()
			n.MemoryRounds(p, 1_000_000)
			d = p.Now().Sub(start)
		})
		run(t, e)
		return d
	}
	fast, slow := elapsed(0), elapsed(par.Table.Len()-1)
	ratio := float64(slow) / float64(fast)
	// Paper Fig. 6: only ~5.4% slower at 600 MHz.
	if ratio < 1.02 || ratio > 1.10 {
		t.Fatalf("memory slowdown %.4f outside [1.02, 1.10]", ratio)
	}
}

func TestEnergyIntegration(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.Compute(p, 1.4e9) // ~1s at 1.4GHz
	})
	end := run(t, e)
	total := n.EnergyAt(end)
	// At full tilt the node draws CPU (22 + leak ~1.1) + base ~8.6 W;
	// for ~1s expect ~32 J.
	if total < 25 || total > 40 {
		t.Fatalf("compute-second energy %.2f J implausible", float64(total))
	}
	// Components sum to the total.
	var sum power.Joules
	for _, c := range power.Components() {
		sum += n.ComponentEnergyAt(c, end)
	}
	if math.Abs(float64(sum-total)) > 1e-9 {
		t.Fatalf("component sum %v != total %v", sum, total)
	}
	// CPU dominates during compute.
	if n.ComponentEnergyAt(power.CPU, end) < total/2 {
		t.Fatal("CPU should dominate compute energy")
	}
}

func TestIdleDrawsLess(t *testing.T) {
	par := DefaultParams()
	energy := func(body func(p *sim.Proc, n *Node)) power.Joules {
		e := sim.NewEngine()
		n := NewNode(e, 0, par)
		e.Spawn("w", func(p *sim.Proc) { body(p, n) })
		end := run(t, e)
		return n.EnergyAt(end)
	}
	busy := energy(func(p *sim.Proc, n *Node) { n.Compute(p, 1.4e9) })
	idle := energy(func(p *sim.Proc, n *Node) { n.IdleFor(p, sim.Second) })
	if idle >= busy/2 {
		t.Fatalf("idle energy %v not well below busy %v", idle, busy)
	}
	if idle <= 0 {
		t.Fatal("idle energy must be positive (base draw)")
	}
}

func TestMemoryStateActivatesDRAMPower(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.SetState(MemoryStall)
		before := n.Power()
		p.Sleep(sim.Millisecond)
		n.SetState(Idle)
		after := n.Power()
		if before <= after {
			t.Errorf("memory-stall power %v not above idle %v", before, after)
		}
	})
	run(t, e)
}

// nicStep is one step of a NICBusy scenario, at time at (in ns): book
// the window [from, to], or, when to is zero, read the NIC and expect
// it busy or idle.
type nicStep struct {
	at, from, to sim.Time
	busy         bool
}

func TestNICBusy(t *testing.T) {
	book := func(at, from, to sim.Time) nicStep { return nicStep{at: at, from: from, to: to} }
	read := func(at sim.Time, busy bool) nicStep { return nicStep{at: at, busy: busy} }
	cases := []struct {
		name  string
		steps []nicStep
		// splits are the instants at which the NIC's open-window count
		// goes between zero and one: every component's integral must be
		// split there, and nowhere else.
		splits []sim.Time
	}{
		{"single window", []nicStep{
			book(0, 1_013, 2_029), read(500, false),
			read(1_013, false), // an edge's own instant: power from before it
			read(1_500, true), read(2_029, true), read(2_500, false),
		}, []sim.Time{1_013, 2_029}},
		{"zero-length window", []nicStep{
			book(0, 1_013, 1_013), read(1_013, false), read(1_500, false),
		}, nil},
		{"overlapping windows", []nicStep{
			book(0, 1_013, 3_041), book(0, 2_029, 4_057),
			read(2_500, true), read(3_500, true), read(4_057, true), read(4_500, false),
		}, []sim.Time{1_013, 4_057}},
		{"touching windows", []nicStep{
			book(0, 1_013, 2_029), book(0, 2_029, 3_041),
			read(2_029, true), read(2_500, true), read(3_500, false),
		}, []sim.Time{1_013, 2_029, 2_029, 3_041}},
		{"window booked before pending ones", []nicStep{
			book(0, 1_013, 2_029), book(0, 3_041, 4_057),
			book(500, 601, 709), // lands ahead of the two still pending
			read(650, true), read(800, false), read(1_500, true),
			read(2_500, false), read(3_500, true), read(4_500, false),
		}, []sim.Time{601, 709, 1_013, 2_029, 3_041, 4_057}},
		{"equal times in booking order", []nicStep{
			// A split at 1611 would change the board energy's last bit.
			book(0, 1_611, 2_029),
			book(500, 601, 1_611), // its end follows the first window's start
			read(800, true), read(1_611, true), read(1_800, true), read(2_500, false),
		}, []sim.Time{601, 2_029}},
	}
	par := DefaultParams()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, n := newTestNode(t)
			end := sim.Time(5_003)
			e.Spawn("w", func(p *sim.Proc) {
				idleTotal := n.Power()
				for _, st := range tc.steps {
					p.Sleep(st.at.Sub(p.Now()))
					if st.to != 0 {
						n.NICBusy(st.from, st.to)
						continue
					}
					want := par.NICIdle
					if st.busy {
						want += par.NICActive
					}
					if got := n.ComponentPowers()[power.NIC]; got != want {
						t.Errorf("NIC draw at %dns = %v, want %v", st.at, got, want)
					}
					if d := float64(n.Power() - idleTotal - (want - par.NICIdle)); math.Abs(d) > 1e-9 {
						t.Errorf("node draw at %dns is %v off the NIC delta", st.at, d)
					}
				}
				p.Sleep(end.Sub(p.Now()))
			})
			run(t, e)

			// Replay the expected splits on bare integrators: the node's
			// energies must match bit for bit.
			var board, nic power.Integrator
			board.SetPower(0, par.BoardIdle)
			nic.SetPower(0, par.NICIdle)
			busy := false
			for _, at := range tc.splits {
				busy = !busy
				w := par.NICIdle
				if busy {
					w += par.NICActive
				}
				board.SetPower(at, par.BoardIdle)
				nic.SetPower(at, w)
			}
			if got, want := n.ComponentEnergyAt(power.Board, end), board.EnergyAt(end); got != want {
				t.Errorf("board energy %v (%#x), want %v (%#x) from splits %d",
					got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)), tc.splits)
			}
			if got, want := n.ComponentEnergyAt(power.NIC, end), nic.EnergyAt(end); got != want {
				t.Errorf("NIC energy %v, want %v from splits %d", got, want, tc.splits)
			}
			if len(n.nicEdges) != 0 || n.nicOpen != 0 {
				t.Errorf("after the run: %d edges pending, %d windows open", len(n.nicEdges), n.nicOpen)
			}
		})
	}
}

func TestUtilizationAccounting(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.SetState(Compute)
		p.Sleep(300 * sim.Millisecond)
		n.SetState(Blocked)
		p.Sleep(500 * sim.Millisecond)
		n.SetState(Spin)
		p.Sleep(200 * sim.Millisecond)
		n.SetState(Idle)
	})
	end := run(t, e)
	busy, idle := n.Utilization()
	if busy != 500*sim.Millisecond {
		t.Fatalf("busy = %v", busy)
	}
	if idle != 500*sim.Millisecond {
		t.Fatalf("idle = %v", idle)
	}
	if busy+idle != end.Sub(0) {
		t.Fatalf("busy+idle %v != elapsed %v", busy+idle, end)
	}
	if n.StateTime(Compute) != 300*sim.Millisecond || n.StateTime(Spin) != 200*sim.Millisecond {
		t.Fatalf("state times: compute=%v spin=%v", n.StateTime(Compute), n.StateTime(Spin))
	}
}

func TestUtilizationIncludesOpenInterval(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.SetState(Compute)
		p.Sleep(100 * sim.Millisecond)
		// Query mid-state: the open interval counts.
		busy, _ := n.Utilization()
		if busy != 100*sim.Millisecond {
			t.Errorf("busy mid-state = %v", busy)
		}
		if st := n.StateTime(Compute); st != 100*sim.Millisecond {
			t.Errorf("StateTime mid-state = %v", st)
		}
		n.SetState(Idle)
	})
	run(t, e)
}

func TestDVSTransitionCostsAndLog(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		n.SetOperatingPointIndex(p, 4)
		if d := p.Now().Sub(start); d != DefaultParams().Transition.Latency {
			t.Errorf("transition stall = %v", d)
		}
		if n.OperatingPoint().Freq != 600*dvfs.MHz {
			t.Errorf("op = %v", n.OperatingPoint())
		}
		n.SetOperatingPointIndex(p, 4) // no-op: same point
		n.SetFrequency(p, 1000*dvfs.MHz)
	})
	run(t, e)
	if n.Transitions() != 2 {
		t.Fatalf("transitions = %d", n.Transitions())
	}
	log := n.FreqLog()
	if len(log) != 2 || log[0].To.Freq != 600*dvfs.MHz || log[1].To.Freq != 1000*dvfs.MHz {
		t.Fatalf("freq log = %+v", log)
	}
	if log[0].From.Freq != 1400*dvfs.MHz {
		t.Fatalf("log from = %v", log[0].From)
	}
}

func TestAsyncTransition(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.SetState(Spin)
		p.Sleep(sim.Second)
		n.SetState(Idle)
	})
	e.Schedule(sim.Time(200*sim.Millisecond), func() {
		n.SetOperatingPointIndexAsync(4)
	})
	run(t, e)
	if n.OPIndex() != 4 {
		t.Fatal("async transition did not apply")
	}
	// The spin state must have been restored after the switch stall so
	// that nearly the whole second books as spin.
	if st := n.StateTime(Spin); st < 990*sim.Millisecond {
		t.Fatalf("spin time %v; switching stall mishandled", st)
	}
	if st := n.StateTime(Switching); st != DefaultParams().Transition.Latency {
		t.Fatalf("switching time %v", st)
	}
}

func TestAsyncTransitionDoesNotStompNewState(t *testing.T) {
	e, n := newTestNode(t)
	e.Schedule(sim.Time(0), func() { n.SetOperatingPointIndexAsync(4) })
	// Workload changes state during the 10µs transition window.
	e.Schedule(sim.Time(5*sim.Microsecond), func() { n.SetState(Compute) })
	e.Schedule(sim.Time(sim.Second), func() { n.SetState(Idle) })
	run(t, e)
	// The delayed restore must not overwrite Compute back to Switching's
	// saved state.
	if got := n.StateTime(Compute); got != sim.Duration(sim.Second)-5*sim.Microsecond {
		t.Fatalf("compute time %v", got)
	}
}

func TestOutOfRangeOperatingPointErrors(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		if err := n.SetOperatingPointIndex(p, 99); err == nil {
			t.Error("expected error for index 99")
		}
		if err := n.SetOperatingPointIndexAsync(-1); err == nil {
			t.Error("expected error for index -1")
		}
		// A failed switch must not have moved the operating point or
		// logged a transition.
		if n.Transitions() != 0 {
			t.Errorf("transitions = %d after failed switches", n.Transitions())
		}
	})
	run(t, e)
}

func TestLowerFrequencyLowersPower(t *testing.T) {
	par := DefaultParams()
	for _, st := range []State{Compute, MemoryStall, Spin, Blocked, Idle} {
		var prev power.Watts
		for i := 0; i < par.Table.Len(); i++ {
			e := sim.NewEngine()
			n := NewNode(e, 0, par)
			var got power.Watts
			i := i
			e.Spawn("w", func(p *sim.Proc) {
				n.SetOperatingPointIndex(p, i)
				n.SetState(st)
				got = n.Power()
				n.SetState(Idle)
			})
			run(t, e)
			if i > 0 && got >= prev {
				t.Errorf("state %v: power %v at point %d not below %v", st, got, i, prev)
			}
			prev = got
		}
	}
}

// Property: energy through any prefix is nondecreasing and the busy/idle
// split always covers elapsed time exactly.
func TestAccountingInvariantProperty(t *testing.T) {
	par := DefaultParams()
	f := func(ops []uint8) bool {
		if len(ops) > 30 {
			ops = ops[:30]
		}
		e := sim.NewEngine()
		n := NewNode(e, 0, par)
		ok := true
		e.Spawn("w", func(p *sim.Proc) {
			var lastE power.Joules
			for _, op := range ops {
				switch op % 5 {
				case 0:
					n.Compute(p, float64(op)*1e5+1)
				case 1:
					n.MemoryRounds(p, int64(op)*100+1)
				case 2:
					n.L2Rounds(p, int64(op)*1000+1)
				case 3:
					n.IdleFor(p, sim.Duration(op)*sim.Microsecond)
				case 4:
					n.SetOperatingPointIndex(p, int(op)%par.Table.Len())
				}
				eNow := n.EnergyAt(p.Now())
				if eNow < lastE {
					ok = false
				}
				lastE = eNow
				busy, idle := n.Utilization()
				if busy+idle != p.Now().Sub(0) {
					ok = false
				}
			}
		})
		if _, err := e.Run(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAccessors(t *testing.T) {
	e, n := newTestNode(t)
	if n.ID() != 0 || n.Engine() != e || n.State() != Idle {
		t.Fatal("accessors")
	}
	if n.Params().CPUDynAtTop != DefaultParams().CPUDynAtTop {
		t.Fatal("params")
	}
	want := DefaultParams().BoardIdle + DefaultParams().MemoryIdle +
		DefaultParams().DiskIdle + DefaultParams().NICIdle
	if got := DefaultParams().NonCPUIdle(); got != want {
		t.Fatalf("NonCPUIdle = %v want %v", got, want)
	}
}

func TestComputeFlops(t *testing.T) {
	e, n := newTestNode(t)
	var d sim.Duration
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		n.ComputeFlops(p, 1.4e9) // at 1 flop/cycle this is ~1s at 1.4GHz
		d = p.Now().Sub(start)
	})
	run(t, e)
	if d < 990*sim.Millisecond || d > 1010*sim.Millisecond {
		t.Fatalf("1.4 Gflop took %v", d)
	}
}

func TestCopyBytesAndCycles(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		n.CopyBytes(p, 1<<20) // 1 MB
		d := p.Now().Sub(start)
		// 16384 lines × (6.5 cycles/1.4GHz + 27.5ns) ≈ 0.53ms.
		if d < 300*sim.Microsecond || d > 900*sim.Microsecond {
			t.Errorf("1MB copy took %v", d)
		}
		n.CopyBytes(p, 0) // no-op
	})
	run(t, e)
	if ct := n.StateTime(Copy); ct <= 0 {
		t.Fatal("copy state never booked")
	}
}

func TestComponentPower(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		w := n.ComponentPowers()
		var sum power.Watts
		for _, c := range power.Components() {
			sum += w[c]
		}
		if sum != n.Power() {
			t.Errorf("component powers %v != total %v", sum, n.Power())
		}
		if w[power.Board] != DefaultParams().BoardIdle {
			t.Error("board power")
		}
	})
	run(t, e)
}

// TestComponentPowersMatchesSeparateReads: ComponentPowers settles the
// node once and must read what separately settling reads do: the same
// draws, the same State, and an in-order sum equal to Power bit for
// bit. Twin nodes run one script and are read once each at the same
// instant, one through ComponentPowers and then State and Power, the
// other through State, Power and one settled read per component, as
// the trace recorder read a node before. The script books NIC windows
// before, across, ending at and starting at the fall of a spin that
// falls at 1,100 ns.
func TestComponentPowersMatchesSeparateReads(t *testing.T) {
	type reading struct {
		state State
		total power.Watts
		draws [power.NumComponents]power.Watts
	}
	read := func(t *testing.T, at sim.Time, one bool) reading {
		e, n := newTestNode(t)
		var r reading
		e.Spawn("w", func(p *sim.Proc) {
			for _, w := range [][2]sim.Time{{50, 300}, {900, 1_500}, {1_050, 1_100}, {1_100, 1_150}} {
				n.NICBusy(w[0], w[1])
			}
			p.SleepUntil(40)
			n.SetState(Compute)
			p.SleepUntil(100)
			n.SpinFor(1_000)
			p.SleepUntil(at)
			if one {
				r.draws = n.ComponentPowers()
				r.state = n.State()
				r.total = n.Power()
				return
			}
			r.state = n.State()
			r.total = n.Power()
			for c := range r.draws {
				n.settle()
				r.draws[c] = n.integ[c].Power()
			}
		})
		run(t, e)
		return r
	}
	par := DefaultParams()
	cases := []struct {
		name    string
		at      sim.Time
		state   State
		nicBusy bool
	}{
		{"at a NIC edge's own instant", 300, Spin, true},
		{"strictly after a NIC edge", 301, Spin, false},
		{"at the fall's own instant, on NIC edges", 1_100, Spin, true},
		{"after a due spin fall", 1_101, Blocked, true},
		{"after a due fall and the edges past it", 1_600, Blocked, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			one, sep := read(t, tc.at, true), read(t, tc.at, false)
			if one.state != tc.state || sep.state != tc.state {
				t.Errorf("state %v after ComponentPowers, %v from the separate reads; want %v", one.state, sep.state, tc.state)
			}
			for c, w := range one.draws {
				if math.Float64bits(float64(w)) != math.Float64bits(float64(sep.draws[c])) {
					t.Errorf("%v draw %v, want the separate read's %v", power.Component(c), w, sep.draws[c])
				}
			}
			var sum power.Watts
			for _, w := range one.draws {
				sum += w
			}
			for _, total := range []power.Watts{one.total, sep.total} {
				if math.Float64bits(float64(sum)) != math.Float64bits(float64(total)) {
					t.Errorf("in-order sum %v (%#x), Power %v (%#x)", sum, math.Float64bits(float64(sum)), total, math.Float64bits(float64(total)))
				}
			}
			nic := par.NICIdle
			if tc.nicBusy {
				nic += par.NICActive
			}
			if one.draws[power.NIC] != nic {
				t.Errorf("NIC draw %v, want %v", one.draws[power.NIC], nic)
			}
		})
	}
}

func TestZeroWorkIsFree(t *testing.T) {
	e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		n.MemoryRounds(p, 0)
		n.MemoryRounds(p, -3)
		n.L2Rounds(p, 0)
		n.Compute(p, 0)
		n.Compute(p, -1)
		if p.Now() != start {
			t.Error("zero work consumed time")
		}
	})
	run(t, e)
}

func TestLowPowerParams(t *testing.T) {
	lp := LowPowerParams()
	if lp.Table.Len() != 1 {
		t.Fatal("low-power node must have a single operating point")
	}
	if lp.Table.Highest().Freq != 667*dvfs.MHz {
		t.Fatalf("freq %v", lp.Table.Highest().Freq)
	}
	// A low-power node under full load draws far less than the
	// Pentium M node...
	e := sim.NewEngine()
	n := NewNode(e, 0, lp)
	n.SetState(Compute)
	lpPower := n.Power()
	e2 := sim.NewEngine()
	n2 := NewNode(e2, 0, DefaultParams())
	n2.SetState(Compute)
	if lpPower >= n2.Power()/2 {
		t.Fatalf("low-power node draws %v vs %v", lpPower, n2.Power())
	}
	// ...but also computes much more slowly.
	if lp.Table.Highest().CyclesToDuration(1e9) <= DefaultParams().Table.Highest().CyclesToDuration(1e9) {
		t.Fatal("low-power node should be slower")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := LowPowerParams().Validate(); err != nil {
		t.Fatal(err)
	}
	breakers := []func(*Params){
		func(p *Params) { p.CPUDynAtTop = 0 },
		func(p *Params) { p.CPULeakPerV2 = -1 },
		func(p *Params) { p.CPUIdleActivity = 2 },
		func(p *Params) { p.ActivityCompute = 0 },
		func(p *Params) { p.MemLatency = 0 },
		func(p *Params) { p.L2CyclesPerAccess = 0 },
		func(p *Params) { p.FlopsPerCycle = 0 },
		func(p *Params) { p.Transition.Latency = -1 },
		func(p *Params) { p.BoardIdle = -1 },
		func(p *Params) { p.NICActive = -1 },
	}
	for i, brk := range breakers {
		p := DefaultParams()
		brk(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("breaker %d: expected error", i)
		}
	}
}
