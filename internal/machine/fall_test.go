package machine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/sim"
)

// fallStep is one step of a spin script: at time at, the node enters
// Spin through SpinFor(spin) (when spinFor is set), switches to state
// set (when setState is set), and is read.
type fallStep struct {
	at       sim.Time
	spinFor  bool
	spin     sim.Duration
	setState bool
	set      State
}

// runFallScript runs steps on a fresh node with the given NIC windows
// booked at the epoch, and returns the node and, per step, its state
// and draw as read after the step's action. With explicit set, every
// SpinFor is replaced by SetState(Spin) and the fall it books by a
// RestoreState(token, Blocked) event at the booked instant, scheduled
// only where SpinFor books one: the twin a lazy fall must match.
func runFallScript(t *testing.T, explicit bool, windows [][2]sim.Time, steps []fallStep, end sim.Time) (*Node, []string) {
	t.Helper()
	e, n := newTestNode(t)
	var reads []string
	e.Spawn("w", func(p *sim.Proc) {
		for _, w := range windows {
			n.NICBusy(w[0], w[1])
		}
		var booked uint64
		for _, st := range steps {
			p.SleepUntil(st.at)
			switch {
			case st.spinFor && explicit:
				n.SetState(Spin)
				if tok := n.StateToken(); st.spin >= 0 && tok != booked {
					booked = tok
					e.After(st.spin, func() { n.RestoreState(tok, Blocked) })
				}
			case st.spinFor:
				n.SpinFor(st.spin)
			case st.setState:
				n.SetState(st.set)
			}
			reads = append(reads, fmt.Sprintf("%v %x@%d", n.State(), math.Float64bits(float64(n.Power())), p.Now()))
		}
		p.SleepUntil(end)
	})
	run(t, e)
	return n, reads
}

// TestSpinForMatchesExplicitFall: the fall SpinFor books as node data
// matches, bit for bit, a twin whose fall is an explicit RestoreState
// event at the same instant. NIC windows lie before, across and after
// the fall, and start and end at its instant. No read lies on the
// fall's own instant, where the two differ by design (TestSpinForFall).
func TestSpinForMatchesExplicitFall(t *testing.T) {
	windows := [][2]sim.Time{
		{50, 300},      // before the spin
		{900, 1_500},   // across the fall at 1,100
		{1_100, 1_150}, // starts at the fall
		{1_050, 1_100}, // ends at it
		{1_700, 1_900}, // after it, inside the Blocked wait
		{2_500, 2_700}, // after the wait
	}
	spin := func(at sim.Time, d sim.Duration) fallStep { return fallStep{at: at, spinFor: true, spin: d} }
	set := func(at sim.Time, s State) fallStep { return fallStep{at: at, setState: true, set: s} }
	read := func(at sim.Time) fallStep { return fallStep{at: at} }
	cases := []struct {
		name  string
		steps []fallStep
	}{
		{"one wait", []fallStep{
			set(40, Compute), spin(100, 1_000), read(600), read(1_101), read(1_600), set(2_000, Idle),
		}},
		{"fall applied by the wait's end", []fallStep{
			set(40, Compute), spin(100, 1_000), set(2_000, Idle),
		}},
		{"second wait in the same spin", []fallStep{
			spin(100, 1_000), spin(700, 1_000), read(1_099), read(1_200), read(1_800), set(2_000, Idle),
		}},
		{"wait ends before the fall", []fallStep{
			spin(100, 1_000), set(1_000, Copy), read(1_200), spin(1_300, 200), read(1_499), read(1_501), set(2_000, Idle),
		}},
		{"spin entered by SetState", []fallStep{
			set(100, Spin), spin(300, 800), read(1_099), read(1_101), set(2_000, Idle),
		}},
		{"spin forever", []fallStep{
			spin(100, -1), read(1_101), read(3_000), set(3_500, Idle),
		}},
	}
	const end = 4_001
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lazy, lazyReads := runFallScript(t, false, windows, tc.steps, end)
			twin, twinReads := runFallScript(t, true, windows, tc.steps, end)
			if got, want := fmt.Sprint(lazyReads), fmt.Sprint(twinReads); got != want {
				t.Errorf("reads %s, want the twin's %s", got, want)
			}
			for _, c := range power.Components() {
				got, want := lazy.ComponentEnergyAt(c, end), twin.ComponentEnergyAt(c, end)
				if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Errorf("%v energy %v, want the twin's %v", c, got, want)
				}
			}
			lb, li := lazy.Utilization()
			tb, ti := twin.Utilization()
			if lb != tb || li != ti {
				t.Errorf("busy/idle %v/%v, want the twin's %v/%v", lb, li, tb, ti)
			}
			for _, s := range States() {
				if got, want := lazy.StateTime(s), twin.StateTime(s); got != want {
					t.Errorf("%v time %v, want the twin's %v", s, got, want)
				}
			}
		})
	}
}

// TestSpinForFall pins each booking rule by the time the node spends
// spinning and blocked and the state read at each step.
func TestSpinForFall(t *testing.T) {
	spin := func(at sim.Time, d sim.Duration) fallStep { return fallStep{at: at, spinFor: true, spin: d} }
	set := func(at sim.Time, s State) fallStep { return fallStep{at: at, setState: true, set: s} }
	read := func(at sim.Time) fallStep { return fallStep{at: at} }
	cases := []struct {
		name          string
		steps         []fallStep
		states        string // State() after each step
		spin, blocked sim.Duration
	}{
		{"falls strictly after its instant", []fallStep{
			spin(100, 1_000), read(1_100), read(1_101), set(2_000, Idle),
		}, "[spin spin blocked idle]", 1_000, 900},
		{"a state change before the fall cancels it", []fallStep{
			spin(100, 1_000), set(600, Copy), set(700, Spin), read(1_101), set(2_000, Idle),
		}, "[spin copy spin spin idle]", 1_800, 0},
		{"a second SpinFor keeps the first booking", []fallStep{
			spin(100, 1_000), spin(500, 1_000), read(1_101), set(2_000, Idle),
		}, "[spin spin blocked idle]", 1_000, 900},
		{"a shorter second SpinFor keeps it too", []fallStep{
			spin(100, 1_000), spin(500, 100), read(601), set(2_000, Idle),
		}, "[spin spin spin idle]", 1_000, 900},
		{"a Spin entered by SetState is booked by its first SpinFor", []fallStep{
			set(100, Spin), spin(300, 1_000), spin(400, 10), read(1_300), read(1_301), set(2_000, Idle),
		}, "[spin spin spin spin blocked idle]", 1_200, 700},
		{"negative d never falls", []fallStep{
			spin(100, -1), read(1_000_000), set(1_000_100, Idle),
		}, "[spin spin idle]", 1_000_000, 0},
		{"a new spin after a fall books again", []fallStep{
			spin(100, 50), read(200), set(300, Idle), spin(400, 50), read(451), set(500, Idle),
		}, "[spin blocked idle spin blocked idle]", 100, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, reads := runFallScript(t, false, nil, tc.steps, 0)
			states := make([]string, len(reads))
			for i, r := range reads {
				fmt.Sscan(r, &states[i])
			}
			if got := fmt.Sprint(states); got != tc.states {
				t.Errorf("states %s, want %s", got, tc.states)
			}
			if got := n.StateTime(Spin); got != tc.spin {
				t.Errorf("spin time %v, want %v", got, tc.spin)
			}
			if got := n.StateTime(Blocked); got != tc.blocked {
				t.Errorf("blocked time %v, want %v", got, tc.blocked)
			}
		})
	}
}

// TestTransitionRestoresTheFall: a DVS transition that starts after a
// booked fall's instant, before anything applied the fall, restores
// Blocked once its stall ends, as it would had the fall been an event.
func TestTransitionRestoresTheFall(t *testing.T) {
	lat := DefaultParams().Transition.Latency
	for _, async := range []bool{false, true} {
		e, n := newTestNode(t)
		e.Spawn("wait", func(p *sim.Proc) {
			n.SpinFor(1_000)
			p.Sleep(sim.Millisecond)
			n.SetState(Idle)
		})
		if async {
			e.Schedule(2_000, func() { n.SetOperatingPointIndexAsync(4) })
		} else {
			e.Spawn("switch", func(p *sim.Proc) {
				p.Sleep(2_000)
				n.SetOperatingPointIndex(p, 4)
			})
		}
		run(t, e)
		spin, blocked, switching := n.StateTime(Spin), n.StateTime(Blocked), n.StateTime(Switching)
		if spin != 1_000 || switching != lat || blocked != sim.Millisecond-1_000-lat {
			t.Errorf("async %v: spin %v, blocked %v, switching %v; want 1µs, %v, %v", async, spin, blocked, switching, sim.Millisecond-1_000-lat, lat)
		}
	}
}
