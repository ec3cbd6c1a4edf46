package meter

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
)

// fixture: a node burning CPU for the given duration, with battery and
// strip attached.
func runFixture(t *testing.T, workSeconds float64, refresh, stripInterval sim.Duration) (*machine.Node, *ACPIBattery, *BaytechStrip, sim.Time) {
	t.Helper()
	g := sim.NewGroup(1, sim.Millisecond)
	defer g.Close()
	n := machine.NewNode(g.Engine(0), 0, machine.DefaultParams())
	done := false
	bat := NewACPIBattery(n, DefaultBatteryCapacityMWh, refresh)
	bat.Spawn(func() bool { return done })
	strip := NewBaytechStrip([]*machine.Node{n}, stripInterval)
	strip.Spawn(g, func() bool { return done })
	var endOfWork sim.Time
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		n.Compute(p, 1.4e9*workSeconds)
		endOfWork = p.Now()
		done = true
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	return n, bat, strip, endOfWork
}

func TestBatteryReadingsQuantizedAndMonotone(t *testing.T) {
	_, bat, _, _ := runFixture(t, 120, 17*sim.Second, sim.Minute)
	rs := bat.Readings()
	if len(rs) < 6 {
		t.Fatalf("only %d readings", len(rs))
	}
	for i, r := range rs {
		if r.Remaining != math.Floor(r.Remaining) {
			t.Fatalf("reading %d not whole mWh: %v", i, r.Remaining)
		}
		if i > 0 && r.Remaining > rs[i-1].Remaining {
			t.Fatalf("capacity increased at %d", i)
		}
	}
	if rs[0].Remaining != DefaultBatteryCapacityMWh {
		t.Fatalf("initial reading %v", rs[0].Remaining)
	}
}

func TestBatteryEnergyEstimateCloseToTruth(t *testing.T) {
	// Long run (as the paper prescribes) keeps relative error small.
	n, bat, _, end := runFixture(t, 600, 17*sim.Second, sim.Minute)
	est, ok := bat.EnergyBetween(0, end)
	if !ok {
		t.Fatal("no bracketing readings")
	}
	truth := n.EnergyAt(end)
	rel := math.Abs(float64(est-truth)) / float64(truth)
	// Error budget: one refresh of power (~17s*31W ≈ 530J) plus 2 mWh
	// quantization against ~19kJ → under 4%.
	if rel > 0.04 {
		t.Fatalf("relative error %.3f (est %v truth %v)", rel, est, truth)
	}
}

func TestBatteryEnergyBetweenRequiresBracketing(t *testing.T) {
	_, bat, _, end := runFixture(t, 30, 17*sim.Second, sim.Minute)
	if _, ok := bat.EnergyBetween(0, end.Add(sim.Hour)); ok {
		t.Fatal("should not bracket past the last reading")
	}
	if _, ok := bat.EnergyBetween(-5, end); ok {
		// Readings start at t=0, so a start before that has no
		// "at or before" reading.
		t.Fatal("should not bracket before the first reading")
	}
}

func TestBatteryExhaustion(t *testing.T) {
	e := sim.NewEngine()
	n := machine.NewNode(e, 0, machine.DefaultParams())
	done := false
	// Tiny battery: 1 mWh = 3.6 J, gone in well under a second at ~31 W.
	bat := NewACPIBattery(n, 2, 100*sim.Millisecond)
	bat.Spawn(func() bool { return done })
	e.Spawn("app", func(p *sim.Proc) {
		n.Compute(p, 1.4e9) // ~1 s
		done = true
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !bat.Exhausted() {
		t.Fatal("battery should have exhausted")
	}
}

func TestBaytechAveragePower(t *testing.T) {
	n, _, strip, _ := runFixture(t, 300, 17*sim.Second, sim.Minute)
	recs := strip.Records()
	if len(recs) < 4 {
		t.Fatalf("only %d records", len(recs))
	}
	// During steady full-tilt compute the average equals the
	// instantaneous draw.
	want := float64(n.Power()) // node is idle at the end; compare mid-run record instead
	_ = want
	mid := recs[1]
	if mid.AvgW < 25 || mid.AvgW > 40 {
		t.Fatalf("mid-run average power %v implausible", mid.AvgW)
	}
	if mid.Outlet != 0 {
		t.Fatalf("outlet = %d", mid.Outlet)
	}
}

func TestBaytechEnergyIntegration(t *testing.T) {
	n, _, strip, end := runFixture(t, 300, 17*sim.Second, sim.Minute)
	est, ok := strip.EnergyBetween(0, 0, end)
	if !ok {
		t.Fatal("no coverage")
	}
	truth := n.EnergyAt(end)
	rel := math.Abs(float64(est-truth)) / float64(truth)
	// The last partial minute is missing (records land on poll
	// boundaries); with a 5-minute run that bounds error around 20%.
	// Integrating to the last record boundary instead is exact:
	recs := strip.Records()
	lastAt := recs[len(recs)-1].At
	est2, ok2 := strip.EnergyBetween(0, 0, lastAt)
	if !ok2 {
		t.Fatal("no coverage to last record")
	}
	truth2 := n.EnergyAt(lastAt)
	rel2 := math.Abs(float64(est2-truth2)) / float64(truth2)
	if rel2 > 1e-6 {
		t.Fatalf("aligned integration error %.6f", rel2)
	}
	if rel > 0.5 {
		t.Fatalf("unaligned integration wildly off: %.3f", rel)
	}
}

func TestCrossValidationACPIvsBaytech(t *testing.T) {
	// The paper's redundancy check: both instruments agree on energy.
	_, bat, strip, _ := runFixture(t, 600, 17*sim.Second, sim.Minute)
	// Compare up to the last strip record a battery reading brackets:
	// the two instruments stop on their own poll grids.
	rs := bat.Readings()
	var lastAt sim.Time
	for _, r := range strip.Records() {
		if r.At <= rs[len(rs)-1].At {
			lastAt = r.At
		}
	}
	acpi, ok1 := bat.EnergyBetween(0, lastAt)
	bay, ok2 := strip.EnergyBetween(0, 0, lastAt)
	if !ok1 || !ok2 {
		t.Fatal("missing coverage")
	}
	rel := math.Abs(float64(acpi-bay)) / float64(bay)
	if rel > 0.05 {
		t.Fatalf("instruments disagree by %.3f (acpi %v baytech %v)", rel, acpi, bay)
	}
}

func TestMeterConstructorsValidate(t *testing.T) {
	e := sim.NewEngine()
	n := machine.NewNode(e, 0, machine.DefaultParams())
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero capacity", func() { NewACPIBattery(n, 0, sim.Second) })
	mustPanic("zero refresh", func() { NewACPIBattery(n, 100, 0) })
	mustPanic("empty strip", func() { NewBaytechStrip(nil, sim.Minute) })
	mustPanic("zero interval", func() { NewBaytechStrip([]*machine.Node{n}, 0) })
}

func TestReadingsAreCopies(t *testing.T) {
	_, bat, strip, _ := runFixture(t, 60, 17*sim.Second, sim.Minute)
	rs := bat.Readings()
	rs[0].Remaining = -1
	if bat.Readings()[0].Remaining == -1 {
		t.Fatal("Readings leaked internal slice")
	}
	recs := strip.Records()
	if len(recs) > 0 {
		recs[0].AvgW = power.Watts(-1)
		if strip.Records()[0].AvgW == -1 {
			t.Fatal("Records leaked internal slice")
		}
	}
}
