package cluster

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/dvs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// quickConfig is a fast apparatus for mechanics tests: short settle,
// one repetition.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Settle = 30 * sim.Second
	cfg.Reps = 1
	cfg.UseTrueEnergy = true
	return cfg
}

func TestRunOnceBasics(t *testing.T) {
	r := MustRunner(quickConfig())
	res, err := r.RunOnce(workloads.NewSwim(50), dvs.Static{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 {
		t.Fatal("no delay")
	}
	if res.EnergyTrue <= 0 {
		t.Fatal("no energy")
	}
	if res.Workload != "swim" || res.Strategy != "static" || res.Label != "1.4GHz" {
		t.Fatalf("labels: %+v", res)
	}
	if res.Freq != 1400*dvfs.MHz {
		t.Fatalf("freq %v", res.Freq)
	}
	if len(res.Nodes) != 1 {
		t.Fatalf("%d node results", len(res.Nodes))
	}
	nr := res.Nodes[0]
	if nr.Busy+nr.Idle <= 0 {
		t.Fatal("no utilization recorded")
	}
	// Component energies sum to the node total.
	var sum power.Joules
	for _, c := range power.Components() {
		sum += nr.Component[c]
	}
	if math.Abs(float64(sum-nr.Energy)) > 1e-6 {
		t.Fatalf("component sum %v != %v", sum, nr.Energy)
	}
}

func TestRunOnceMeasuredVsTrueEnergy(t *testing.T) {
	// A long run makes the ACPI estimate converge on the truth, and the
	// Baytech cross-check agree — the paper's instrument redundancy.
	cfg := DefaultConfig()
	cfg.Reps = 1
	r := MustRunner(cfg)
	res, err := r.RunOnce(workloads.NewSwim(3000), dvs.Static{}, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay < sim.Duration(5*sim.Minute) {
		t.Fatalf("run too short for this test: %v", res.Delay)
	}
	relACPI := math.Abs(float64(res.EnergyACPI-res.EnergyTrue)) / float64(res.EnergyTrue)
	if relACPI > 0.05 {
		t.Fatalf("ACPI off by %.3f (acpi %v true %v)", relACPI, res.EnergyACPI, res.EnergyTrue)
	}
	relBay := math.Abs(float64(res.EnergyBaytech-res.EnergyTrue)) / float64(res.EnergyTrue)
	if relBay > 0.20 { // minute-aligned records truncate harder
		t.Fatalf("Baytech off by %.3f", relBay)
	}
}

func TestRunOnceStaticPinsFrequency(t *testing.T) {
	r := MustRunner(quickConfig())
	res, err := r.RunOnce(workloads.NewSwim(20), dvs.Static{}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Label != "600MHz" {
		t.Fatalf("label %q", res.Label)
	}
	// The pin happens at install time, before the measurement window:
	// no transitions during the run itself.
	if res.Nodes[0].Transitions != 0 {
		t.Fatalf("%d transitions during static run", res.Nodes[0].Transitions)
	}
}

func TestRunOnceBadBaseIndex(t *testing.T) {
	r := MustRunner(quickConfig())
	if _, err := r.RunOnce(workloads.NewSwim(1), dvs.Static{}, 99, 1); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunOnceTimeout(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxSimTime = 40 * sim.Second // settle is 30s; workload won't fit
	r := MustRunner(cfg)
	_, err := r.RunOnce(workloads.NewSwim(2000), dvs.Static{}, 0, 1)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRepetitionsAndDeterminism(t *testing.T) {
	cfg := quickConfig()
	cfg.Reps = 3
	r := MustRunner(cfg)
	a, err := r.Run(workloads.NewSwim(30), dvs.Static{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 3 || a.Kept < 1 || a.Kept > 3 {
		t.Fatalf("runs=%d kept=%d", len(a.Runs), a.Kept)
	}
	// Same seed → identical aggregate.
	b, err := r.Run(workloads.NewSwim(30), dvs.Static{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyTrue != b.EnergyTrue || a.Delay != b.Delay {
		t.Fatalf("nondeterministic: %v/%v vs %v/%v", a.EnergyTrue, a.Delay, b.EnergyTrue, b.Delay)
	}
	// Different jitter seeds make repetitions differ (so the outlier
	// protocol is meaningful).
	if a.Runs[0].Delay == a.Runs[1].Delay && a.Runs[0].EnergyACPI == a.Runs[1].EnergyACPI {
		t.Fatal("repetitions identical; jitter not applied")
	}
}

func TestSweepShape(t *testing.T) {
	r := MustRunner(quickConfig())
	c, err := r.Sweep(workloads.NewMemBench(30), dvs.Static{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 5 {
		t.Fatalf("%d points", len(c.Points))
	}
	if c.Points[0].Freq != 1400*dvfs.MHz || c.Points[4].Freq != 600*dvfs.MHz {
		t.Fatal("sweep order")
	}
	if c.Workload != "membench" {
		t.Fatalf("workload %q", c.Workload)
	}
}

func TestDynamicStrategyReducesRegionFrequency(t *testing.T) {
	r := MustRunner(quickConfig())
	ft := workloads.NewFT('A', 4)
	ft.IterOverride = 1
	res, err := r.RunOnce(ft, dvs.NewDynamic(workloads.RegionFFT), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each rank transitions down and back once per iteration (plus the
	// initial pin to base which is a no-op at index 0).
	for i, nr := range res.Nodes {
		if nr.Transitions < 2 {
			t.Fatalf("node %d: %d transitions", i, nr.Transitions)
		}
	}
	// The region profile exists cluster-wide.
	found := false
	for _, p := range res.Profiles {
		if p.Region == workloads.RegionFFT && p.Count == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("fft profile missing: %+v", res.Profiles)
	}
}

func TestCpuspeedRunLabel(t *testing.T) {
	r := MustRunner(quickConfig())
	pt, err := r.RunCpuspeed(workloads.NewSwim(20), dvs.NewCpuspeed())
	if err != nil {
		t.Fatal(err)
	}
	if pt.Label != "cpuspeed" {
		t.Fatalf("label %q", pt.Label)
	}
	if pt.Energy <= 0 || pt.Delay <= 0 {
		t.Fatalf("point %+v", pt)
	}
}

func TestBatteryProtocolReadings(t *testing.T) {
	// The measurement path must produce ACPI estimates on runs longer
	// than a few refresh periods.
	cfg := quickConfig()
	cfg.UseTrueEnergy = false
	cfg.Settle = sim.Minute
	r := MustRunner(cfg)
	res, err := r.RunOnce(workloads.NewSwim(800), dvs.Static{}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyACPI <= 0 {
		t.Fatal("no ACPI estimate")
	}
	if res.Nodes[0].ACPI <= 0 {
		t.Fatal("no per-node ACPI estimate")
	}
}

func TestConfigValidate(t *testing.T) {
	good := quickConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	breakers := []func(*Config){
		func(c *Config) { c.BatteryCapacityMWh = 0 },
		func(c *Config) { c.BatteryRefreshMin = 0 },
		func(c *Config) { c.BatteryRefreshMax = c.BatteryRefreshMin - 1 },
		func(c *Config) { c.BaytechInterval = 0 },
		func(c *Config) { c.Settle = -1 },
		func(c *Config) { c.StartStagger = -1 },
		func(c *Config) { c.MaxSimTime = c.Settle },
		func(c *Config) { c.OutlierK = -1 },
		func(c *Config) { c.Reps = -1 },
		func(c *Config) { c.TraceInterval = -1 },
		func(c *Config) {
			c.TraceInterval = 0
			c.TraceSinks = func(RunInfo) []trace.Sink { return nil }
		},
	}
	for i, brk := range breakers {
		cfg := quickConfig()
		brk(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("breaker %d: expected error", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRunner must panic on invalid config")
		}
	}()
	bad := quickConfig()
	bad.BatteryCapacityMWh = -1
	MustRunner(bad)
}

func TestBatteryExhaustionFlag(t *testing.T) {
	cfg := quickConfig()
	cfg.BatteryCapacityMWh = 3 // ~11 J: dead in under a second
	r := MustRunner(cfg)
	res, err := r.RunOnce(workloads.NewSwim(50), dvs.Static{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BatteryExhausted {
		t.Fatal("exhaustion not flagged")
	}
	// A healthy run is not flagged.
	res2, err := MustRunner(quickConfig()).RunOnce(workloads.NewSwim(50), dvs.Static{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BatteryExhausted {
		t.Fatal("healthy run flagged")
	}
}
