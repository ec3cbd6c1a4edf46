package repro_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// bench runs the corresponding experiment end-to-end on the simulated
// cluster and reports the headline ratios as custom metrics (normalized
// energy/delay at 600 MHz and friends), so `go test -bench=.` both
// exercises and regenerates the paper's results. EXPERIMENTS.md records
// the paper-vs-measured comparison.

import (
	"runtime"
	"testing"
	"time"

	"repro"
)

// benchRunner returns the standard apparatus scaled for benchmarking:
// exact energy (deterministic), one repetition, short settle.
func benchRunner() *repro.Runner {
	cfg := repro.DefaultConfig()
	cfg.Settle = 30 * repro.Second
	cfg.Reps = 1
	cfg.UseTrueEnergy = true
	return repro.MustRunner(cfg)
}

// sweepMetrics reports the 600 MHz point of a normalized crescendo.
func sweepMetrics(b *testing.B, w repro.Workload) repro.Crescendo {
	b.Helper()
	r := benchRunner()
	var c repro.Crescendo
	for i := 0; i < b.N; i++ {
		var err error
		c, err = r.Sweep(w, repro.Static{})
		if err != nil {
			b.Fatal(err)
		}
	}
	n := c.Normalized(0)
	last := n.Points[len(n.Points)-1]
	b.ReportMetric(last.Energy, "E600/E0")
	b.ReportMetric(last.Delay, "D600/D0")
	return c
}

// --- Figure 1 / Table 1: sequential SPEC codes -----------------------

func BenchmarkFig1aMgrid(b *testing.B) {
	c := sweepMetrics(b, repro.NewMgrid(30))
	n := c.Normalized(0)
	b.ReportMetric(float64(c.Points[n.Best(repro.DeltaHPC)].Freq.MHz()), "HPCbest_MHz")
}

func BenchmarkFig1bSwim(b *testing.B) {
	c := sweepMetrics(b, repro.NewSwim(30))
	n := c.Normalized(0)
	b.ReportMetric(float64(c.Points[n.Best(repro.DeltaHPC)].Freq.MHz()), "HPCbest_MHz")
}

func BenchmarkTable1BestPoints(b *testing.B) {
	r := benchRunner()
	var swim, mgrid repro.Crescendo
	for i := 0; i < b.N; i++ {
		var err error
		swim, err = r.Sweep(repro.NewSwim(30), repro.Static{})
		if err != nil {
			b.Fatal(err)
		}
		mgrid, err = r.Sweep(repro.NewMgrid(30), repro.Static{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(swim.SelectOperatingPoints().HPC.Freq.MHz()), "swimHPC_MHz")
	b.ReportMetric(float64(mgrid.SelectOperatingPoints().HPC.Freq.MHz()), "mgridHPC_MHz")
	b.ReportMetric(float64(swim.SelectOperatingPoints().Energy.Freq.MHz()), "swimEnergy_MHz")
}

// --- Figure 2 / Table 2: the analytic pieces -------------------------

func BenchmarkFig2TradeoffCurves(b *testing.B) {
	var y float64
	for i := 0; i < b.N; i++ {
		for _, d := range []float64{-0.4, -0.2, 0, 0.2, 0.4, 0.6} {
			for x := 1.0; x <= 2.0; x += 0.01 {
				y = repro.RequiredEnergyFraction(d, x)
			}
		}
	}
	// The paper's worked example: d=0.2, 5% slowdown needs ~13% saving.
	b.ReportMetric((1-repro.RequiredEnergyFraction(0.2, 1.05))*100, "savingAt5pct_%")
	_ = y
}

func BenchmarkTable2OperatingPoints(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		t := repro.PentiumM14()
		for j := 0; j < t.Len(); j++ {
			v += t.At(j).Voltage
		}
	}
	b.ReportMetric(repro.PentiumM14().Lowest().Voltage, "V_at_600MHz")
}

// --- Figure 3 / Table 3: FT class B on 8 nodes -----------------------

func BenchmarkFig3FTClassB(b *testing.B) {
	ft := repro.NewFT('B', 8)
	ft.IterOverride = 2
	r := benchRunner()
	var c repro.Crescendo
	var cpE, cpD float64
	for i := 0; i < b.N; i++ {
		var err error
		c, err = r.Sweep(ft, repro.Static{})
		if err != nil {
			b.Fatal(err)
		}
		pt, err := r.RunCpuspeed(ft, repro.NewCpuspeed())
		if err != nil {
			b.Fatal(err)
		}
		cpE, cpD = pt.Energy/c.Points[0].Energy, pt.Delay/c.Points[0].Delay
	}
	n := c.Normalized(0)
	b.ReportMetric(n.Points[4].Energy, "E600/E0")
	b.ReportMetric(n.Points[4].Delay, "D600/D0")
	b.ReportMetric(cpE, "cpuspeedE/E0")
	b.ReportMetric(cpD, "cpuspeedD/D0")
}

func BenchmarkTable3FTBestPoints(b *testing.B) {
	ft := repro.NewFT('B', 8)
	ft.IterOverride = 2
	r := benchRunner()
	var c repro.Crescendo
	for i := 0; i < b.N; i++ {
		var err error
		c, err = r.Sweep(ft, repro.Static{})
		if err != nil {
			b.Fatal(err)
		}
	}
	ops := c.SelectOperatingPoints()
	b.ReportMetric(float64(ops.Energy.Freq.MHz()), "energyBest_MHz")
	b.ReportMetric(float64(ops.Performance.Freq.MHz()), "perfBest_MHz")
	b.ReportMetric(float64(ops.HPC.Freq.MHz()), "HPCbest_MHz")
}

// --- Figure 4: FT class C, three strategies --------------------------

func BenchmarkFig4FTClassCStrategies(b *testing.B) {
	ft := repro.NewFT('C', 8)
	ft.IterOverride = 1
	r := benchRunner()
	var s600E, s600D, dynE, dynD, cpE float64
	for i := 0; i < b.N; i++ {
		top, err := r.Run(ft, repro.Static{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		s600, err := r.Run(ft, repro.Static{}, 4)
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := r.Run(ft, repro.NewDynamic(repro.RegionFFT), 0)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := r.RunCpuspeed(ft, repro.NewCpuspeed())
		if err != nil {
			b.Fatal(err)
		}
		s600E = float64(s600.EnergyTrue) / float64(top.EnergyTrue)
		s600D = s600.Delay.Seconds() / top.Delay.Seconds()
		dynE = float64(dyn.EnergyTrue) / float64(top.EnergyTrue)
		dynD = dyn.Delay.Seconds() / top.Delay.Seconds()
		cpE = cp.Energy / float64(top.EnergyTrue)
	}
	b.ReportMetric(s600E, "static600E/E0")
	b.ReportMetric(s600D, "static600D/D0")
	b.ReportMetric(dynE, "dyn1400E/E0")
	b.ReportMetric(dynD, "dyn1400D/D0")
	b.ReportMetric(cpE, "cpuspeedE/E0")
}

// --- Figure 5: parallel matrix transpose, three strategies -----------

func BenchmarkFig5TransposeStrategies(b *testing.B) {
	tr := repro.NewTranspose(1)
	r := benchRunner()
	var s800E, s800D, s600E, s600D, dynE float64
	for i := 0; i < b.N; i++ {
		top, err := r.Run(tr, repro.Static{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		s800, err := r.Run(tr, repro.Static{}, 3)
		if err != nil {
			b.Fatal(err)
		}
		s600, err := r.Run(tr, repro.Static{}, 4)
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := r.Run(tr, repro.NewDynamic(repro.RegionStep2, repro.RegionStep3), 0)
		if err != nil {
			b.Fatal(err)
		}
		s800E = float64(s800.EnergyTrue) / float64(top.EnergyTrue)
		s800D = s800.Delay.Seconds() / top.Delay.Seconds()
		s600E = float64(s600.EnergyTrue) / float64(top.EnergyTrue)
		s600D = s600.Delay.Seconds() / top.Delay.Seconds()
		dynE = float64(dyn.EnergyTrue) / float64(top.EnergyTrue)
	}
	b.ReportMetric(s800E, "static800E/E0")
	b.ReportMetric(s800D, "static800D/D0")
	b.ReportMetric(s600E, "static600E/E0")
	b.ReportMetric(s600D, "static600D/D0")
	b.ReportMetric(dynE, "dyn1400E/E0")
}

// --- Figures 6-8: microbenchmarks ------------------------------------

func BenchmarkFig6MemoryBench(b *testing.B) {
	sweepMetrics(b, repro.NewMemBench(40))
}

func BenchmarkFig7CacheBench(b *testing.B) {
	c := sweepMetrics(b, repro.NewCacheBench(100000))
	n := c.Normalized(0)
	b.ReportMetric(float64(c.Points[n.Best(repro.DeltaEnergy)].Freq.MHz()), "energyBest_MHz")
}

func BenchmarkFig7RegisterBench(b *testing.B) {
	sweepMetrics(b, repro.NewRegBench(4000))
}

func BenchmarkFig8aComm256K(b *testing.B) {
	sweepMetrics(b, repro.NewCommBench256K(300))
}

func BenchmarkFig8bComm4K(b *testing.B) {
	sweepMetrics(b, repro.NewCommBench4K(3000))
}

// --- Ablations: design choices DESIGN.md calls out -------------------

// AblationSpinThreshold: how the MPI wait model (spin vs block) moves
// the FT energy crescendo and what the cpuspeed daemon can see.
func BenchmarkAblationSpinThreshold(b *testing.B) {
	ft := repro.NewFT('C', 8)
	ft.IterOverride = 1
	var spinE, blockE float64
	for i := 0; i < b.N; i++ {
		for _, thr := range []repro.Duration{-1, 100 * repro.Millisecond} {
			cfg := repro.DefaultConfig()
			cfg.Settle = 30 * repro.Second
			cfg.Reps = 1
			cfg.UseTrueEnergy = true
			cfg.MPI.SpinThreshold = thr
			r := repro.MustRunner(cfg)
			top, err := r.Run(ft, repro.Static{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			low, err := r.Run(ft, repro.Static{}, 4)
			if err != nil {
				b.Fatal(err)
			}
			ratio := float64(low.EnergyTrue) / float64(top.EnergyTrue)
			if thr < 0 {
				spinE = ratio
			} else {
				blockE = ratio
			}
		}
	}
	b.ReportMetric(spinE, "E600_spinForever")
	b.ReportMetric(blockE, "E600_block100ms")
}

// AblationEagerThreshold: rendezvous handshakes cost latency; pushing
// the eager threshold up trades memory for time on mid-size messages.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	w := repro.NewCommBench256K(300)
	var dEager, dRendezvous float64
	for i := 0; i < b.N; i++ {
		for _, thr := range []int64{1 << 20, 64 << 10} {
			cfg := repro.DefaultConfig()
			cfg.Settle = 30 * repro.Second
			cfg.Reps = 1
			cfg.UseTrueEnergy = true
			cfg.MPI.EagerThreshold = thr
			r := repro.MustRunner(cfg)
			res, err := r.Run(w, repro.Static{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			if thr > 256<<10 {
				dEager = res.Delay.Seconds()
			} else {
				dRendezvous = res.Delay.Seconds()
			}
		}
	}
	b.ReportMetric(dRendezvous/dEager, "rendezvous/eager_delay")
}

// AblationTransitionLatency: the paper quotes ~10 µs per switch; how
// much dynamic-mode overhead appears if transitions were 100x slower?
func BenchmarkAblationTransitionLatency(b *testing.B) {
	ft := repro.NewFT('B', 8)
	ft.IterOverride = 2
	var fast, slow float64
	for i := 0; i < b.N; i++ {
		for _, lat := range []repro.Duration{10 * repro.Microsecond, repro.Millisecond} {
			cfg := repro.DefaultConfig()
			cfg.Settle = 30 * repro.Second
			cfg.Reps = 1
			cfg.UseTrueEnergy = true
			cfg.Machine.Transition.Latency = lat
			r := repro.MustRunner(cfg)
			res, err := r.Run(ft, repro.NewDynamic(repro.RegionFFT), 0)
			if err != nil {
				b.Fatal(err)
			}
			if lat == 10*repro.Microsecond {
				fast = res.Delay.Seconds()
			} else {
				slow = res.Delay.Seconds()
			}
		}
	}
	b.ReportMetric(slow/fast, "1ms/10us_delay")
}

// AblationBatteryVsExact: the ACPI protocol's measurement error as a
// function of run length (the reason the paper runs long workloads).
func BenchmarkAblationBatteryVsExact(b *testing.B) {
	var errShort, errLong float64
	for i := 0; i < b.N; i++ {
		for _, iters := range []int{100, 2000} {
			cfg := repro.DefaultConfig()
			cfg.Reps = 1
			r := repro.MustRunner(cfg)
			res, err := r.RunOnce(repro.NewSwim(iters), repro.Static{}, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			rel := float64(res.EnergyACPI-res.EnergyTrue) / float64(res.EnergyTrue)
			if rel < 0 {
				rel = -rel
			}
			if iters == 100 {
				errShort = rel
			} else {
				errLong = rel
			}
		}
	}
	b.ReportMetric(errShort*100, "shortRunErr_%")
	b.ReportMetric(errLong*100, "longRunErr_%")
}

// AblationCpuspeedInterval: a faster-sampling daemon still cannot find
// slack it cannot see.
func BenchmarkAblationCpuspeedInterval(b *testing.B) {
	ft := repro.NewFT('B', 8)
	ft.IterOverride = 2
	var e1s, e100ms float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		top, err := r.Run(ft, repro.Static{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, iv := range []repro.Duration{repro.Second, 100 * repro.Millisecond} {
			daemon := repro.NewCpuspeed()
			daemon.Interval = iv
			pt, err := r.RunCpuspeed(ft, daemon)
			if err != nil {
				b.Fatal(err)
			}
			ratio := pt.Energy / float64(top.EnergyTrue)
			if iv == repro.Second {
				e1s = ratio
			} else {
				e100ms = ratio
			}
		}
	}
	b.ReportMetric(e1s, "E_interval1s")
	b.ReportMetric(e100ms, "E_interval100ms")
}

// AblationAdaptiveGovernor: the self-tuning extension against the
// paper's hand-tuned dynamic control on FT — after its probing phase it
// should land near the hand-tuned result without a human in the loop.
func BenchmarkAblationAdaptiveGovernor(b *testing.B) {
	ft := repro.NewFT('B', 8)
	ft.IterOverride = 10 // room to probe all 5 points and converge
	var handE, autoE, autoD float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		top, err := r.Run(ft, repro.Static{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		hand, err := r.Run(ft, repro.NewDynamic(repro.RegionFFT), 0)
		if err != nil {
			b.Fatal(err)
		}
		auto, err := r.Run(ft, repro.NewAdaptive(), 0)
		if err != nil {
			b.Fatal(err)
		}
		handE = float64(hand.EnergyTrue) / float64(top.EnergyTrue)
		autoE = float64(auto.EnergyTrue) / float64(top.EnergyTrue)
		autoD = auto.Delay.Seconds() / top.Delay.Seconds()
	}
	b.ReportMetric(handE, "handTunedE/E0")
	b.ReportMetric(autoE, "adaptiveE/E0")
	b.ReportMetric(autoD, "adaptiveD/D0")
}

// ExtendedSuite: the three regimes on further NAS kernels (not paper
// figures): EP is compute bound (little to save), CG memory bound plus
// reductions, IS exchange dominated.
func BenchmarkExtendedEPCGIS(b *testing.B) {
	ep := repro.NewEP('A', 8)
	ep.PairsOverride = 1 << 24
	cg := repro.NewCG('A', 8)
	cg.IterOverride = 5
	is := repro.NewIS('A', 8)
	is.IterOverride = 3
	r := benchRunner()
	report := func(name string, w repro.Workload) {
		c, err := r.Sweep(w, repro.Static{})
		if err != nil {
			b.Fatal(err)
		}
		n := c.Normalized(0)
		b.ReportMetric(n.Points[4].Energy, name+"_E600/E0")
		b.ReportMetric(n.Points[4].Delay, name+"_D600/D0")
	}
	mg := repro.NewMG('A', 8)
	mg.IterOverride = 2
	lu := repro.NewLU('A', 8)
	lu.IterOverride = 10
	for i := 0; i < b.N; i++ {
		report("ep", ep)
		report("cg", cg)
		report("is", is)
		report("mg", mg)
		report("lu", lu)
	}
}

// ExtendedScaling: FT class B across cluster sizes up to the paper's 16
// nodes — communication share grows with node count on 100 Mb Ethernet,
// so DVS savings grow too.
func BenchmarkExtendedScalingFT(b *testing.B) {
	r := benchRunner()
	var e2, e4, e8, e16 float64
	for i := 0; i < b.N; i++ {
		for _, nodes := range []int{2, 4, 8, 16} {
			ft := repro.NewFT('B', nodes)
			ft.IterOverride = 2
			top, err := r.Run(ft, repro.Static{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			low, err := r.Run(ft, repro.Static{}, 4)
			if err != nil {
				b.Fatal(err)
			}
			ratio := float64(low.EnergyTrue) / float64(top.EnergyTrue)
			switch nodes {
			case 2:
				e2 = ratio
			case 4:
				e4 = ratio
			case 8:
				e8 = ratio
			case 16:
				e16 = ratio
			}
		}
	}
	b.ReportMetric(e2, "E600_2nodes")
	b.ReportMetric(e4, "E600_4nodes")
	b.ReportMetric(e8, "E600_8nodes")
	b.ReportMetric(e16, "E600_16nodes")
}

// ExtendedLowPowerVsPowerAware: the paper's Section 5 contrast made
// quantitative — a Green-Destiny-class fixed-frequency blade cluster
// against the power-aware cluster at its extremes, on FT class B.
func BenchmarkExtendedLowPowerVsPowerAware(b *testing.B) {
	ft := repro.NewFT('B', 8)
	ft.IterOverride = 2
	ep := repro.NewEP('A', 8)
	ep.PairsOverride = 1 << 24
	var ftLpD, ftLpE, epLpD, epLpE float64
	for i := 0; i < b.N; i++ {
		pa := benchRunner()
		cfg := repro.DefaultConfig()
		cfg.Settle = 30 * repro.Second
		cfg.Reps = 1
		cfg.UseTrueEnergy = true
		cfg.Machine = repro.LowPowerMachineParams()
		lp := repro.MustRunner(cfg)
		for _, w := range []repro.Workload{ft, ep} {
			top, err := pa.Run(w, repro.Static{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			lpRes, err := lp.Run(w, repro.Static{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			d := lpRes.Delay.Seconds() / top.Delay.Seconds()
			e := float64(lpRes.EnergyTrue) / float64(top.EnergyTrue)
			if w == repro.Workload(ft) {
				ftLpD, ftLpE = d, e
			} else {
				epLpD, epLpE = d, e
			}
		}
	}
	// Comm-bound FT barely slows on blades (the network is the wall);
	// compute-bound EP pays the full clock ratio — the paper's
	// "performance is limited" claim.
	b.ReportMetric(ftLpD, "ft_lowPowerD/D0")
	b.ReportMetric(ftLpE, "ft_lowPowerE/E0")
	b.ReportMetric(epLpD, "ep_lowPowerD/D0")
	b.ReportMetric(epLpE, "ep_lowPowerE/E0")
}

// AblationGigabit: a faster interconnect removes the communication
// slack DVS exploits — FT's savings shrink on gigabit Ethernet.
func BenchmarkAblationGigabit(b *testing.B) {
	ft := repro.NewFT('B', 8)
	ft.IterOverride = 2
	var e100, e1000 float64
	for i := 0; i < b.N; i++ {
		for _, gig := range []bool{false, true} {
			cfg := repro.DefaultConfig()
			cfg.Settle = 30 * repro.Second
			cfg.Reps = 1
			cfg.UseTrueEnergy = true
			if gig {
				cfg.Net = repro.Gigabit()
			}
			r := repro.MustRunner(cfg)
			top, err := r.Run(ft, repro.Static{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			low, err := r.Run(ft, repro.Static{}, 4)
			if err != nil {
				b.Fatal(err)
			}
			ratio := float64(low.EnergyTrue) / float64(top.EnergyTrue)
			if gig {
				e1000 = ratio
			} else {
				e100 = ratio
			}
		}
	}
	b.ReportMetric(e100, "E600_100Mb")
	b.ReportMetric(e1000, "E600_1Gb")
}

// AblationTopology: 16-node FT on a single non-blocking switch vs a
// two-tier tree with a 2:1 oversubscribed core — oversubscription adds
// communication slack, which DVS converts into savings.
func BenchmarkAblationTopology(b *testing.B) {
	ft := repro.NewFT('B', 16)
	ft.IterOverride = 2
	var flatE, treeE float64
	for i := 0; i < b.N; i++ {
		for _, tree := range []bool{false, true} {
			cfg := repro.DefaultConfig()
			cfg.Settle = 30 * repro.Second
			cfg.Reps = 1
			cfg.UseTrueEnergy = true
			if tree {
				cfg.Fabric = func(eng *repro.Engine, ports int) repro.Fabric {
					return repro.NewTree(eng, ports, repro.TreeConfig{
						Host:                       repro.Default100Mb(),
						PortsPerEdge:               8,
						UplinkBandwidthBytesPerSec: repro.Default100Mb().BandwidthBytesPerSec * 4, // 8 hosts share 4 links' worth
						CoreLatency:                20 * repro.Microsecond,
					})
				}
			}
			r := repro.MustRunner(cfg)
			top, err := r.Run(ft, repro.Static{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			low, err := r.Run(ft, repro.Static{}, 4)
			if err != nil {
				b.Fatal(err)
			}
			ratio := float64(low.EnergyTrue) / float64(top.EnergyTrue)
			if tree {
				treeE = ratio
			} else {
				flatE = ratio
			}
		}
	}
	b.ReportMetric(flatE, "E600_flatSwitch")
	b.ReportMetric(treeE, "E600_oversubTree")
}

// AblationFinePStates: would more operating points help? Re-run the
// swim crescendo selection on a 9-point table interpolated from the
// Pentium M curve.
func BenchmarkAblationFinePStates(b *testing.B) {
	var coarseBest, fineBest float64
	for i := 0; i < b.N; i++ {
		for _, fine := range []bool{false, true} {
			cfg := repro.DefaultConfig()
			cfg.Settle = 30 * repro.Second
			cfg.Reps = 1
			cfg.UseTrueEnergy = true
			if fine {
				cfg.Machine.Table = repro.PentiumM14().MustSubdivide(9)
			}
			r := repro.MustRunner(cfg)
			c, err := r.Sweep(repro.NewSwim(30), repro.Static{})
			if err != nil {
				b.Fatal(err)
			}
			n := c.Normalized(0)
			best := n.Best(repro.DeltaHPC)
			w := repro.WeightedED2P(n.Points[best].Energy, n.Points[best].Delay, repro.DeltaHPC)
			if fine {
				fineBest = w
			} else {
				coarseBest = w
			}
		}
	}
	b.ReportMetric(coarseBest, "bestW_5points")
	b.ReportMetric(fineBest, "bestW_9points")
}

// ShardedFT: the sharded event core on a 256-rank FT — far beyond the
// paper's 16 nodes, the scale regime the conservative-lookahead design
// targets. The same simulation runs at 1 shard and at 2 shards;
// results are byte-identical by construction
// (TestShardedRunByteEquality), so the only thing that changes is
// wall-clock time, reported as the speedup metric beside the
// GOMAXPROCS it ran with. Two shards need two cores to gain anything:
// at GOMAXPROCS 1 the ratio records instead what the 2-shard side's
// lookahead windows cost, against a 1-shard run that has none.
func BenchmarkShardedFT(b *testing.B) {
	ft := repro.NewFT('A', 256)
	ft.IterOverride = 1
	const shards = 2
	run := func(shards int) float64 {
		cfg := repro.DefaultConfig()
		cfg.Settle = 30 * repro.Second
		cfg.Reps = 1
		cfg.UseTrueEnergy = true
		cfg.Shards = shards
		r := repro.MustRunner(cfg)
		start := time.Now()
		if _, err := r.Run(ft, repro.Static{}, 0); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	var seq, shr float64
	for i := 0; i < b.N; i++ {
		seq += run(1)
		shr += run(shards)
	}
	b.ReportMetric(seq/shr, "speedup")
	b.ReportMetric(float64(shards), "shards")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// ExtendedSlackGovernor: the MPI-aware governor against the paper's
// three strategies on the load-imbalanced transpose. Because it reads
// MPI wait time instead of /proc/stat, it finds the slack cpuspeed
// cannot see — per-node frequencies emerge with no code annotations.
func BenchmarkExtendedSlackGovernor(b *testing.B) {
	tr := repro.NewTranspose(1)
	var slackE, slackD, cpE, dynE float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		top, err := r.Run(tr, repro.Static{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		sl, err := r.Run(tr, repro.NewSlack(), 0)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := r.RunCpuspeed(tr, repro.NewCpuspeed())
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := r.Run(tr, repro.NewDynamic(repro.RegionStep2, repro.RegionStep3), 0)
		if err != nil {
			b.Fatal(err)
		}
		slackE = float64(sl.EnergyTrue) / float64(top.EnergyTrue)
		slackD = sl.Delay.Seconds() / top.Delay.Seconds()
		cpE = cp.Energy / float64(top.EnergyTrue)
		dynE = float64(dyn.EnergyTrue) / float64(top.EnergyTrue)
	}
	b.ReportMetric(slackE, "slackE/E0")
	b.ReportMetric(slackD, "slackD/D0")
	b.ReportMetric(cpE, "cpuspeedE/E0")
	b.ReportMetric(dynE, "dynamicE/E0")
}
