// Command validate runs the complete reproduction and checks every
// headline quantity against its paper value with a tolerance band,
// printing a PASS/FAIL/DIVERGENCE table. It is the executable form of
// EXPERIMENTS.md: the same checks the shape tests assert, plus the two
// documented divergences reported as such rather than as failures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

type check struct {
	name     string
	paper    string
	measured float64
	lo, hi   float64
	// diverges marks a documented divergence: reported, not failed.
	diverges bool
	note     string
}

type suite struct {
	checks []check
	runner *cluster.Runner
}

func (s *suite) add(name, paper string, measured, lo, hi float64) {
	s.checks = append(s.checks, check{name: name, paper: paper, measured: measured, lo: lo, hi: hi})
}

func (s *suite) addDivergence(name, paper string, measured float64, note string) {
	s.checks = append(s.checks, check{name: name, paper: paper, measured: measured, diverges: true, note: note})
}

func (s *suite) sweep(w workloads.Workload) (core.Crescendo, error) {
	c, err := s.runner.Sweep(w, dvs.Static{})
	return c.Normalized(0), err
}

// verdict is the check's table verdict: PASS, FAIL, or a documented
// divergence.
func (c check) verdict() string {
	switch {
	case c.diverges:
		return "DIVERGES (documented)"
	case c.measured < c.lo || c.measured > c.hi:
		return "FAIL"
	}
	return "PASS"
}

func main() {
	full := flag.Bool("full", false, "full workload sizes (slower)")
	flag.Parse()
	cs, err := checks(*full)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
	if report(os.Stdout, cs) > 0 {
		os.Exit(1)
	}
}

// checks runs the reproduction, at quick workload sizes unless full,
// and returns every band check in report order.
func checks(full bool) ([]check, error) {
	cfg := cluster.DefaultConfig()
	cfg.Reps = 1
	cfg.Settle = 30 * sim.Second
	cfg.UseTrueEnergy = true
	runner, err := cluster.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	s := &suite{runner: runner}
	size := func(quick, fullN int) int {
		if full {
			return fullN
		}
		return quick
	}

	// Analytic checks.
	s.add("Eq5 worked example: saving to tie 5% slowdown (d=0.2)", "13.1%",
		(1-core.RequiredEnergyFraction(0.2, 1.05))*100, 12, 15)
	s.add("Fig2 d=0.4, x=1.1 required saving", "~32%",
		(1-core.RequiredEnergyFraction(0.4, 1.1))*100, 30, 40)

	// Fig 6: memory microbenchmark.
	mem, err := s.sweep(workloads.NewMemBench(size(40, 400)))
	if err != nil {
		return nil, err
	}
	s.add("Fig6 memory E(600)", "0.593", mem.Points[4].Energy, 0.55, 0.65)
	s.add("Fig6 memory D(600)", "1.054", mem.Points[4].Delay, 1.03, 1.08)

	// Fig 7: CPU-bound microbenchmarks.
	l2, err := s.sweep(workloads.NewCacheBench(size(100000, 1000000)))
	if err != nil {
		return nil, err
	}
	s.add("Fig7 L2 D(600)", "2.34", l2.Points[4].Delay, 2.28, 2.45)
	eBest := l2.Best(core.DeltaEnergy)
	s.add("Fig7 L2 energy-best frequency (MHz)", "800",
		float64(l2.Points[eBest].Freq.MHz()), 700, 1100)
	s.add("Fig7 L2 E(600) − E(best): rises again", "> 0",
		l2.Points[4].Energy-l2.Points[eBest].Energy, 0.001, 0.2)

	// Fig 8: communication microbenchmarks.
	rt, err := s.sweep(workloads.NewCommBench256K(size(300, 2000)))
	if err != nil {
		return nil, err
	}
	s.add("Fig8a 256KB E(600)", "0.699", rt.Points[4].Energy, 0.63, 0.75)
	s.add("Fig8a 256KB D(600)", "1.06", rt.Points[4].Delay, 1.03, 1.09)
	small, err := s.sweep(workloads.NewCommBench4K(size(3000, 20000)))
	if err != nil {
		return nil, err
	}
	s.add("Fig8b 4KB E(600)", "0.64", small.Points[4].Energy, 0.62, 0.75)
	s.add("Fig8b 4KB D(600)", "1.04", small.Points[4].Delay, 1.02, 1.09)

	// Fig 1 / Table 1.
	swim, err := s.sweep(workloads.NewSwim(size(50, 300)))
	if err != nil {
		return nil, err
	}
	mgrid, err := s.sweep(workloads.NewMgrid(size(50, 300)))
	if err != nil {
		return nil, err
	}
	s.add("Table1 swim HPC best (MHz)", "1000",
		float64(swim.Points[swim.Best(core.DeltaHPC)].Freq.MHz()), 1000, 1000)
	s.add("Table1 mgrid HPC best (MHz)", "1400",
		float64(mgrid.Points[mgrid.Best(core.DeltaHPC)].Freq.MHz()), 1400, 1400)
	s.add("Table1 swim energy best (MHz)", "600",
		float64(swim.Points[swim.Best(core.DeltaEnergy)].Freq.MHz()), 600, 600)

	// Fig 3 / Table 3: FT class B.
	ftB := workloads.NewFT('B', 8)
	ftB.IterOverride = size(2, 20)
	fb, err := s.sweep(ftB)
	if err != nil {
		return nil, err
	}
	s.add("Fig3 FT.B E(600)", "0.655", fb.Points[4].Energy, 0.62, 0.72)
	s.add("Fig3 FT.B D(600)", "1.068", fb.Points[4].Delay, 1.05, 1.12)
	topB, err := s.runner.Run(ftB, dvs.Static{}, 0)
	if err != nil {
		return nil, err
	}
	cpB, err := s.runner.RunCpuspeed(ftB, dvs.NewCpuspeed())
	if err != nil {
		return nil, err
	}
	s.add("Fig3 FT.B cpuspeed E (≈ static 1.4GHz)", "0.966",
		cpB.Energy/float64(topB.EnergyTrue), 0.90, 1.03)
	s.addDivergence("Table3 FT.B HPC best (MHz)", "1000",
		float64(fb.Points[fb.Best(core.DeltaHPC)].Freq.MHz()),
		"near-tie: the paper's own E/D values separate 1000 and 600 by <1% of the metric")

	// Fig 4: FT class C strategies.
	ftC := workloads.NewFT('C', 8)
	ftC.IterOverride = size(1, 8)
	topC, err := s.runner.Run(ftC, dvs.Static{}, 0)
	if err != nil {
		return nil, err
	}
	lowC, err := s.runner.Run(ftC, dvs.Static{}, 4)
	if err != nil {
		return nil, err
	}
	dynC, err := s.runner.Run(ftC, dvs.NewDynamic(workloads.RegionFFT), 0)
	if err != nil {
		return nil, err
	}
	cpC, err := s.runner.RunCpuspeed(ftC, dvs.NewCpuspeed())
	if err != nil {
		return nil, err
	}
	s.add("Fig4 FT.C static600 E", "0.663",
		float64(lowC.EnergyTrue)/float64(topC.EnergyTrue), 0.62, 0.72)
	s.add("Fig4 FT.C dyn@1.4 E", "0.674",
		float64(dynC.EnergyTrue)/float64(topC.EnergyTrue), 0.64, 0.76)
	s.add("Fig4 FT.C dyn@1.4 D", "1.078",
		dynC.Delay.Seconds()/topC.Delay.Seconds(), 1.04, 1.11)
	s.addDivergence("Fig4 FT.C cpuspeed E", "0.876",
		cpC.Energy/float64(topC.EnergyTrue),
		"busy-polling MPI hides the slack from /proc/stat; see EXPERIMENTS.md")

	// Fig 5: transpose.
	tr := workloads.NewTranspose(size(1, 2))
	tc, err := s.sweep(tr)
	if err != nil {
		return nil, err
	}
	s.add("Fig5 transpose E(800)", "0.838", tc.Points[3].Energy, 0.79, 0.88)
	s.add("Fig5 transpose E(600)", "0.803", tc.Points[4].Energy, 0.74, 0.84)
	s.add("Fig5 transpose D(600)", "1.024", tc.Points[4].Delay, 1.01, 1.06)
	topT, err := s.runner.Run(tr, dvs.Static{}, 0)
	if err != nil {
		return nil, err
	}
	cpT, err := s.runner.RunCpuspeed(tr, dvs.NewCpuspeed())
	if err != nil {
		return nil, err
	}
	s.addDivergence("Fig5 transpose cpuspeed E", "0.981 (paper flags it anomalous)",
		cpT.Energy/float64(topT.EnergyTrue),
		"our daemon sees the gather's blocked waits; the paper's row is its own flagged anomaly")

	return s.checks, nil
}

// report prints the check table to w and returns the number of failed
// checks.
func report(w io.Writer, cs []check) (fail int) {
	fmt.Fprintf(w, "%-55s %-28s %-10s %s\n", "check", "paper", "measured", "verdict")
	fmt.Fprintln(w, strings.Repeat("-", 110))
	for _, c := range cs {
		v := c.verdict()
		if v == "FAIL" {
			fail++
		}
		fmt.Fprintf(w, "%-55s %-28s %-10.4f %s\n", c.name, c.paper, c.measured, v)
		if c.note != "" {
			fmt.Fprintf(w, "%55s   ↳ %s\n", "", c.note)
		}
	}
	fmt.Fprintf(w, "\n%d checks, %d failed, %d documented divergences\n",
		len(cs), fail, countDivergences(cs))
	return fail
}

func countDivergences(cs []check) int {
	n := 0
	for _, c := range cs {
		if c.diverges {
			n++
		}
	}
	return n
}
