// Command calibrate prints raw energy-delay crescendos for each
// workload under each DVS strategy, against the paper's reported
// values. It is the tool used to tune the model constants in
// internal/machine/params.go; EXPERIMENTS.md records its final output.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	quick := flag.Bool("quick", false, "small workloads, one repetition")
	only := flag.String("only", "", "run only the named workload")
	flag.Parse()

	cfg := cluster.DefaultConfig()
	if *quick {
		cfg.Reps = 1
		cfg.Settle = 30 * sim.Second
		cfg.UseTrueEnergy = true
	}
	r, err := cluster.NewRunner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}

	type job struct {
		w      workloads.Workload
		strats []dvs.Strategy
	}

	micro := func(passesQuick, passesFull int) int {
		if *quick {
			return passesQuick
		}
		return passesFull
	}

	ftB := workloads.NewFT('B', 8)
	ftB.IterOverride = micro(2, 6)
	ftC := workloads.NewFT('C', 8)
	ftC.IterOverride = micro(1, 4)

	jobs := []job{
		{w: workloads.NewSwim(micro(20, 200))},
		{w: workloads.NewMgrid(micro(20, 200))},
		{w: workloads.NewMemBench(micro(20, 400))},
		{w: workloads.NewCacheBench(micro(100000, 400000))},
		{w: workloads.NewRegBench(micro(2000, 20000))},
		{w: workloads.NewCommBench256K(micro(200, 2000))},
		{w: workloads.NewCommBench4K(micro(2000, 20000))},
		{w: ftB, strats: []dvs.Strategy{dvs.Static{}, dvs.NewDynamic(workloads.RegionFFT)}},
		{w: ftC, strats: []dvs.Strategy{dvs.Static{}, dvs.NewDynamic(workloads.RegionFFT)}},
		{w: workloads.NewTranspose(micro(1, 2)), strats: []dvs.Strategy{
			dvs.Static{}, dvs.NewDynamic(workloads.RegionStep2, workloads.RegionStep3)}},
	}

	var names []string
	for _, j := range jobs {
		names = append(names, j.w.Name())
	}
	if *only != "" && !slices.Contains(names, *only) {
		fmt.Fprintf(os.Stderr, "calibrate: unknown -only workload %q (want one of %s)\n", *only, strings.Join(names, ", "))
		os.Exit(2)
	}

	for _, j := range jobs {
		if *only != "" && j.w.Name() != *only {
			continue
		}
		strats := j.strats
		if strats == nil {
			strats = []dvs.Strategy{dvs.Static{}}
		}
		for _, s := range strats {
			c, err := r.Sweep(j.w, s)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s/%s: %v\n", j.w.Name(), s.Name(), err)
				continue
			}
			n := c.Normalized(0)
			// Report simulated time only: calibration output must be
			// byte-identical across hosts (EXPERIMENTS.md diffs it), so
			// no wall-clock reads here.
			fmt.Printf("== %s / %s  (sim delay@top %.1fs, E@top %.0fJ)\n",
				j.w.Name(), s.Name(), c.Points[0].Delay, c.Points[0].Energy)
			for i, p := range n.Points {
				fmt.Printf("   %8s  E=%.3f  D=%.3f\n", c.Points[i].Freq, p.Energy, p.Delay)
			}
			best := n.Best(core.DeltaHPC)
			fmt.Printf("   HPC best: %v (%.1f%% better than top)\n",
				c.Points[best].Freq, 100*n.Improvement(best, 0, core.DeltaHPC))
		}
		// cpuspeed point for the parallel codes.
		if j.w.Ranks() > 1 {
			pt, err := r.RunCpuspeed(j.w, dvs.NewCpuspeed())
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s/cpuspeed: %v\n", j.w.Name(), err)
				continue
			}
			// Normalize against static top.
			c, err := r.Run(j.w, dvs.Static{}, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s/static-top: %v\n", j.w.Name(), err)
				continue
			}
			base := float64(c.EnergyACPI)
			if cfg.UseTrueEnergy {
				base = float64(c.EnergyTrue)
			}
			fmt.Printf("   cpuspeed  E=%.3f  D=%.3f\n",
				pt.Energy/base, pt.Delay/c.Delay.Seconds())
		}
	}
}
