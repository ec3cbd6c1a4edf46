// Command powersim runs ad-hoc power-performance experiments on the
// simulated cluster: pick a workload, a DVS strategy, and an operating
// point, and get energy, delay, per-node and per-component breakdowns.
//
//	powersim -workload ft.B -strategy static -mhz 800
//	powersim -workload transpose -strategy dynamic
//	powersim -workload swim -strategy cpuspeed -reps 3
//	powersim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/cluster"
	"repro/internal/dvs"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// replayTrace reads a binary trace archive and prints its per-node
// power statistics — no simulation involved. When csvOut is non-empty
// the archive is also re-encoded to CSV, byte-identical to what a live
// run with -trace would have produced.
func replayTrace(w io.Writer, path, csvOut string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	rd, err := trace.NewReader(f)
	if err == nil {
		st := trace.NewStats()
		sinks := []trace.Sink{st}
		if csvOut != "" {
			sinks = append(sinks, trace.NewFileCSV(csvOut))
		}
		if err = rd.Replay(sinks...); err == nil {
			meta := rd.Meta()
			title := fmt.Sprintf("Power trace %s: %d nodes, %d ticks @ %.3fs",
				path, len(meta.NodeIDs), st.Ticks(), meta.Interval.Seconds())
			err = report.TraceSummary(w, title, st)
			if err == nil && csvOut != "" {
				fmt.Fprintf(w, "CSV re-encoding written to %s\n", csvOut)
			}
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkFlags rejects a workload scale or a repetition count below 1, a
// negative -j, and an -mhz that names no operating point of table, as a
// campaign's points_mhz does. It returns -mhz's index in table.
func checkFlags(table repro.OPTable, mhz, scale, reps, jobs int) (int, error) {
	if scale < 1 {
		return 0, fmt.Errorf("-scale %d: the workload size multiplier must be at least 1", scale)
	}
	if reps < 1 {
		return 0, fmt.Errorf("-reps %d: the repetition count must be at least 1", reps)
	}
	if jobs < 0 {
		return 0, fmt.Errorf("-j %d: the parallelism must be 0 (one worker per CPU) or more", jobs)
	}
	idx := table.IndexOf(repro.Hz(mhz) * repro.MHz)
	if idx < 0 {
		var pts []string
		for _, op := range table.Points() {
			pts = append(pts, fmt.Sprint(int64(op.Freq/repro.MHz)))
		}
		return 0, fmt.Errorf("-mhz %d: no operating point at %d MHz (the table has %s)", mhz, mhz, strings.Join(pts, ", "))
	}
	return idx, nil
}

// catalog builds the named workloads at a given scale, at least 1.
func catalog(scale int) map[string]func() workloads.Workload {
	s := func(base int) int { return base * scale }
	mk := map[string]func() workloads.Workload{
		"swim":     func() workloads.Workload { return workloads.NewSwim(s(100)) },
		"mgrid":    func() workloads.Workload { return workloads.NewMgrid(s(100)) },
		"membench": func() workloads.Workload { return workloads.NewMemBench(s(100)) },
		"cachebench": func() workloads.Workload {
			return workloads.NewCacheBench(s(100000))
		},
		"regbench": func() workloads.Workload { return workloads.NewRegBench(s(5000)) },
		"comm256k": func() workloads.Workload { return workloads.NewCommBench256K(s(500)) },
		"comm4k":   func() workloads.Workload { return workloads.NewCommBench4K(s(5000)) },
		"transpose": func() workloads.Workload {
			return workloads.NewTranspose(s(1))
		},
		"summa": func() workloads.Workload {
			return workloads.NewSumma(int64(4096*s(1)), 2)
		},
	}
	for _, class := range []byte{'A', 'B', 'C'} {
		class := class
		mk["ft."+string(class)] = func() workloads.Workload {
			ft := workloads.NewFT(class, 8)
			ft.IterOverride = s(2)
			return ft
		}
		mk["cg."+string(class)] = func() workloads.Workload {
			cg := workloads.NewCG(class, 8)
			cg.IterOverride = s(5)
			return cg
		}
		mk["is."+string(class)] = func() workloads.Workload {
			is := workloads.NewIS(class, 8)
			is.IterOverride = s(3)
			return is
		}
		mk["mg."+string(class)] = func() workloads.Workload {
			mg := workloads.NewMG(class, 8)
			mg.IterOverride = s(3)
			return mg
		}
		mk["lu."+string(class)] = func() workloads.Workload {
			lu := workloads.NewLU(class, 8)
			lu.IterOverride = s(10)
			return lu
		}
		mk["ep."+string(class)] = func() workloads.Workload {
			ep := workloads.NewEP(class, 8)
			if class != 'A' {
				ep.PairsOverride = 1 << 28 // keep demo runtimes sane
			}
			return ep
		}
	}
	return mk
}

func main() {
	workload := flag.String("workload", "ft.B", "workload name (see -list)")
	strategy := flag.String("strategy", "static", "static | dynamic | cpuspeed | adaptive | slack")
	mhz := flag.Int("mhz", 1400, "base operating point in MHz (one of the DVFS table's)")
	reps := flag.Int("reps", 1, "repetitions (outliers rejected)")
	scale := flag.Int("scale", 1, "workload size multiplier")
	exact := flag.Bool("exact", true, "report exact energy (false = ACPI battery protocol)")
	jobs := flag.Int("j", 0, "max concurrent repetitions (0 = one worker per CPU, 1 = sequential)")
	shards := flag.Int("shards", 1, "event-core shards per simulation (parallelism inside one run; results are identical at any value)")
	traceCSV := flag.String("trace", "", "stream a per-node power trace CSV to this file (first repetition)")
	traceBin := flag.String("trace-out", "", "stream a compact binary power trace to this file (first repetition)")
	traceReplay := flag.String("trace-replay", "", "replay a binary trace archive: print per-node stats (no simulation); combine with -trace to re-encode it as CSV")
	list := flag.Bool("list", false, "list workloads and exit")
	flag.Parse()
	cfg := cluster.DefaultConfig()
	baseIdx, err := checkFlags(cfg.Machine.Table, *mhz, *scale, *reps, *jobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
		os.Exit(2)
	}

	if *traceReplay != "" {
		if err := replayTrace(os.Stdout, *traceReplay, *traceCSV); err != nil {
			fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	names := catalog(*scale)
	if *list {
		var keys []string
		for k := range names {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			w := names[k]()
			fmt.Printf("  %-12s %2d ranks\n", k, w.Ranks())
		}
		return
	}

	mkW, ok := names[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "powersim: unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}
	w := mkW()

	var strat dvs.Strategy
	switch *strategy {
	case "static":
		strat = dvs.Static{}
	case "dynamic":
		// Act on every region the workload marks.
		strat = dvs.NewDynamic()
	case "cpuspeed":
		strat = dvs.NewCpuspeed()
	case "adaptive":
		strat = dvs.NewAdaptive()
	case "slack":
		strat = dvs.NewSlack()
	default:
		fmt.Fprintf(os.Stderr, "powersim: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	cfg.Reps = *reps
	cfg.Settle = 30 * sim.Second
	cfg.UseTrueEnergy = *exact
	cfg.Parallelism = *jobs
	cfg.Shards = *shards
	if *traceCSV != "" || *traceBin != "" {
		cfg.TraceInterval = 250 * sim.Millisecond
		// Only the first repetition (seed == cfg.Seed) streams to the
		// named files; later repetitions still collect stats.
		firstSeed := cfg.Seed
		csvPath, binPath := *traceCSV, *traceBin
		cfg.TraceSinks = func(info cluster.RunInfo) []trace.Sink {
			if info.Seed != firstSeed {
				return nil
			}
			var sinks []trace.Sink
			if csvPath != "" {
				sinks = append(sinks, trace.NewFileCSV(csvPath))
			}
			if binPath != "" {
				sinks = append(sinks, trace.NewFileWriter(binPath))
			}
			return sinks
		}
	}
	runner, err := cluster.NewRunner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powersim:", err)
		os.Exit(1)
	}

	agg, err := runner.Run(w, strat, baseIdx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
		os.Exit(1)
	}
	res := agg.Runs[0]

	fmt.Printf("workload %s, strategy %s, base point %s, %d ranks\n",
		res.Workload, res.Strategy, res.Label, len(res.Nodes))
	fmt.Printf("time-to-solution: %.2f s\n", res.Delay.Seconds())
	fmt.Printf("energy: exact %.1f J, ACPI %.1f J, Baytech %.1f J\n",
		float64(res.EnergyTrue), float64(res.EnergyACPI), float64(res.EnergyBaytech))
	fmt.Printf("mean power per node: %.1f W\n",
		float64(res.EnergyTrue)/res.Delay.Seconds()/float64(len(res.Nodes)))
	if len(agg.Runs) > 1 {
		fmt.Printf("over %d reps (%d kept after outlier rejection): mean exact %.1f J, ACPI %.1f J, %.2f s\n",
			len(agg.Runs), agg.Kept, float64(agg.EnergyTrue), float64(agg.EnergyACPI), agg.Delay.Seconds())
	}
	fmt.Println()

	if len(agg.Runs) > 1 {
		fmt.Println("per-node breakdown (first repetition):")
	} else {
		fmt.Println("per-node breakdown:")
	}
	fmt.Printf("  %-5s %10s %8s %8s %6s   %s\n", "node", "energy(J)", "busy%", "idle%", "DVS#", "components (J)")
	for i, nr := range res.Nodes {
		busy := float64(nr.Busy) / float64(nr.Busy+nr.Idle) * 100
		comp := ""
		for _, c := range power.Components() {
			comp += fmt.Sprintf("%s=%.0f ", c, float64(nr.Component[c]))
		}
		fmt.Printf("  %-5d %10.1f %7.1f%% %7.1f%% %6d   %s\n",
			i, float64(nr.Energy), busy, 100-busy, nr.Transitions, comp)
	}

	if res.Trace != nil {
		fmt.Println()
		if err := report.TraceSummary(os.Stdout, "Power trace statistics (first repetition)", res.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "powersim: %v\n", err)
			os.Exit(1)
		}
		if *traceCSV != "" {
			fmt.Printf("power trace CSV (%d ticks) written to %s\n", res.Trace.Ticks(), *traceCSV)
		}
		if *traceBin != "" {
			fmt.Printf("binary power trace (%d ticks) written to %s\n", res.Trace.Ticks(), *traceBin)
		}
	}

	if len(res.Profiles) > 0 {
		fmt.Println("\nPowerPack region profiles (cluster-wide):")
		for _, rp := range res.Profiles {
			fmt.Printf("  %-8s entered %4d times, %10.2f s, %12.1f J\n",
				rp.Region, rp.Count, rp.Time.Seconds(), float64(rp.Energy))
		}
	}
}
