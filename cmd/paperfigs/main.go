// Command paperfigs regenerates every table and figure of the paper's
// evaluation from the simulated cluster:
//
//	Fig 1  — energy-delay crescendos for mgrid and swim (sequential)
//	Fig 2  — weighted-ED2P tradeoff curves
//	Table 1 — best operating points for mgrid and swim
//	Table 2 — Pentium M operating points
//	Fig 3  — NAS FT class B on 8 nodes: cpuspeed vs static crescendo
//	Table 3 — best operating points for FT class B
//	Fig 4  — FT class C on 8 procs: cpuspeed vs static vs dynamic
//	Fig 5  — 12K×12K transpose on 15 procs: same three strategies
//	Fig 6  — memory-bound microbenchmark crescendo
//	Fig 7  — CPU-bound (L2) and register microbenchmark crescendos
//	Fig 8  — communication microbenchmarks (256 KB RT, 4 KB/64 B)
//
// Energy is measured through the simulated ACPI battery protocol by
// default (the paper's instrument); -exact reports the integrator's
// ground truth instead. -quick shrinks workloads for a fast smoke run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// traceFileName builds a filesystem-safe archive name for one run.
func traceFileName(info cluster.RunInfo) string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
				return r
			default:
				return '_'
			}
		}, s)
	}
	return fmt.Sprintf("%s-%s-%s-%d.trc", clean(info.Workload), clean(info.Strategy), clean(info.Label), info.Seed)
}

// replayTrace summarizes one archived binary trace: per-node power
// statistics plus a downsampled draw chart for the first traced node.
func replayTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	rd, rerr := trace.NewReader(f)
	err = rerr
	if err == nil {
		meta := rd.Meta()
		node := meta.NodeIDs[0]
		st := trace.NewStats()
		ds := trace.NewDownsampler(node, 64)
		if err = rd.Replay(st, ds); err == nil {
			title := fmt.Sprintf("Power trace %s: %d nodes, %d ticks @ %.3fs",
				filepath.Base(path), len(meta.NodeIDs), st.Ticks(), meta.Interval.Seconds())
			err = report.TraceSummary(w, title, st)
			if err == nil && st.Ticks() > 1 {
				var peak float64
				if p, perr := st.PeakPower(node); perr == nil {
					peak = float64(p)
				}
				if peak > 0 {
					xs, ys := ds.Series()
					for i := range ys {
						ys[i] /= peak
					}
					err = report.CurveChart(w,
						fmt.Sprintf("Node %d total draw over time (fraction of peak, x in seconds)", node),
						xs, []report.Series{{Name: "total W / peak W", Values: ys}}, 12)
				}
			}
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

type app struct {
	runner *cluster.Runner
	out    io.Writer
	quick  bool
	charts bool
}

// crescendo renders the table and, when enabled, the bar chart.
func (a *app) crescendo(title string, c core.Crescendo) error {
	if err := report.Crescendo(a.out, title, c); err != nil {
		return err
	}
	if a.charts {
		return report.CrescendoChart(a.out, title+" (chart)", c, 0)
	}
	return nil
}

func main() {
	quick := flag.Bool("quick", false, "smaller workloads, one repetition, short settle")
	exact := flag.Bool("exact", false, "report exact integrated energy instead of the ACPI estimate")
	only := flag.String("only", "", "comma-separated list of items to produce (e.g. fig3,table1); empty = all")
	reps := flag.Int("reps", 0, "override repetition count (0 keeps the default)")
	charts := flag.Bool("charts", false, "also render ASCII bar charts for the crescendos")
	traceOut := flag.String("trace-out", "", "archive every run's binary power trace into this directory")
	traceReplay := flag.String("trace-replay", "", "summarize one archived binary trace (no simulation), then exit")
	flag.Parse()

	a := &app{out: os.Stdout, quick: *quick, charts: *charts}
	type item struct {
		key string
		fn  func() error
	}
	items := []item{
		{"table2", a.table2},
		{"fig2", a.fig2},
		{"fig1", a.fig1AndTable1},
		{"fig3", a.fig3AndTable3},
		{"fig4", a.fig4},
		{"fig5", a.fig5},
		{"fig6", a.fig6},
		{"fig7", a.fig7},
		{"fig8", a.fig8},
	}
	// table1/table3 ride along with fig1/fig3.
	alias := map[string]string{"table1": "fig1", "table3": "fig3"}
	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			k := strings.TrimSpace(name)
			if v, ok := alias[k]; ok {
				k = v
			}
			if !slices.ContainsFunc(items, func(it item) bool { return it.key == k }) {
				fmt.Fprintf(os.Stderr, "paperfigs: unknown -only item %q (want table1-3 or fig1-8)\n", name)
				os.Exit(2)
			}
			want[k] = true
		}
	}
	if *reps < 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: -reps must be at least 0 (0 keeps the default), got %d\n", *reps)
		os.Exit(2)
	}

	if *traceReplay != "" {
		if err := replayTrace(os.Stdout, *traceReplay); err != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", err)
			os.Exit(1)
		}
		return
	}

	cfg := cluster.DefaultConfig()
	if *quick {
		cfg.Reps = 1
		cfg.Settle = 30 * sim.Second
		cfg.UseTrueEnergy = true
	}
	if *exact {
		cfg.UseTrueEnergy = true
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *traceOut != "" {
		if err := os.MkdirAll(*traceOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", err)
			os.Exit(1)
		}
		cfg.TraceInterval = 250 * sim.Millisecond
		dir := *traceOut
		cfg.TraceSinks = func(info cluster.RunInfo) []trace.Sink {
			return []trace.Sink{trace.NewFileWriter(filepath.Join(dir, traceFileName(info)))}
		}
	}
	runner, err := cluster.NewRunner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
	a.runner = runner

	for _, it := range items {
		if len(want) > 0 && !want[it.key] {
			continue
		}
		if err := it.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %s: %v\n", it.key, err)
			os.Exit(1)
		}
	}
}

// size picks a workload scale parameter for quick vs full runs.
func (a *app) size(quick, full int) int {
	if a.quick {
		return quick
	}
	return full
}

func (a *app) table2() error {
	return report.OperatingPoints(a.out, a.runner.Config().Machine.Table)
}

func (a *app) fig2() error {
	deltas := []float64{-0.4, -0.2, 0, 0.2, 0.4, 0.6}
	if err := report.TradeoffCurves(a.out, deltas, 2.0, 11); err != nil {
		return err
	}
	if !a.charts {
		return nil
	}
	series := make([]report.Series, 0, len(deltas))
	var xs []float64
	for _, d := range deltas {
		x, ys := core.TradeoffCurve(d, 2.0, 61)
		xs = x
		series = append(series, report.Series{Name: fmt.Sprintf("d=%.1f", d), Values: ys})
	}
	return report.CurveChart(a.out, "Fig 2 (chart). Energy fraction vs delay factor", xs, series, 16)
}

func (a *app) fig1AndTable1() error {
	mgrid, err := a.runner.Sweep(workloads.NewMgrid(a.size(30, 300)), dvs.Static{})
	if err != nil {
		return err
	}
	swim, err := a.runner.Sweep(workloads.NewSwim(a.size(30, 300)), dvs.Static{})
	if err != nil {
		return err
	}
	if err := a.crescendo("Fig 1a. SPEC mgrid energy-delay crescendo (1 node)", mgrid); err != nil {
		return err
	}
	if err := a.crescendo("Fig 1b. SPEC swim energy-delay crescendo (1 node)", swim); err != nil {
		return err
	}
	return report.BestPoints(a.out, "Table 1. Operating points for mgrid and swim (MHz)",
		[]report.CrescendoRow{{Name: "mgrid", Crescendo: mgrid}, {Name: "swim", Crescendo: swim}})
}

func (a *app) fig3AndTable3() error {
	ft := workloads.NewFT('B', 8)
	ft.IterOverride = a.size(2, 20)
	c, err := a.runner.Sweep(ft, dvs.Static{})
	if err != nil {
		return err
	}
	pt, err := a.runner.RunCpuspeed(ft, dvs.NewCpuspeed())
	if err != nil {
		return err
	}
	// Display order: static 1.4 GHz (the normalization reference),
	// the cpuspeed point, then the rest of the static crescendo.
	combined := core.Crescendo{Workload: c.Workload}
	combined.Points = append(combined.Points, c.Points[0])
	combined.Points = append(combined.Points, core.Point{Label: "cpuspeed", Energy: pt.Energy, Delay: pt.Delay})
	combined.Points = append(combined.Points, c.Points[1:]...)
	if err := a.crescendo("Fig 3. NAS FT class B on 8 nodes (normalized to static 1.4GHz)", combined); err != nil {
		return err
	}
	return report.BestPoints(a.out, "Table 3. Best operating points for FT class B on 8 nodes (MHz)",
		[]report.CrescendoRow{{Name: "FT", Crescendo: c}})
}

// strategiesFigure renders a Fig 4/5 style comparison.
func (a *app) strategiesFigure(title string, w workloads.Workload, dyn *dvs.Dynamic) error {
	var pts []report.StrategyPoint
	stat, err := a.runner.Sweep(w, dvs.Static{})
	if err != nil {
		return err
	}
	cp, err := a.runner.RunCpuspeed(w, dvs.NewCpuspeed())
	if err != nil {
		return err
	}
	pts = append(pts, report.StrategyPoint{Strategy: "cpuspeed", Label: "auto", Energy: cp.Energy, Delay: cp.Delay})
	for _, p := range stat.Points {
		pts = append(pts, report.StrategyPoint{Strategy: "stat", Label: p.Freq.String(), Energy: p.Energy, Delay: p.Delay})
	}
	dynC, err := a.runner.Sweep(w, dyn)
	if err != nil {
		return err
	}
	for _, p := range dynC.Points {
		pts = append(pts, report.StrategyPoint{Strategy: "dyn", Label: p.Freq.String(), Energy: p.Energy, Delay: p.Delay})
	}
	return report.Strategies(a.out, title, pts, 1) // normalize to static 1.4GHz
}

func (a *app) fig4() error {
	ft := workloads.NewFT('C', 8)
	ft.IterOverride = a.size(1, 8)
	return a.strategiesFigure(
		"Fig 4. FT class C on 8 processors: cpuspeed vs static vs dynamic (fft() at min speed)",
		ft, dvs.NewDynamic(workloads.RegionFFT))
}

func (a *app) fig5() error {
	tr := workloads.NewTranspose(a.size(1, 2))
	return a.strategiesFigure(
		"Fig 5. 12Kx12K matrix transpose on 15 processors: cpuspeed vs static vs dynamic (steps 2-3 at min speed)",
		tr, dvs.NewDynamic(workloads.RegionStep2, workloads.RegionStep3))
}

func (a *app) fig6() error {
	c, err := a.runner.Sweep(workloads.NewMemBench(a.size(40, 400)), dvs.Static{})
	if err != nil {
		return err
	}
	return a.crescendo("Fig 6. Memory-bound microbenchmark (32MB buffer, 128B stride)", c)
}

func (a *app) fig7() error {
	c, err := a.runner.Sweep(workloads.NewCacheBench(a.size(100000, 1000000)), dvs.Static{})
	if err != nil {
		return err
	}
	if err := a.crescendo("Fig 7. CPU-bound microbenchmark (256KB buffer, 128B stride, L2 resident)", c); err != nil {
		return err
	}
	r, err := a.runner.Sweep(workloads.NewRegBench(a.size(2000, 20000)), dvs.Static{})
	if err != nil {
		return err
	}
	return a.crescendo("Fig 7 (register variant). Register-only compute", r)
}

func (a *app) fig8() error {
	c, err := a.runner.Sweep(workloads.NewCommBench256K(a.size(200, 2000)), dvs.Static{})
	if err != nil {
		return err
	}
	if err := a.crescendo("Fig 8a. 256KB round trip (2 nodes)", c); err != nil {
		return err
	}
	d, err := a.runner.Sweep(workloads.NewCommBench4K(a.size(2000, 20000)), dvs.Static{})
	if err != nil {
		return err
	}
	return a.crescendo("Fig 8b. 4KB message, 64B stride (2 nodes)", d)
}
