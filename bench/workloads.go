package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// spec is one benchmark workload. Every workload runs at Parallelism 1,
// so two simulations never compete for a 2-core host's cores.
type spec struct {
	name string
	why  string
	// ops is the timed op count when neither -ops nor -seconds is set.
	ops int
	// reference names the workload whose digest this one must equal at
	// every seed; empty means its own.
	reference string
	// build assembles the apparatus for a seed and returns one closed-
	// loop operation, which yields the simulated outputs to digest. pr
	// is nil for an untraced run, which then installs nothing.
	build func(seed int64, pr *probes) (func() (any, error), error)
}

var specs = []spec{
	{
		name:  "paper-fig3",
		why:   "the paper figure users regenerate: 18 short 8-rank runs per op, so per-run setup, machine/power, the cpuspeed daemon and process switches dominate",
		ops:   30,
		build: buildFig3,
	},
	{
		name:  "ft256",
		why:   "the scale regime: 256 ranks and 66k eager messages, so the event heap and per-message mpi allocation dominate",
		ops:   20,
		build: buildFT256(1),
	},
	{
		name:      "ft256-shards2",
		why:       "the same simulation on 2 event-core shards, so Group windows and cross-shard posts run; a sharding change shows here and not on ft256",
		ops:       20,
		reference: "ft256",
		build:     buildFT256(2),
	},
	{
		name:  "synth-dvs-trace",
		why:   "a generated program under three DVS governors with power tracing on and every archive replayed; the only workload that runs dvs policies and trace",
		ops:   40,
		build: buildSynth,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

func specNames() string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return strings.Join(names, ", ")
}

// fig3Out is one paper-fig3 op's simulated output.
type fig3Out struct {
	Static   core.Crescendo
	Cpuspeed core.Point
}

// buildFig3 is Figure 3 as cmd/paperfigs produces it by default: FT
// class B on 8 nodes, 20 iterations, 3 repetitions per point, 5 min
// settle and the ACPI energy estimate.
func buildFig3(seed int64, pr *probes) (func() (any, error), error) {
	cfg := cluster.DefaultConfig()
	cfg.Parallelism = 1
	cfg.Seed = seed
	pr.instrument(&cfg)
	r, err := cluster.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	ft := workloads.NewFT('B', 8)
	ft.IterOverride = 20
	w := pr.workload(ft)
	if pr == nil {
		return func() (any, error) {
			c, err := r.Sweep(w, dvs.Static{})
			if err != nil {
				return nil, err
			}
			cp, err := r.RunCpuspeed(w, dvs.NewCpuspeed())
			if err != nil {
				return nil, err
			}
			return fig3Out{Static: c, Cpuspeed: cp}, nil
		}, nil
	}
	// Sweep and RunCpuspeed keep their per-run Results to themselves, so
	// the traced op makes the Run calls they make and rebuilds their
	// points; the digest check proves the rebuild exact.
	table := cfg.Machine.Table
	static := pr.strategy(dvs.Static{})
	reported := func(agg *cluster.Aggregate) float64 {
		if cfg.UseTrueEnergy {
			return float64(agg.EnergyTrue)
		}
		return float64(agg.EnergyACPI)
	}
	return func() (any, error) {
		out := fig3Out{Static: core.Crescendo{Workload: w.Name()}}
		for i := 0; i < table.Len(); i++ {
			agg, err := pr.run(r, w, static, i)
			if err != nil {
				return nil, err
			}
			out.Static.Points = append(out.Static.Points, core.Point{
				Label:  fmt.Sprintf("%s@%s", static.Name(), table.At(i).Freq),
				Freq:   table.At(i).Freq,
				Energy: reported(agg),
				Delay:  agg.Delay.Seconds(),
			})
		}
		agg, err := pr.run(r, w, pr.strategy(dvs.NewCpuspeed()), 0)
		if err != nil {
			return nil, err
		}
		out.Cpuspeed = core.Point{Label: "cpuspeed", Energy: reported(agg), Delay: agg.Delay.Seconds()}
		return out, nil
	}, nil
}

// buildFT256 is one FT class A iteration on 256 ranks with exact
// energy, the 256-rank run of BenchmarkShardedFT, on the given number
// of event-core shards.
func buildFT256(shards int) func(int64, *probes) (func() (any, error), error) {
	return func(seed int64, pr *probes) (func() (any, error), error) {
		cfg := cluster.DefaultConfig()
		cfg.Settle = 30 * sim.Second
		cfg.Reps = 1
		cfg.UseTrueEnergy = true
		cfg.Parallelism = 1
		cfg.Shards = shards
		pr.instrument(&cfg)
		r, err := cluster.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		ft := workloads.NewFT('A', 256)
		ft.IterOverride = 1
		w := pr.workload(ft)
		static := pr.strategy(dvs.Static{})
		return func() (any, error) { return pr.runOnce(r, w, static, 0, seed) }, nil
	}
}

// synthProgram seeds the generated program. It is fixed, and -seed
// feeds the runs' jitter instead: a program's size follows its seed
// (host time per op spans 0.22 to 0.45 s over seeds 1-10), which would
// swamp every bound.
const synthProgram = 1

// synthRun is one governor's run in a synth-dvs-trace op. Trace repeats
// Result.Trace's statistics, which marshal to nothing, and Archive is
// the SHA-256 of the binary trace.
type synthRun struct {
	Result  *cluster.Result
	Trace   []nodeStats
	Archive string
}

type nodeStats struct {
	Node, Ticks        int
	Mean, Peak, Energy float64
}

// buildSynth runs a generated 16-rank program under the Slack, Adaptive
// and Dynamic governors with a 10 ms power trace archived in memory,
// then replays each archive and checks it against the live statistics.
func buildSynth(seed int64, pr *probes) (func() (any, error), error) {
	cfg := cluster.DefaultConfig()
	cfg.Settle = 30 * sim.Second
	cfg.Reps = 1
	cfg.UseTrueEnergy = true
	cfg.Parallelism = 1
	cfg.TraceInterval = 10 * sim.Millisecond
	// Parallelism 1 makes RunOnce call the factory on the op's own
	// goroutine, one run at a time, so one buffer serves every run.
	var archive bytes.Buffer
	cfg.TraceSinks = func(cluster.RunInfo) []trace.Sink {
		archive.Reset()
		return []trace.Sink{pr.sink(trace.NewWriter(&archive))}
	}
	pr.instrument(&cfg)
	r, err := cluster.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	w := pr.workload(workloads.NewSynthetic(synthProgram, 16, 32, 6))
	governors := []dvs.Strategy{
		pr.strategy(dvs.NewSlack()),
		pr.strategy(dvs.NewAdaptive()),
		pr.strategy(dvs.NewDynamic("synth")),
	}
	return func() (any, error) {
		runs := make([]synthRun, 0, len(governors))
		for _, g := range governors {
			res, err := pr.runOnce(r, w, g, 0, seed)
			if err != nil {
				return nil, err
			}
			replayed, err := pr.replay(archive.Bytes())
			if err != nil {
				return nil, fmt.Errorf("%s: replay: %w", g.Name(), err)
			}
			live, err := statsOf(res.Trace)
			if err != nil {
				return nil, err
			}
			again, err := statsOf(replayed)
			if err != nil {
				return nil, fmt.Errorf("%s: replay: %w", g.Name(), err)
			}
			if err := sameStats(live, again); err != nil {
				return nil, fmt.Errorf("%s: replay: %w", g.Name(), err)
			}
			sum := sha256.Sum256(archive.Bytes())
			runs = append(runs, synthRun{Result: res, Trace: live, Archive: hex.EncodeToString(sum[:])})
		}
		return runs, nil
	}, nil
}

// statsOf reads every node's trace statistics.
func statsOf(st *trace.Stats) ([]nodeStats, error) {
	if st == nil {
		return nil, fmt.Errorf("no trace statistics")
	}
	var out []nodeStats
	for _, id := range st.Nodes() {
		mean, err := st.MeanPower(id)
		if err != nil {
			return nil, err
		}
		peak, err := st.PeakPower(id)
		if err != nil {
			return nil, err
		}
		energy, err := st.Energy(id)
		if err != nil {
			return nil, err
		}
		out = append(out, nodeStats{
			Node: id, Ticks: st.Ticks(),
			Mean: float64(mean), Peak: float64(peak), Energy: float64(energy),
		})
	}
	return out, nil
}

// sameStats requires a replay to reproduce the live statistics bit for
// bit.
func sameStats(live, replayed []nodeStats) error {
	if len(live) != len(replayed) {
		return fmt.Errorf("%d nodes replayed, %d live", len(replayed), len(live))
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, a := range live {
		b := replayed[i]
		if a.Node != b.Node || a.Ticks != b.Ticks || !same(a.Mean, b.Mean) || !same(a.Peak, b.Peak) || !same(a.Energy, b.Energy) {
			return fmt.Errorf("node %d: replayed %+v, live %+v", a.Node, b, a)
		}
	}
	return nil
}

// digest is the SHA-256 of the JSON of an op's simulated outputs.
func digest(out any) (string, error) {
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

//go:embed testdata/digests.json
var digestsJSON []byte

// committedDigests is the seed-1 digest of every workload, which pins
// the simulator's outputs from outside.
func committedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return m, nil
}
