// Package campaign runs experiment matrices defined declaratively: a
// JSON spec names workloads, DVS strategies, and operating points, and
// the driver produces the full cross product with the paper's
// measurement protocol. It is how a study larger than one figure —
// "all kernels × all strategies × all points, three repetitions" — is
// scripted and archived reproducibly.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dvfs"
	"repro/internal/dvs"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Spec is the JSON experiment matrix.
type Spec struct {
	// Name labels the campaign in outputs.
	Name string `json:"name"`
	// Reps is the repetition count (0 means 3, the paper's protocol;
	// negative is an error).
	Reps int `json:"reps,omitempty"`
	// Settle is the battery-protocol settle time as a Go duration
	// string (default "5m").
	Settle string `json:"settle,omitempty"`
	// ExactEnergy selects the integrator's ground truth instead of the
	// ACPI battery estimate.
	ExactEnergy bool `json:"exact_energy,omitempty"`
	// Net selects the fabric: "100mb" (default) or "1gb".
	Net string `json:"net,omitempty"`
	// Seed feeds repetition jitter (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Parallelism bounds how many cells of the cross product run
	// concurrently (0 = one worker per CPU, 1 = sequential). Results
	// are bit-identical at any setting; see cluster.Config.Parallelism.
	Parallelism int `json:"parallelism,omitempty"`
	// Shards partitions each simulation's ranks across this many
	// event-core shards advancing in parallel (0/1 = single shard).
	// Results are byte-identical at any setting; see
	// cluster.Config.Shards. Use it for big rank counts, where one
	// cell dwarfs the cross product.
	Shards int `json:"shards,omitempty"`

	// TraceIntervalMS, when positive, samples every node's power draw
	// at this period and streams per-node statistics into each cell's
	// result (PeakPowerW). Nothing retains the raw samples.
	TraceIntervalMS int `json:"trace_interval_ms,omitempty"`
	// TraceDir, when set, archives every run's compact binary power
	// trace into this directory (created if missing), one file per
	// (workload, strategy, point, repetition seed). Requires
	// TraceIntervalMS.
	TraceDir string `json:"trace_dir,omitempty"`

	// Workloads and Strategies form the cross product with PointsMHz.
	Workloads  []WorkloadSpec `json:"workloads"`
	Strategies []StrategySpec `json:"strategies"`
	// PointsMHz lists base operating points; empty means the full
	// table. Ignored for cpuspeed (which owns the frequency).
	PointsMHz []int `json:"points_mhz,omitempty"`

	// Resolved during validate so the expensive constructions happen
	// once: workload and strategy instances are built a single time and
	// reused by Run (they are stateless across runs — per-run state
	// lives in what Install returns), and Settle is parsed a single
	// time with its error surfaced at Parse.
	built  []workloads.Workload
	strats []dvs.Strategy
	settle sim.Duration
}

// WorkloadSpec names one workload instance.
type WorkloadSpec struct {
	// Kind is one of: ft, ep, cg, is, mg, lu, transpose, summa, swim,
	// mgrid, membench, cachebench, regbench, comm256k, comm4k.
	Kind string `json:"kind"`
	// Class is the NPB class for kernels that have one (default "A").
	Class string `json:"class,omitempty"`
	// Procs is the rank count for kernels that take one (default 8).
	Procs int `json:"procs,omitempty"`
	// Iters overrides the iteration/pass count where supported.
	Iters int `json:"iters,omitempty"`
	// Size is a size parameter (SUMMA's N; default 4096).
	Size int64 `json:"size,omitempty"`
}

// StrategySpec names one DVS strategy.
type StrategySpec struct {
	// Kind is one of: static, dynamic, cpuspeed, adaptive, slack.
	Kind string `json:"kind"`
	// Regions limits dynamic control to these PowerPack regions
	// (empty = all marked regions).
	Regions []string `json:"regions,omitempty"`
	// IntervalMS overrides the cpuspeed sampling interval.
	IntervalMS int `json:"interval_ms,omitempty"`
}

// Result is one cell of the campaign's cross product.
type Result struct {
	Campaign string  `json:"campaign"`
	Workload string  `json:"workload"`
	Strategy string  `json:"strategy"`
	Point    string  `json:"point"`
	EnergyJ  float64 `json:"energy_j"`
	DelayS   float64 `json:"delay_s"`
	Reps     int     `json:"reps_kept"`
	// PeakPowerW is the highest per-node sampled draw in the first
	// repetition (0 when the spec sets no trace interval).
	PeakPowerW float64 `json:"peak_power_w,omitempty"`
}

// Parse reads and validates a JSON spec.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Spec) validate() error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("campaign: no workloads")
	}
	if len(s.Strategies) == 0 {
		return fmt.Errorf("campaign: no strategies")
	}
	if s.Reps < 0 {
		return fmt.Errorf("campaign: negative reps")
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("campaign: negative parallelism")
	}
	if s.Shards < 0 {
		return fmt.Errorf("campaign: negative shard count")
	}
	if s.TraceIntervalMS < 0 {
		return fmt.Errorf("campaign: negative trace interval")
	}
	if s.TraceDir != "" && s.TraceIntervalMS == 0 {
		return fmt.Errorf("campaign: trace_dir requires trace_interval_ms")
	}
	s.built = make([]workloads.Workload, len(s.Workloads))
	for i := range s.Workloads {
		w, err := buildWorkload(s.Workloads[i])
		if err != nil {
			return err
		}
		s.built[i] = w
	}
	s.strats = make([]dvs.Strategy, len(s.Strategies))
	for i := range s.Strategies {
		st, err := buildStrategy(s.Strategies[i])
		if err != nil {
			return err
		}
		s.strats[i] = st
	}
	switch strings.ToLower(s.Net) {
	case "", "100mb", "1gb":
	default:
		return fmt.Errorf("campaign: unknown net %q", s.Net)
	}
	s.settle = 0
	if s.Settle != "" {
		d, err := time.ParseDuration(s.Settle)
		if err != nil {
			return fmt.Errorf("campaign: bad settle: %w", err)
		}
		s.settle = sim.Duration(d.Nanoseconds())
	}
	return nil
}

// buildWorkload constructs the named workload. NPB class letters and
// rank counts are validated here so a bad spec surfaces as a parse
// error rather than reaching (and panicking inside) the kernel
// constructors.
func buildWorkload(ws WorkloadSpec) (workloads.Workload, error) {
	kind := strings.ToLower(ws.Kind)
	class := byte('A')
	if ws.Class != "" {
		class = ws.Class[0]
	}
	switch kind {
	case "ft", "ep", "cg", "is", "mg", "lu":
		if len(ws.Class) > 1 || (class != 'A' && class != 'B' && class != 'C') {
			return nil, fmt.Errorf("campaign: unknown NPB class %q for %s (want A, B, or C)", ws.Class, kind)
		}
	}
	if ws.Procs < 0 {
		return nil, fmt.Errorf("campaign: negative procs for %s", kind)
	}
	procs := ws.Procs
	if procs == 0 {
		procs = 8
	}
	switch kind {
	case "ft":
		w := workloads.NewFT(class, procs)
		w.IterOverride = ws.Iters
		return w, nil
	case "ep":
		w := workloads.NewEP(class, procs)
		if ws.Size > 0 {
			w.PairsOverride = ws.Size
		}
		return w, nil
	case "cg":
		w := workloads.NewCG(class, procs)
		w.IterOverride = ws.Iters
		return w, nil
	case "is":
		w := workloads.NewIS(class, procs)
		w.IterOverride = ws.Iters
		return w, nil
	case "mg":
		w := workloads.NewMG(class, procs)
		w.IterOverride = ws.Iters
		return w, nil
	case "lu":
		w := workloads.NewLU(class, procs)
		w.IterOverride = ws.Iters
		return w, nil
	case "transpose":
		iters := ws.Iters
		if iters == 0 {
			iters = 1
		}
		return workloads.NewTranspose(iters), nil
	case "summa":
		n := ws.Size
		if n == 0 {
			n = 4096
		}
		grid := 2
		if ws.Procs == 9 {
			grid = 3
		} else if ws.Procs == 16 {
			grid = 4
		}
		if n < 0 || n%int64(grid) != 0 {
			return nil, fmt.Errorf("campaign: SUMMA size %d must be positive and divisible by the grid side %d", n, grid)
		}
		return workloads.NewSumma(n, grid), nil
	case "swim":
		return workloads.NewSwim(orDefault(ws.Iters, 100)), nil
	case "mgrid":
		return workloads.NewMgrid(orDefault(ws.Iters, 100)), nil
	case "membench":
		return workloads.NewMemBench(orDefault(ws.Iters, 100)), nil
	case "cachebench":
		return workloads.NewCacheBench(orDefault(ws.Iters, 200000)), nil
	case "regbench":
		return workloads.NewRegBench(orDefault(ws.Iters, 5000)), nil
	case "comm256k":
		return workloads.NewCommBench256K(orDefault(ws.Iters, 400)), nil
	case "comm4k":
		return workloads.NewCommBench4K(orDefault(ws.Iters, 4000)), nil
	default:
		return nil, fmt.Errorf("campaign: unknown workload kind %q", ws.Kind)
	}
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// buildStrategy constructs the named strategy.
func buildStrategy(ss StrategySpec) (dvs.Strategy, error) {
	switch strings.ToLower(ss.Kind) {
	case "static":
		return dvs.Static{}, nil
	case "dynamic":
		return dvs.NewDynamic(ss.Regions...), nil
	case "cpuspeed":
		d := dvs.NewCpuspeed()
		if ss.IntervalMS > 0 {
			d.Interval = sim.Duration(ss.IntervalMS) * sim.Millisecond
		}
		return d, nil
	case "adaptive":
		return dvs.NewAdaptive(), nil
	case "slack":
		return dvs.NewSlack(), nil
	default:
		return nil, fmt.Errorf("campaign: unknown strategy kind %q", ss.Kind)
	}
}

// config assembles the runner configuration from the spec, which must
// be resolved (Settle is parsed once, during validate).
func (s *Spec) config() cluster.Config {
	cfg := cluster.DefaultConfig()
	if s.Reps > 0 {
		cfg.Reps = s.Reps
	}
	if s.Settle != "" {
		cfg.Settle = s.settle
	}
	if strings.EqualFold(s.Net, "1gb") {
		cfg.Net = netsim.Gigabit()
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	cfg.Parallelism = s.Parallelism
	cfg.Shards = s.Shards
	cfg.UseTrueEnergy = s.ExactEnergy
	if s.TraceIntervalMS > 0 {
		cfg.TraceInterval = sim.Duration(s.TraceIntervalMS) * sim.Millisecond
		if s.TraceDir != "" {
			dir, name := s.TraceDir, s.Name
			cfg.TraceSinks = func(info cluster.RunInfo) []trace.Sink {
				return []trace.Sink{trace.NewFileWriter(filepath.Join(dir, traceFileName(name, info)))}
			}
		}
	}
	return cfg
}

// traceFileName builds a filesystem-safe archive name for one run.
func traceFileName(campaign string, info cluster.RunInfo) string {
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
	return fmt.Sprintf("%s-%s-%s-%s-%d.trc",
		clean(campaign), clean(info.Workload), clean(info.Strategy), clean(info.Label), info.Seed)
}

// points resolves the base operating-point indices to sweep.
func (s *Spec) points(table dvfs.Table) ([]int, error) {
	if len(s.PointsMHz) == 0 {
		out := make([]int, table.Len())
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	var out []int
	for _, mhz := range s.PointsMHz {
		idx := table.IndexOf(dvfs.Hz(mhz) * dvfs.MHz)
		if idx < 0 {
			return nil, fmt.Errorf("campaign: no operating point at %d MHz", mhz)
		}
		out = append(out, idx)
	}
	return out, nil
}

// cells expands the resolved spec into the flat, deterministic list of
// the cross product's cells.
func (s *Spec) cells(idxs []int) []cluster.Cell {
	var out []cluster.Cell
	for _, w := range s.built {
		for _, strat := range s.strats {
			pts := idxs
			if strat.Name() == "cpuspeed" {
				pts = []int{0} // the daemon owns the frequency
			}
			for _, idx := range pts {
				out = append(out, cluster.Cell{Workload: w, Strategy: strat, BaseIdx: idx})
			}
		}
	}
	return out
}

// orderedProgress re-serializes per-cell completion lines into
// submission order, so a parallel campaign reports the exact byte
// stream a sequential one does (lines for later cells are held until
// every earlier cell has reported).
type orderedProgress struct {
	fn      func(string)
	mu      sync.Mutex
	next    int
	pending map[int]string
}

func newOrderedProgress(fn func(string)) *orderedProgress {
	return &orderedProgress{fn: fn, pending: make(map[int]string)}
}

func (o *orderedProgress) done(i int, line string) {
	if o.fn == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pending[i] = line
	for {
		l, ok := o.pending[o.next]
		if !ok {
			return
		}
		delete(o.pending, o.next)
		o.next++
		o.fn(l)
	}
}

// Run executes the whole matrix and returns one Result per cell, in
// cross-product order. The cells run as one cluster.Runner.RunCells
// batch, which fans out once over (cell, repetition) pairs, so at most
// Parallelism simulations run at once; results (and progress lines, if
// progress is non-nil) are merged in submission order, so the output
// is bit-identical to a sequential run at any parallelism.
func Run(s *Spec, progress func(string)) ([]Result, error) {
	if s.built == nil {
		// Specs assembled in code (not via Parse) resolve here.
		if err := s.validate(); err != nil {
			return nil, err
		}
	}
	cfg := s.config()
	if s.TraceDir != "" {
		if err := os.MkdirAll(s.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	runner, err := cluster.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	idxs, err := s.points(cfg.Machine.Table)
	if err != nil {
		return nil, err
	}
	cells := s.cells(idxs)
	prog := newOrderedProgress(progress)
	results := make([]Result, len(cells))
	err = runner.RunCells(cells, func(i int, agg *cluster.Aggregate) error {
		c := cells[i]
		energy := agg.EnergyACPI
		if cfg.UseTrueEnergy {
			energy = agg.EnergyTrue
		}
		label := cfg.Machine.Table.At(c.BaseIdx).Freq.String()
		if c.Strategy.Name() == "cpuspeed" {
			label = "auto"
		}
		res := Result{
			Campaign: s.Name,
			Workload: c.Workload.Name(),
			Strategy: c.Strategy.Name(),
			Point:    label,
			EnergyJ:  float64(energy),
			DelayS:   agg.Delay.Seconds(),
			Reps:     agg.Kept,
		}
		if st := agg.Runs[0].Trace; st != nil {
			for _, id := range st.Nodes() {
				p, perr := st.PeakPower(id)
				if perr != nil {
					return fmt.Errorf("%s/%s: %w", c.Workload.Name(), c.Strategy.Name(), perr)
				}
				if float64(p) > res.PeakPowerW {
					res.PeakPowerW = float64(p)
				}
			}
		}
		results[i] = res
		prog.done(i, fmt.Sprintf("%s %s@%s: %.0f J, %.2f s",
			res.Workload, res.Strategy, res.Point, res.EnergyJ, res.DelayS))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return results, nil
}

// WriteJSON emits the results as a JSON array.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// WriteTable emits the results as a fixed-width table, normalizing each
// (workload, strategy) group to its first point.
func WriteTable(w io.Writer, results []Result) error {
	base := map[string]Result{}
	if _, err := fmt.Fprintf(w, "%-14s %-10s %-8s %12s %10s %8s %8s\n",
		"workload", "strategy", "point", "energy(J)", "delay(s)", "E/E0", "D/D0"); err != nil {
		return err
	}
	for _, r := range results {
		key := r.Workload + "/" + r.Strategy
		b, ok := base[key]
		if !ok {
			b = r
			base[key] = r
		}
		if _, err := fmt.Fprintf(w, "%-14s %-10s %-8s %12.1f %10.2f %8.3f %8.3f\n",
			r.Workload, r.Strategy, r.Point, r.EnergyJ, r.DelayS,
			r.EnergyJ/b.EnergyJ, r.DelayS/b.DelayS); err != nil {
			return err
		}
	}
	return nil
}
