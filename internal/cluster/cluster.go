// Package cluster assembles the full experimental apparatus of the
// paper — nodes, switch, MPI world, PowerPack profiler, ACPI batteries
// and the Baytech strip — and runs (workload × DVS strategy × operating
// point) experiments under the paper's measurement protocol: charge,
// settle on battery power, run, poll, repeat at least three times, and
// reject outliers.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/dvs"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/meter"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/power"
	"repro/internal/powerpack"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Config describes the cluster and the measurement protocol.
type Config struct {
	Machine machine.Params
	Net     netsim.Config
	MPI     mpi.Config

	// Fabric, when non-nil, builds the interconnect instead of the
	// default flat fabric from Net (netsim.New, a single-edge
	// netsim.Tree) — e.g. an oversubscribed multi-edge tree for
	// topology studies.
	Fabric func(eng *sim.Engine, ports int) netsim.Fabric

	// BatteryCapacityMWh is the full-charge capacity per node.
	BatteryCapacityMWh float64
	// BatteryRefreshMin/Max bound the per-node ACPI refresh period;
	// the paper observes 15-20 s depending on the unit.
	BatteryRefreshMin, BatteryRefreshMax sim.Duration
	// BaytechInterval is the power strip's polling period.
	BaytechInterval sim.Duration
	// Settle is the on-battery discharge time before the workload
	// starts (the paper waits ~5 minutes for accurate measurements).
	Settle sim.Duration
	// StartStagger bounds the per-rank launch skew.
	StartStagger sim.Duration
	// MaxSimTime aborts a run that exceeds this much simulated time.
	MaxSimTime sim.Duration

	// Shards is the number of event-core shards one simulation is
	// partitioned across: ranks (and their switch ports) split
	// contiguously over per-shard engines that advance concurrently
	// inside conservative lookahead windows derived from Net.Latency.
	// A run on K > 1 shards keeps K-1 worker goroutines for its
	// duration, beside the goroutine that runs it; between windows they
	// spin briefly and then block. They spin only while the shard
	// goroutines of every sharded run in the process fit on GOMAXPROCS,
	// so sharded runs under Parallelism > 1 usually block at once
	// rather than spin against each other.
	// Zero or one runs single-shard; results are byte-identical at any
	// setting. Orthogonal to Parallelism, which fans out independent
	// simulations: Shards parallelizes the inside of one big run.
	// Requires the default flat fabric (Fabric == nil): a multi-edge
	// tree books its shared uplinks from the sender's shard.
	Shards int

	// Reps is how many times each experiment repeats (paper: ≥3).
	Reps int
	// Parallelism bounds how many independent simulation cells run
	// concurrently: repetitions inside Run, operating points inside
	// Sweep. Zero selects one worker per CPU (GOMAXPROCS); one forces
	// sequential execution. Every cell owns its engine and cluster and
	// seeds derive only from the cell index, so results are
	// bit-identical at any setting.
	Parallelism int
	// OutlierK is the MAD cutoff for outlier rejection.
	OutlierK float64
	// Seed feeds the per-repetition jitter (battery charge phase,
	// launch skew) that makes repetitions meaningfully different.
	Seed int64

	// TraceInterval, when positive, attaches a streaming power-trace
	// recorder sampling every node at this period. Incremental
	// statistics (mean/peak/energy per node) are always collected and
	// returned on each Result; nothing retains the raw samples.
	TraceInterval sim.Duration
	// TraceSinks, when set, is called once per simulation run to build
	// additional streaming consumers for that run's trace — e.g. a
	// binary archive via trace.NewFileWriter. It may be called
	// concurrently (repetitions and sweep points fan out across
	// workers), so the factory must be safe for concurrent use.
	// Requires a positive TraceInterval.
	TraceSinks func(RunInfo) []trace.Sink

	// UseTrueEnergy makes Sweep and RunCpuspeed report the exact
	// integrated energy instead of the ACPI battery estimate. The
	// paper-faithful protocol uses the battery (and long runs to
	// amortize its 15-20 s refresh); exact energy is for calibration
	// and for short diagnostic runs.
	UseTrueEnergy bool
}

// DefaultConfig returns the paper's apparatus.
func DefaultConfig() Config {
	return Config{
		Machine:            machine.DefaultParams(),
		Net:                netsim.Default100Mb(),
		MPI:                mpi.DefaultConfig(),
		BatteryCapacityMWh: meter.DefaultBatteryCapacityMWh,
		BatteryRefreshMin:  15 * sim.Second,
		BatteryRefreshMax:  20 * sim.Second,
		BaytechInterval:    sim.Minute,
		Settle:             5 * sim.Minute,
		StartStagger:       10 * sim.Millisecond,
		MaxSimTime:         12 * sim.Hour,
		Reps:               3,
		OutlierK:           3.5,
		Seed:               1,
	}
}

// NodeResult is the per-node outcome of one run.
type NodeResult struct {
	Energy      power.Joules // exact energy over the measured window
	ACPI        power.Joules // battery-protocol estimate (0 if unreadable)
	Transitions int
	Busy, Idle  sim.Duration
	StateTime   map[machine.State]sim.Duration
	Component   map[power.Component]power.Joules
}

// readNode returns node n's counters through time t: a NodeResult
// over the window from the start of the simulation, ACPI unset.
func readNode(n *machine.Node, t sim.Time) NodeResult {
	nr := NodeResult{
		Energy:      n.EnergyAt(t),
		Transitions: n.TransitionsAt(t),
		StateTime:   make(map[machine.State]sim.Duration),
		Component:   make(map[power.Component]power.Joules),
	}
	nr.Busy, nr.Idle = n.UtilizationAt(t)
	for _, s := range machine.States() {
		nr.StateTime[s] = n.StateTimeAt(s, t)
	}
	for _, c := range power.Components() {
		nr.Component[c] = n.ComponentEnergyAt(c, t)
	}
	return nr
}

// minus returns what a node accrued between two readings: r's
// counters less start's.
func (r NodeResult) minus(start NodeResult) NodeResult {
	nr := NodeResult{
		Energy:      r.Energy - start.Energy,
		Transitions: r.Transitions - start.Transitions,
		Busy:        r.Busy - start.Busy,
		Idle:        r.Idle - start.Idle,
		StateTime:   make(map[machine.State]sim.Duration),
		Component:   make(map[power.Component]power.Joules),
	}
	for _, s := range machine.States() {
		nr.StateTime[s] = r.StateTime[s] - start.StateTime[s]
	}
	for _, c := range power.Components() {
		nr.Component[c] = r.Component[c] - start.Component[c]
	}
	return nr
}

// Result is the outcome of one experiment run.
type Result struct {
	Workload string
	Strategy string
	Label    string  // operating-point label, e.g. "800MHz" or "cpuspeed"
	Freq     dvfs.Hz // 0 for cpuspeed

	Delay         sim.Duration // time-to-solution (slowest rank)
	EnergyTrue    power.Joules // exact, all nodes
	EnergyACPI    power.Joules // battery estimate, all nodes
	EnergyBaytech power.Joules // power-strip estimate, all nodes

	Nodes    []NodeResult
	Profiles []powerpack.RegionProfile // cluster-merged, by region
	Events   []powerpack.Event
	// Trace holds the streamed per-node power statistics, non-nil when
	// the config set TraceInterval.
	Trace *trace.Stats
	// BatteryExhausted reports that at least one node's battery hit
	// zero during the run, invalidating its ACPI estimate (the paper's
	// protocol recharges fully between runs to avoid this).
	BatteryExhausted bool
}

// RunInfo identifies one simulation run to a TraceSinks factory — what
// is running and under which jitter seed — so the factory can route
// each run's trace to a distinct destination (file name, buffer).
type RunInfo struct {
	Workload string
	Strategy string
	Label    string // operating-point label, e.g. "800MHz" or "cpuspeed"
	Seed     int64
}

// Runner executes experiments on a fresh simulated cluster per run.
type Runner struct {
	cfg Config
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	switch {
	case c.BatteryCapacityMWh <= 0:
		return errors.New("cluster: non-positive battery capacity")
	case c.BatteryRefreshMin <= 0 || c.BatteryRefreshMax < c.BatteryRefreshMin:
		return errors.New("cluster: invalid battery refresh range")
	case c.BaytechInterval <= 0:
		return errors.New("cluster: non-positive Baytech interval")
	case c.Settle < 0:
		return errors.New("cluster: negative settle time")
	case c.StartStagger < 0:
		return errors.New("cluster: negative start stagger")
	case c.MaxSimTime <= c.Settle:
		return errors.New("cluster: MaxSimTime must exceed the settle time")
	case c.OutlierK < 0:
		return errors.New("cluster: negative outlier cutoff")
	case c.Parallelism < 0:
		return errors.New("cluster: negative parallelism")
	case c.Shards < 0:
		return errors.New("cluster: negative shard count")
	case c.Shards > 1 && c.Fabric != nil:
		return errors.New("cluster: sharded runs require the default single-switch fabric")
	case c.Shards > 1 && c.Net.Latency <= 0:
		return errors.New("cluster: sharded runs need a positive network latency for lookahead")
	case c.TraceInterval < 0:
		return errors.New("cluster: negative trace interval")
	case c.TraceSinks != nil && c.TraceInterval <= 0:
		return errors.New("cluster: TraceSinks requires a positive TraceInterval")
	}
	return nil
}

// NewRunner returns a runner for the configuration, or an error if the
// configuration fails Validate.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg}, nil
}

// MustRunner is NewRunner for configurations known good at compile time
// (DefaultConfig and friends); it panics on an invalid configuration.
func MustRunner(cfg Config) *Runner {
	r, err := NewRunner(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// ErrTimeout reports a run that exceeded MaxSimTime.
var ErrTimeout = errors.New("cluster: run exceeded MaxSimTime")

// Coordinator-global priorities for same-time determinism (see
// sim.Group.ScheduleGlobal): every independent source of globals gets
// its own priority so ties on time still have a total, shard-count-
// invariant order. trace.GlobalPri and meter.GlobalPri take 1 and 2.
const (
	startSnapshotPri = 0
	// completionPriBase + rank spaces the per-rank completion checks;
	// two ranks finishing at the same instant schedule distinct keys.
	completionPriBase = 16
)

// RunOnce executes a single (workload, strategy, base operating point)
// run with the given jitter seed and returns its measurements.
//
// The simulation is partitioned across max(1, cfg.Shards) event-core
// shards: rank i (node and switch port alike) lives on shard
// i*K/nRanks, and the shards advance concurrently in conservative
// lookahead windows of Net.Latency. All cluster-wide observers — the
// start snapshot, completion detection, the Baytech strip and the
// trace recorder — run as coordinator globals at window barriers,
// where every shard's state is consistent. One shard runs the same
// windowed protocol inline, so results are byte-identical at any
// shard count.
func (r *Runner) RunOnce(w workloads.Workload, strat dvs.Strategy, baseIdx int, seed int64) (*Result, error) {
	cfg := r.cfg
	table := cfg.Machine.Table
	if baseIdx < 0 || baseIdx >= table.Len() {
		return nil, fmt.Errorf("cluster: base operating point %d out of range", baseIdx)
	}
	nRanks := w.Ranks()
	rng := rand.New(rand.NewSource(seed))

	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > nRanks {
		shards = nRanks
	}
	look := cfg.Net.Latency
	if look <= 0 {
		// Single shard only (Validate enforces it): the lookahead just
		// paces windows, so any positive value is correct.
		look = sim.Microsecond
	}
	g := sim.NewGroup(shards, look)
	defer g.Close()

	nodes := make([]*machine.Node, nRanks)
	for i := range nodes {
		nodes[i] = machine.NewNode(g.Engine(i*shards/nRanks), i, cfg.Machine)
	}
	var fab netsim.Fabric
	if cfg.Fabric != nil {
		fab = cfg.Fabric(g.Engine(0), nRanks)
	} else {
		fab = netsim.New(g.Engine(0), nRanks, cfg.Net)
	}
	world := mpi.NewWorld(g, nodes, fab, cfg.MPI)
	prof := powerpack.NewProfiler()

	// Completion tracking shared with daemons and meters. Each rank
	// fills only its own slot (shard-safe); done flips on the
	// coordinator goroutine at a window barrier.
	finished := make([]bool, nRanks)
	finishAt := make([]sim.Time, nRanks)
	done := false
	var endAt sim.Time

	policy := strat.Install(dvs.InstallCtx{
		Eng:     g.Engine(0),
		Nodes:   nodes,
		BaseIdx: baseIdx,
		Done:    func() bool { return done },
	})
	ppctxs := make([]*powerpack.NodeCtx, nRanks)
	for i, n := range nodes {
		ppctxs[i] = powerpack.NewNodeCtx(n, prof, policy)
	}

	// Measurement protocol: full charge (with a fraction of a mWh of
	// per-node phase jitter), disconnect, settle, then run.
	batteries := make([]*meter.ACPIBattery, nRanks)
	refreshSpan := cfg.BatteryRefreshMax - cfg.BatteryRefreshMin
	for i, n := range nodes {
		capacity := cfg.BatteryCapacityMWh - rng.Float64()
		refresh := cfg.BatteryRefreshMin
		if refreshSpan > 0 {
			refresh += sim.Duration(rng.Int63n(int64(refreshSpan)))
		}
		batteries[i] = meter.NewACPIBattery(n, capacity, refresh)
		// Per-node instrument: polls only its own node, so it lives on
		// the node's shard.
		batteries[i].Spawn(func() bool { return done })
	}
	// Cluster-wide instruments read every node, so they sample at
	// window barriers via coordinator globals.
	strip := meter.NewBaytechStrip(nodes, cfg.BaytechInterval)
	strip.Spawn(g, func() bool { return done })

	label := table.At(baseIdx).Freq.String()
	freq := table.At(baseIdx).Freq
	if strat.Name() == "cpuspeed" {
		label = "cpuspeed"
		freq = 0
	}
	var rec *trace.Recorder
	var traceStats *trace.Stats
	if cfg.TraceInterval > 0 {
		traceStats = trace.NewStats()
		sinks := []trace.Sink{traceStats}
		if cfg.TraceSinks != nil {
			sinks = append(sinks, cfg.TraceSinks(RunInfo{
				Workload: w.Name(),
				Strategy: strat.Name(),
				Label:    label,
				Seed:     seed,
			})...)
		}
		var err error
		rec, err = trace.New(trace.Config{Interval: cfg.TraceInterval, Nodes: nodes, Sinks: sinks})
		if err != nil {
			return nil, fmt.Errorf("cluster: %s/%s@%s: %w", w.Name(), strat.Name(), label, err)
		}
		rec.Spawn(g, func() bool { return done })
	}
	// closeTrace flushes the trace pipeline; on error paths the close
	// error rides along with the primary one.
	closeTrace := func(err error) error {
		if rec == nil {
			return err
		}
		cerr := rec.Close()
		if cerr == nil {
			return err
		}
		if err == nil {
			return fmt.Errorf("cluster: %s/%s@%s: trace: %w", w.Name(), strat.Name(), label, cerr)
		}
		return fmt.Errorf("%w (also trace: %v)", err, cerr)
	}

	// Every node is read at both ends of the measured window; its
	// NodeResult is the difference.
	startAt := sim.Time(cfg.Settle)
	start := make([]NodeResult, nRanks)
	g.ScheduleGlobal(startAt, startSnapshotPri, func() {
		for i, n := range nodes {
			start[i] = readNode(n, startAt)
		}
	})

	end := make([]NodeResult, nRanks)
	// complete is the idempotent completion check: each finishing rank
	// schedules it one lookahead after its own finish (the earliest
	// coordinator slot its slot-write is guaranteed visible at). The
	// first check that sees every rank finished reads the cluster.
	// All reads back-date to endAt even though the check runs up to one
	// lookahead later, so the measured window is exactly
	// [startAt, endAt] no matter the shard count.
	complete := func() {
		if done {
			return
		}
		for _, f := range finished {
			if !f {
				return
			}
		}
		endAt = finishAt[0]
		for _, t := range finishAt[1:] {
			if t > endAt {
				endAt = t
			}
		}
		for i, n := range nodes {
			end[i] = readNode(n, endAt)
		}
		done = true
	}
	for i := 0; i < nRanks; i++ {
		i := i
		launch := startAt
		if cfg.StartStagger > 0 {
			launch = launch.Add(sim.Duration(rng.Int63n(int64(cfg.StartStagger))))
		}
		nodes[i].Engine().SpawnAt(launch, fmt.Sprintf("app.rank%d", i), func(p *sim.Proc) {
			w.Run(workloads.Ctx{P: p, Rank: world.Rank(i), Node: nodes[i], PP: ppctxs[i]})
			finishAt[i] = p.Now()
			finished[i] = true
			g.ScheduleGlobal(p.Now().Add(g.Lookahead()), completionPriBase+uint64(i), complete)
		})
	}

	if _, err := g.Run(sim.Time(cfg.MaxSimTime)); err != nil {
		return nil, closeTrace(fmt.Errorf("cluster: %s/%s@%s: %w", w.Name(), strat.Name(), table.At(baseIdx).Freq, err))
	}
	if !done {
		return nil, closeTrace(fmt.Errorf("%w: %s/%s", ErrTimeout, w.Name(), strat.Name()))
	}
	if err := closeTrace(nil); err != nil {
		return nil, err
	}

	res := &Result{
		Workload: w.Name(),
		Strategy: strat.Name(),
		Label:    label,
		Freq:     freq,
		Delay:    endAt.Sub(startAt),
		Events:   prof.Events(),
		Trace:    traceStats,
	}

	regions := map[string]bool{}
	for i := range nodes {
		nr := end[i].minus(start[i])
		if batteries[i].Exhausted() {
			res.BatteryExhausted = true
		}
		if est, ok := batteries[i].EnergyBetween(startAt, endAt); ok {
			nr.ACPI = est
			res.EnergyACPI += est
		}
		if est, ok := strip.EnergyBetween(i, startAt, endAt); ok {
			res.EnergyBaytech += est
		}
		res.EnergyTrue += nr.Energy
		res.Nodes = append(res.Nodes, nr)
		for _, rp := range ppctxs[i].Profiles() {
			regions[rp.Region] = true
		}
	}
	// Merge in sorted region order: collecting the keys and sorting
	// them before emission keeps Profiles a pure function of
	// (config, seed) despite Go's randomized map iteration.
	names := make([]string, 0, len(regions))
	for region := range regions {
		names = append(names, region)
	}
	sort.Strings(names)
	for _, region := range names {
		res.Profiles = append(res.Profiles, powerpack.MergeProfiles(ppctxs, region))
	}
	return res, nil
}

// Aggregate is the repeated-run summary of one experiment point.
type Aggregate struct {
	Runs []*Result // every repetition, in order

	// Kept is how many repetitions survived outlier rejection.
	Kept int
	// Delay and the energies are means over the kept repetitions.
	Delay         sim.Duration
	EnergyTrue    power.Joules
	EnergyACPI    power.Joules
	EnergyBaytech power.Joules
}

// Run repeats the experiment cfg.Reps times with different jitter
// seeds, rejects outliers on the measured (ACPI) energy, and averages.
// Repetitions are independent simulations, so they fan out across up
// to cfg.Parallelism workers; each repetition's seed depends only on
// its index and results merge in repetition order, keeping the
// aggregate bit-identical to a sequential run.
func (r *Runner) Run(w workloads.Workload, strat dvs.Strategy, baseIdx int) (*Aggregate, error) {
	reps := r.cfg.Reps
	if reps < 1 {
		reps = 1
	}
	runs, err := exec.Map(r.cfg.Parallelism, reps, func(rep int) (*Result, error) {
		return r.RunOnce(w, strat, baseIdx, r.cfg.Seed+int64(rep)*7919)
	})
	if err != nil {
		return nil, err
	}
	agg := &Aggregate{Runs: runs}
	acpis := make([]float64, len(runs))
	for i, res := range runs {
		acpis[i] = float64(res.EnergyACPI)
	}
	kept := stats.RejectOutliers(acpis, r.cfg.OutlierK)
	keptSet := map[float64]int{}
	for _, v := range kept {
		keptSet[v]++
	}
	var dSum sim.Duration
	var eTrue, eACPI, eBay power.Joules
	n := 0
	for _, res := range agg.Runs {
		if keptSet[float64(res.EnergyACPI)] == 0 {
			continue
		}
		keptSet[float64(res.EnergyACPI)]--
		n++
		dSum += res.Delay
		eTrue += res.EnergyTrue
		eACPI += res.EnergyACPI
		eBay += res.EnergyBaytech
	}
	if n == 0 { // cannot happen (RejectOutliers keeps ≥1), but be safe
		return nil, errors.New("cluster: all repetitions rejected")
	}
	agg.Kept = n
	agg.Delay = dSum / sim.Duration(n)
	agg.EnergyTrue = eTrue / power.Joules(n)
	agg.EnergyACPI = eACPI / power.Joules(n)
	agg.EnergyBaytech = eBay / power.Joules(n)
	return agg, nil
}

// reportedEnergy selects the energy source Sweep reports.
func (r *Runner) reportedEnergy(agg *Aggregate) power.Joules {
	if r.cfg.UseTrueEnergy {
		return agg.EnergyTrue
	}
	return agg.EnergyACPI
}

// Sweep runs the strategy at every operating point and returns the
// energy-delay crescendo (measured energies, exact delays), highest
// frequency first. Operating points fan out across up to
// cfg.Parallelism workers; the crescendo is assembled in table order,
// so it is bit-identical to a sequential sweep.
func (r *Runner) Sweep(w workloads.Workload, strat dvs.Strategy) (core.Crescendo, error) {
	table := r.cfg.Machine.Table
	points, err := exec.Map(r.cfg.Parallelism, table.Len(), func(i int) (core.Point, error) {
		agg, err := r.Run(w, strat, i)
		if err != nil {
			return core.Point{}, err
		}
		return core.Point{
			Label:  fmt.Sprintf("%s@%s", strat.Name(), table.At(i).Freq),
			Freq:   table.At(i).Freq,
			Energy: float64(r.reportedEnergy(agg)),
			Delay:  agg.Delay.Seconds(),
		}, nil
	})
	if err != nil {
		return core.Crescendo{}, err
	}
	return core.Crescendo{Workload: w.Name(), Points: points}, nil
}

// RunCpuspeed runs the cpuspeed strategy (whose base point is the boot
// default, the highest frequency) and returns its single point.
func (r *Runner) RunCpuspeed(w workloads.Workload, daemon *dvs.Cpuspeed) (core.Point, error) {
	agg, err := r.Run(w, daemon, 0)
	if err != nil {
		return core.Point{}, err
	}
	return core.Point{
		Label:  "cpuspeed",
		Energy: float64(r.reportedEnergy(agg)),
		Delay:  agg.Delay.Seconds(),
	}, nil
}
