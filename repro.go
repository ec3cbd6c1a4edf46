// Package repro is a full reproduction, in pure Go, of "Improvement of
// Power-Performance Efficiency for High-End Computing" (Ge, Feng,
// Cameron — IPDPS/IPPS 2005): a simulated DVS-capable Beowulf cluster
// (Pentium M nodes, 100 Mb switched Ethernet, an MPICH-style message
// passing runtime), the PowerPack measurement-and-control framework,
// the weighted ED2P metric, and the paper's three distributed DVS
// strategies with every workload of its evaluation.
//
// This package is the public facade: it re-exports the pieces a
// downstream user needs to run power-performance experiments —
// configure a cluster, pick a workload and a DVS strategy, sweep the
// operating points, and analyze the resulting energy-delay crescendos.
// The implementation lives in the internal packages (see DESIGN.md for
// the system inventory).
//
// A minimal experiment:
//
//	runner := repro.NewRunner(repro.DefaultConfig())
//	crescendo, err := runner.Sweep(repro.NewFT('B', 8), repro.Static{})
//	if err != nil { ... }
//	best := crescendo.Normalized(0).Best(repro.DeltaHPC)
package repro

import (
	"io"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dvfs"
	"repro/internal/dvs"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/power"
	"repro/internal/powerpack"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Simulation time.
type (
	// Time is an instant on the virtual clock (ns since the epoch).
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// Engine is the discrete-event simulation kernel; custom
	// strategies spawn their daemon processes on it.
	Engine = sim.Engine
	// Proc is a simulated process handle.
	Proc = sim.Proc
)

// Virtual time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// DVFS hardware model.
type (
	// Hz is a clock frequency.
	Hz = dvfs.Hz
	// OperatingPoint is one frequency/voltage DVS setting.
	OperatingPoint = dvfs.OperatingPoint
	// OPTable is the processor's list of operating points.
	OPTable = dvfs.Table
)

// Frequency units.
const (
	KHz = dvfs.KHz
	MHz = dvfs.MHz
	GHz = dvfs.GHz
)

// PentiumM14 returns the paper's Table 2: the five SpeedStep points of
// the Pentium M 1.4 GHz.
func PentiumM14() OPTable { return dvfs.PentiumM14() }

// Power and energy.
type (
	// Watts is instantaneous power.
	Watts = power.Watts
	// Joules is energy.
	Joules = power.Joules
	// Component identifies a node subsystem (CPU, memory, disk, NIC,
	// board) for per-component power profiles.
	Component = power.Component
)

// Node model.
type (
	// MachineParams is the calibrated node model (cost + power).
	MachineParams = machine.Params
	// Node is one cluster node.
	Node = machine.Node
)

// DefaultMachineParams returns the calibrated Inspiron 8600 model.
func DefaultMachineParams() MachineParams { return machine.DefaultParams() }

// LowPowerMachineParams returns a Green-Destiny-class fixed-frequency
// blade node — the "low power" school the paper contrasts with
// power-aware DVS.
func LowPowerMachineParams() MachineParams { return machine.LowPowerParams() }

// Network and MPI.
type (
	// NetConfig describes the interconnect fabric.
	NetConfig = netsim.Config
	// MPIConfig is the message-passing library's cost model.
	MPIConfig = mpi.Config
	// Rank is one MPI process handle.
	Rank = mpi.Rank
	// Comm is a sub-communicator (MPI_Comm_split-style).
	Comm = mpi.Comm
)

// Default100Mb returns the paper's switched 100 Mb Ethernet fabric.
func Default100Mb() NetConfig { return netsim.Default100Mb() }

// Gigabit returns a gigabit Ethernet fabric for interconnect ablations.
func Gigabit() NetConfig { return netsim.Gigabit() }

// Interconnect abstraction for topology studies.
type (
	// Fabric is the interconnect interface the MPI runtime drives.
	Fabric = netsim.Fabric
	// TreeConfig describes a two-tier (oversubscribed) interconnect.
	TreeConfig = netsim.TreeConfig
	// Tree is the fabric implementation: flat (one edge switch, the
	// default) or two-tier.
	Tree = netsim.Tree
)

// NewTree builds a two-tier fabric on an engine (use from a Config's
// Fabric builder).
func NewTree(eng *Engine, ports int, cfg TreeConfig) *Tree {
	return netsim.NewTree(eng, ports, cfg)
}

// DefaultMPIConfig returns the MPICH-1.2.5-over-TCP cost model.
func DefaultMPIConfig() MPIConfig { return mpi.DefaultConfig() }

// DVS strategies.
type (
	// Strategy is a distributed DVS policy.
	Strategy = dvs.Strategy
	// Static pins all nodes to one frequency for the whole run.
	Static = dvs.Static
	// Dynamic is application-directed control via PowerPack regions.
	Dynamic = dvs.Dynamic
	// Cpuspeed is the stock Linux interval governor.
	Cpuspeed = dvs.Cpuspeed
	// Adaptive is the self-tuning region governor: it learns each
	// marked region's best operating point online (the automation the
	// paper's conclusion points toward).
	Adaptive = dvs.Adaptive
	// Slack is the MPI-aware interval governor: unlike cpuspeed it can
	// see busy-polling MPI waits, so load imbalance yields per-node
	// frequencies automatically.
	Slack = dvs.Slack
	// StrategyInstallCtx is what a custom Strategy receives when the
	// runner arms it on a fresh cluster.
	StrategyInstallCtx = dvs.InstallCtx
)

// NewDynamic builds the paper's dynamic strategy: drop to the minimum
// operating point inside the named PowerPack regions.
func NewDynamic(regions ...string) *Dynamic { return dvs.NewDynamic(regions...) }

// NewCpuspeed returns the cpuspeed daemon with stock settings.
func NewCpuspeed() *Cpuspeed { return dvs.NewCpuspeed() }

// NewAdaptive returns the self-tuning region governor under the HPC
// weight factor.
func NewAdaptive() *Adaptive { return dvs.NewAdaptive() }

// NewSlack returns the MPI-aware slack governor with default tuning.
func NewSlack() *Slack { return dvs.NewSlack() }

// PowerPack.
type (
	// Profiler collects timestamped power/DVS events cluster-wide.
	Profiler = powerpack.Profiler
	// NodeCtx is the per-node PowerPack library handle.
	NodeCtx = powerpack.NodeCtx
	// RegionProfile is accumulated time/energy for one marked region.
	RegionProfile = powerpack.RegionProfile
	// RegionPolicy reacts to application region boundaries.
	RegionPolicy = powerpack.RegionPolicy
)

// Metrics (the paper's Section 2).
type (
	// CrescendoPoint is one operating point's energy and delay.
	CrescendoPoint = core.Point
	// Crescendo is an energy-delay sweep across operating points.
	Crescendo = core.Crescendo
	// OperatingPointChoice holds the best points under the three
	// preset weights (Tables 1 and 3).
	OperatingPointChoice = core.OperatingPoints
)

// Weight-factor presets for the weighted ED2P metric.
const (
	DeltaHPC         = core.DeltaHPC
	DeltaEnergy      = core.DeltaEnergy
	DeltaPerformance = core.DeltaPerformance
	DeltaED2P        = core.DeltaED2P
)

// ED2P returns the energy-delay-squared product E·D².
func ED2P(energy, delay float64) float64 { return core.ED2P(energy, delay) }

// WeightedED2P evaluates the paper's Equation 5:
// E^(1-d) · D^(2(1+d)).
func WeightedED2P(energy, delay, d float64) float64 {
	return core.WeightedED2P(energy, delay, d)
}

// RequiredEnergyFraction evaluates the Figure 2 tradeoff: the energy
// fraction at which a delay factor x ties the baseline under weight d.
func RequiredEnergyFraction(d, x float64) float64 {
	return core.RequiredEnergyFraction(d, x)
}

// Workloads.
type (
	// Workload is an SPMD program runnable on the cluster.
	Workload = workloads.Workload
	// WorkloadCtx is the per-rank execution context.
	WorkloadCtx = workloads.Ctx
	// FT is the NAS FT kernel model.
	FT = workloads.FT
	// Transpose is the 12K×12K parallel matrix transpose.
	Transpose = workloads.Transpose
	// EP, CG, IS, MG and LU are further NAS kernels covering the
	// compute-, memory-, bandwidth- and latency-bound regimes.
	EP = workloads.EP
	CG = workloads.CG
	IS = workloads.IS
	MG = workloads.MG
	LU = workloads.LU
	// Summa is a dense matrix multiply on a process grid, exercising
	// sub-communicators.
	Summa = workloads.Summa
)

// Region names marked by the built-in workloads for dynamic control.
const (
	RegionFFT   = workloads.RegionFFT
	RegionStep2 = workloads.RegionStep2
	RegionStep3 = workloads.RegionStep3
)

// NewFT returns the NAS FT kernel for a class ('A', 'B', 'C') and rank
// count.
func NewFT(class byte, procs int) *FT { return workloads.NewFT(class, procs) }

// NewEP returns the NAS EP kernel (embarrassingly parallel, compute
// bound) for a class and rank count.
func NewEP(class byte, procs int) *EP { return workloads.NewEP(class, procs) }

// NewCG returns the NAS CG kernel (sparse solver: memory bound with
// latency-sensitive reductions) for a class and rank count.
func NewCG(class byte, procs int) *CG { return workloads.NewCG(class, procs) }

// NewIS returns the NAS IS kernel (integer sort: all-to-all dominated)
// for a class and rank count.
func NewIS(class byte, procs int) *IS { return workloads.NewIS(class, procs) }

// NewMG returns the NAS MG kernel (multigrid V-cycles: message sizes
// spanning all levels) for a class and rank count.
func NewMG(class byte, procs int) *MG { return workloads.NewMG(class, procs) }

// NewLU returns the NAS LU kernel (wavefront sweeps: latency-bound
// small messages) for a class and rank count.
func NewLU(class byte, procs int) *LU { return workloads.NewLU(class, procs) }

// NewSumma returns an N×N dense matrix multiply on a grid×grid rank
// layout (SUMMA algorithm over row/column communicators).
func NewSumma(n int64, grid int) *Summa { return workloads.NewSumma(n, grid) }

// NewSynthetic returns a reproducible random workload for fuzzing the
// stack: a seed expands into a phase program of compute, memory, and
// communication.
func NewSynthetic(seed int64, procs, phases, iterations int) Workload {
	return workloads.NewSynthetic(seed, procs, phases, iterations)
}

// NewTranspose returns the paper's 12K×12K transpose on 5×3 ranks.
func NewTranspose(iterations int) *Transpose { return workloads.NewTranspose(iterations) }

// NewSwim returns the memory-bound SPEC swim model (sequential).
func NewSwim(iterations int) Workload { return workloads.NewSwim(iterations) }

// NewMgrid returns the compute-bound SPEC mgrid model (sequential).
func NewMgrid(iterations int) Workload { return workloads.NewMgrid(iterations) }

// NewMemBench returns the memory-bound PowerPack microbenchmark.
func NewMemBench(passes int) Workload { return workloads.NewMemBench(passes) }

// NewCacheBench returns the CPU-bound (L2) microbenchmark.
func NewCacheBench(passes int) Workload { return workloads.NewCacheBench(passes) }

// NewRegBench returns the register-only microbenchmark.
func NewRegBench(passes int) Workload { return workloads.NewRegBench(passes) }

// NewCommBench256K returns the 256 KB round-trip microbenchmark.
func NewCommBench256K(rounds int) Workload { return workloads.NewCommBench256K(rounds) }

// NewCommBench4K returns the 4 KB / 64 B-stride microbenchmark.
func NewCommBench4K(rounds int) Workload { return workloads.NewCommBench4K(rounds) }

// Analysis and decision support.
type (
	// Saving summarizes one operating point against a reference.
	Saving = analysis.Saving
	// DeltaInterval is a weight-factor range over which one operating
	// point is "best".
	DeltaInterval = analysis.DeltaInterval
	// CostModel prices cluster energy (the paper's $/kWh figures).
	CostModel = analysis.CostModel
	// ReliabilityModel converts node power into component temperature
	// and failure rates (the paper's ×2-life-per-10°C rule).
	ReliabilityModel = analysis.ReliabilityModel
)

// Savings tabulates every crescendo point against point ref.
func Savings(c Crescendo, ref int) []Saving { return analysis.Savings(c, ref) }

// ParetoFrontier returns the indices of the Pareto-optimal points.
func ParetoFrontier(c Crescendo) []int { return analysis.ParetoFrontier(c) }

// CrossoverDelta finds the weight factor at which two points tie under
// weighted ED2P.
func CrossoverDelta(a, b CrescendoPoint) (float64, bool) {
	return analysis.CrossoverDelta(a, b)
}

// BestByDelta maps the weight range [-1, 1] onto best operating points.
func BestByDelta(c Crescendo, samples int) []DeltaInterval {
	return analysis.BestByDelta(c, samples)
}

// DefaultCostModel returns the paper's $0.10/kWh with a 1.7× cooling
// overhead.
func DefaultCostModel() CostModel { return analysis.DefaultCostModel() }

// DefaultReliabilityModel returns a commodity-node thermal/failure
// model.
func DefaultReliabilityModel() ReliabilityModel { return analysis.DefaultReliabilityModel() }

// LifeFactor returns the component-life multiplier at tempC vs refC
// (×2 per 10°C decrease).
func LifeFactor(tempC, refC float64) float64 { return analysis.LifeFactor(tempC, refC) }

// CapChoice is one job's operating-point pick under a power cap.
type CapChoice = analysis.CapChoice

// PowerCapSchedule picks per-job operating points that keep summed
// average power at or below capWatts while minimizing the makespan.
func PowerCapSchedule(jobs []Crescendo, capWatts float64) []CapChoice {
	return analysis.PowerCapSchedule(jobs, capWatts)
}

// Experiment runner.
type (
	// Config describes the cluster and measurement protocol.
	Config = cluster.Config
	// Runner executes (workload × strategy × operating point) runs.
	Runner = cluster.Runner
	// Result is one run's measurements.
	Result = cluster.Result
	// Aggregate summarizes repeated runs after outlier rejection.
	Aggregate = cluster.Aggregate
	// NodeRunResult is the per-node outcome of a run.
	NodeRunResult = cluster.NodeResult
)

// Streaming power traces. A run with Config.TraceInterval set samples
// every node's draw on that period and streams each aligned tick
// through composable sinks: the compact binary TraceWriter (replayable
// via TraceReader), incremental TraceStats, an online chart
// TraceDownsampler, and a CSV encoder. No consumer retains the raw
// samples, so trace memory is O(nodes) regardless of run length.
type (
	// TraceSample is one node's instantaneous reading.
	TraceSample = trace.Sample
	// TraceMeta is a trace's fixed geometry, announced to sinks first.
	TraceMeta = trace.Meta
	// TraceSink consumes a trace tick by tick (Begin, Tick..., End).
	TraceSink = trace.Sink
	// TraceConfig describes a standalone trace recorder.
	TraceConfig = trace.Config
	// TraceRecorder samples nodes and streams rows to its sinks.
	TraceRecorder = trace.Recorder
	// TraceStats aggregates per-node mean/peak power and energy.
	TraceStats = trace.Stats
	// TraceWriter encodes a trace into the compact binary format.
	TraceWriter = trace.Writer
	// TraceReader decodes and replays a binary trace archive.
	TraceReader = trace.Reader
	// TraceDownsampler folds one node's draw into a bounded chart series.
	TraceDownsampler = trace.Downsampler
	// RunInfo identifies one run to a Config.TraceSinks factory.
	RunInfo = cluster.RunInfo
)

// NewTrace builds a standalone streaming trace recorder (runs made
// through a Runner build their own from Config.TraceInterval and
// Config.TraceSinks).
func NewTrace(cfg TraceConfig) (*TraceRecorder, error) { return trace.New(cfg) }

// NewTraceStats returns a whole-trace statistics sink.
func NewTraceStats() *TraceStats { return trace.NewStats() }

// NewTraceWindowStats returns a statistics sink restricted to samples
// with from <= At <= to.
func NewTraceWindowStats(from, to Time) *TraceStats { return trace.NewWindowStats(from, to) }

// NewTraceWriter returns a binary-format archive sink writing to w.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// NewTraceReader opens a binary trace archive for replay.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// NewTraceCSV returns a streaming CSV sink writing to w.
func NewTraceCSV(w io.Writer) TraceSink { return trace.NewCSV(w) }

// NewTraceDownsampler returns a bounded chart-series sink for one node.
func NewTraceDownsampler(nodeID, maxPoints int) *TraceDownsampler {
	return trace.NewDownsampler(nodeID, maxPoints)
}

// DefaultConfig returns the paper's apparatus: 5-minute battery settle,
// 15-20 s ACPI refresh, one-minute Baytech polling, three repetitions
// with outlier rejection.
func DefaultConfig() Config { return cluster.DefaultConfig() }

// NewRunner builds an experiment runner, or reports why the
// configuration is invalid.
func NewRunner(cfg Config) (*Runner, error) { return cluster.NewRunner(cfg) }

// MustRunner builds an experiment runner from a configuration known to
// be valid (DefaultConfig plus tweaks); it panics on an invalid one.
func MustRunner(cfg Config) *Runner { return cluster.MustRunner(cfg) }
