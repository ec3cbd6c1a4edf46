package cluster

import (
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dvs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// parallelTestConfig returns a small apparatus that still exercises the
// battery protocol (ACPI energies, jittered charge phases) so the
// equivalence tests cover the full measurement pipeline, not just the
// integrator.
func parallelTestConfig(parallelism int) Config {
	cfg := DefaultConfig()
	cfg.Settle = 30 * sim.Second
	cfg.Reps = 4
	cfg.Parallelism = parallelism
	return cfg
}

// TestRunParallelEquivalence pins the determinism guarantee for the
// per-repetition fan-out: a parallel Run must produce an Aggregate
// deeply identical to the sequential one (every repetition's per-node
// energies, profiles, and outlier-rejected means included).
func TestRunParallelEquivalence(t *testing.T) {
	w := workloads.NewSwim(20)
	seq, err := MustRunner(parallelTestConfig(1)).Run(w, dvs.Static{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	par, err := MustRunner(parallelTestConfig(8)).Run(w, dvs.Static{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Runs) != 4 {
		t.Fatalf("%d runs", len(par.Runs))
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel aggregate differs from sequential:\nseq %+v\npar %+v", seq, par)
	}
}

// TestSweepParallelEquivalence pins the guarantee for the per-point
// fan-out, byte-for-byte: the JSON encoding of the crescendo from an
// 8-way sweep must equal the sequential one exactly.
func TestSweepParallelEquivalence(t *testing.T) {
	w := workloads.NewMemBench(20)
	seq, err := MustRunner(parallelTestConfig(1)).Sweep(w, dvs.Static{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := MustRunner(parallelTestConfig(8)).Sweep(w, dvs.Static{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel crescendo differs:\nseq %+v\npar %+v", seq, par)
	}
	seqJSON, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqJSON) != string(parJSON) {
		t.Errorf("crescendo JSON differs:\nseq %s\npar %s", seqJSON, parJSON)
	}
}

// TestSweepParallelMultiRank runs a real multi-rank MPI workload (with
// daemons, staggered launches, and a per-node governor) through the
// parallel sweep to give the race detector something meaty.
func TestSweepParallelMultiRank(t *testing.T) {
	cfg := parallelTestConfig(4)
	cfg.Reps = 2
	cfg.UseTrueEnergy = true
	ft := workloads.NewFT('A', 4)
	ft.IterOverride = 1
	seq, err := MustRunner(func() Config { c := cfg; c.Parallelism = 1; return c }()).Sweep(ft, dvs.NewSlack())
	if err != nil {
		t.Fatal(err)
	}
	par, err := MustRunner(cfg).Sweep(ft, dvs.NewSlack())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("multi-rank parallel crescendo differs:\nseq %+v\npar %+v", seq, par)
	}
}

// inFlightSink counts the simulations between their trace factory
// call and their trace's End.
type inFlightSink struct{ n *atomic.Int32 }

func (s inFlightSink) Begin(trace.Meta) error              { return nil }
func (s inFlightSink) Tick(sim.Time, []trace.Sample) error { return nil }
func (s inFlightSink) End() error                          { s.n.Add(-1); return nil }

// TestParallelismBoundsSimulationsInFlight pins that Parallelism bounds
// the whole sweep, not each level of it: operating points and their
// repetitions fan out once, so at most Parallelism simulations run at
// any moment. Each run's trace factory holds its run for a few
// milliseconds of wall time, so runs that may overlap do.
func TestParallelismBoundsSimulationsInFlight(t *testing.T) {
	const width = 2
	var inFlight, peak atomic.Int32
	cfg := parallelTestConfig(width)
	cfg.Reps = 3
	cfg.TraceInterval = sim.Second
	cfg.TraceSinks = func(RunInfo) []trace.Sink {
		n := inFlight.Add(1)
		for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond)
		return []trace.Sink{inFlightSink{&inFlight}}
	}
	if _, err := MustRunner(cfg).Sweep(workloads.NewSwim(5), dvs.Static{}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > width {
		t.Errorf("%d simulations in flight at once, want at most Parallelism %d", got, width)
	}
}

// TestParallelismValidation covers the new Config knob.
func TestParallelismValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -1
	if _, err := NewRunner(cfg); err == nil {
		t.Fatal("negative parallelism must be rejected")
	}
	cfg.Parallelism = 0 // GOMAXPROCS default
	if _, err := NewRunner(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunOnceErrorStillReported ensures the fan-out preserves error
// reporting: an out-of-range base index fails the same way at any
// parallelism.
func TestRunErrorParallel(t *testing.T) {
	w := workloads.NewSwim(5)
	for _, par := range []int{1, 4} {
		cfg := parallelTestConfig(par)
		if _, err := MustRunner(cfg).Run(w, dvs.Static{}, 99); err == nil {
			t.Fatalf("parallelism %d: out-of-range base index must error", par)
		}
	}
}
