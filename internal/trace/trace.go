// Package trace streams time-series power profiles of a running
// cluster — the data product behind the paper's per-component power
// plots. A Recorder samples every node's instantaneous draw (total and
// per component), operating point, and activity state on a fixed
// virtual-time interval and hands each aligned multi-node tick to a
// set of streaming Sinks: the compact binary Writer (archival format),
// incremental Stats, an online chart Downsampler, and a CSV encoder.
// No sink retains the full sample history — consumers declare what
// they aggregate up front — so trace memory is O(nodes), not O(run
// length), and archived traces replay byte-for-byte through Reader.
package trace

import (
	"errors"
	"fmt"

	"repro/internal/dvfs"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
)

// Sample is one node's instantaneous reading.
type Sample struct {
	At        sim.Time
	Node      int
	Freq      dvfs.Hz
	State     machine.State
	Total     power.Watts
	Component [power.NumComponents]power.Watts
}

// Meta describes a trace's fixed geometry: sinks receive it once, in
// Begin, before the first tick. NodeIDs is shared — sinks must treat
// it as read-only (copy it if they keep it past Begin).
type Meta struct {
	// Version is the binary format version (FormatVersion for traces
	// produced by this package).
	Version int
	// Interval is the sampling period.
	Interval sim.Duration
	// NodeIDs lists the traced nodes; every tick's row is in this
	// order.
	NodeIDs []int
	// Components is the number of per-component power columns.
	Components int
}

// Sink consumes a trace tick by tick. Begin is called once with the
// trace geometry, then Tick once per sampling instant with one Sample
// per node (in Meta.NodeIDs order), then End once to flush. The row
// slice is reused between ticks: a sink must not retain it.
type Sink interface {
	Begin(m Meta) error
	Tick(at sim.Time, row []Sample) error
	End() error
}

// Config describes a Recorder: what to sample, how often, and which
// streaming consumers receive the ticks.
type Config struct {
	// Interval is the sampling period (must be positive).
	Interval sim.Duration
	// Nodes are the machines to sample (at least one).
	Nodes []*machine.Node
	// Sinks receive every tick, in order. A recorder with no sinks is
	// valid (e.g. when only spawn-time validation is wanted) but
	// records nothing.
	Sinks []Sink
}

// Recorder samples a set of nodes on a fixed interval and streams the
// aligned rows to its sinks. It retains nothing itself: one row buffer
// is reused for every tick.
type Recorder struct {
	nodes    []*machine.Node
	interval sim.Duration
	sinks    []Sink
	row      []Sample
	err      error
	closed   bool
}

// New validates the configuration, announces the trace geometry to
// every sink (Begin), and returns the recorder.
func New(cfg Config) (*Recorder, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("trace: no nodes")
	}
	if cfg.Interval <= 0 {
		return nil, errors.New("trace: non-positive interval")
	}
	for i, s := range cfg.Sinks {
		if s == nil {
			return nil, fmt.Errorf("trace: nil sink at index %d", i)
		}
	}
	r := &Recorder{
		nodes:    cfg.Nodes,
		interval: cfg.Interval,
		sinks:    cfg.Sinks,
		row:      make([]Sample, len(cfg.Nodes)),
	}
	ids := make([]int, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		ids[i] = n.ID()
	}
	meta := Meta{
		Version:    FormatVersion,
		Interval:   cfg.Interval,
		NodeIDs:    ids,
		Components: power.NumComponents,
	}
	for _, s := range r.sinks {
		if err := s.Begin(meta); err != nil {
			return nil, fmt.Errorf("trace: begin: %w", err)
		}
	}
	return r, nil
}

// MustNew is New for configurations known good at compile time; it
// panics on an invalid configuration.
func MustNew(cfg Config) *Recorder {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// GlobalPri is the coordinator-global priority the recorder's ticks
// use; it must not collide with any other same-time global source
// (see sim.Group.ScheduleGlobal).
const GlobalPri = 1

// Spawn starts sampling on g: an immediate sample, then one per
// interval until done() reports true. Each tick runs as a coordinator
// global at a window barrier, where every shard's node state is safely
// visible.
func (r *Recorder) Spawn(g *sim.Group, done func() bool) {
	r.tick(g, g.Now(), done)
}

// tick schedules one sampling global at time at, which re-arms itself
// unless done.
func (r *Recorder) tick(g *sim.Group, at sim.Time, done func() bool) {
	g.ScheduleGlobal(at, GlobalPri, func() {
		r.sample(at)
		if done != nil && done() {
			return
		}
		r.tick(g, at.Add(r.interval), done)
	})
}

// sample reads every node into the reused row buffer and streams it to
// the sinks. After the first sink error the recorder goes inert; the
// error surfaces from Close (and Err).
//
// It runs once per tick of every traced run, so it reads each node
// once (ComponentPowers settles it) and allocates nothing. Total is
// the components' sum in the order Node.Power adds them, so it equals
// Power bit for bit.
//
//lint:hotpath
func (r *Recorder) sample(at sim.Time) {
	if r.err != nil || r.closed {
		return
	}
	for i, n := range r.nodes {
		s := &r.row[i]
		s.At = at
		s.Node = n.ID()
		s.Freq = n.OperatingPoint().Freq
		s.Component = n.ComponentPowers()
		s.State = n.State()
		var total power.Watts
		for _, w := range s.Component {
			total += w
		}
		s.Total = total
	}
	for _, sk := range r.sinks {
		if err := sk.Tick(at, r.row); err != nil {
			r.err = fmt.Errorf("trace: tick: %w", err) //lint:allow hotalloc (error path; a healthy sink never fails)
			return
		}
	}
}

// Close flushes every sink (End) and returns the first error the
// pipeline hit — a mid-run Tick failure or an End failure. It is
// idempotent; samples arriving after Close are dropped.
func (r *Recorder) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	for _, sk := range r.sinks {
		if err := sk.End(); err != nil && r.err == nil {
			r.err = fmt.Errorf("trace: end: %w", err)
		}
	}
	return r.err
}

// Err reports the first pipeline error so far without closing.
func (r *Recorder) Err() error { return r.err }
