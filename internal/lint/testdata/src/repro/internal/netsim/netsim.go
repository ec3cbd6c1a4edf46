// Package netsim is a fixture stub of the real switched-fabric model:
// both rangecheck domains key their built-in port/size
// contracts and forward-only booking summaries on this import path,
// so fixtures exercise them exactly as production code does. Bodies
// are inert — only the signatures matter to the analyses.
package netsim

import "repro/internal/sim"

// Config mirrors the fabric latency/bandwidth configuration.
type Config struct {
	MinLatency sim.Duration
}

// Tree mirrors the fabric New builds (a single-edge tree).
type Tree struct{ ports int }

func New(eng *sim.Engine, ports int, cfg Config) *Tree { return &Tree{ports: ports} }

func (s *Tree) Ports() int               { return s.ports }
func (s *Tree) MinLatency() sim.Duration { return 0 }
func (s *Tree) SerializationTime(size int64) sim.Duration {
	return 0
}

func (s *Tree) Send(src, dst int, size int64, now sim.Time) (start, arrive sim.Time) {
	return now, now
}

func (s *Tree) Accept(src, dst int, size int64, arrive sim.Time) sim.Time {
	return arrive
}

func (s *Tree) Transfer(src, dst int, size int64) {}

func (s *Tree) Control(src, dst int, size int64, now sim.Time) sim.Time {
	return now
}

// Fabric mirrors the interface the mpi layer books traffic through.
type Fabric interface {
	Ports() int
	MinLatency() sim.Duration
	Send(src, dst int, size int64, now sim.Time) (start, arrive sim.Time)
	Accept(src, dst int, size int64, arrive sim.Time) sim.Time
	Control(src, dst int, size int64, now sim.Time) sim.Time
}
