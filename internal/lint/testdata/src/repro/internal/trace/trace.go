// Package trace is a fixture stub of the real streaming trace
// pipeline: the typestate analyzer matches its constructors (NewStats,
// NewWriter, NewReader, New, ...) by this import path, so fixtures
// import it exactly as production code does. Bodies are inert — only
// the signatures and method names matter to the protocol specs.
package trace

import (
	"io"

	"repro/internal/sim"
)

// Sample mirrors one node's power sample.
type Sample struct{ Power float64 }

// Meta mirrors the trace geometry handed to Begin.
type Meta struct {
	Version    int
	Interval   sim.Duration
	NodeIDs    []int
	Components int
}

// Sink mirrors the streaming consumer interface.
type Sink interface {
	Begin(m Meta) error
	Tick(at sim.Time, row []Sample) error
	End() error
}

// Stats mirrors the incremental per-node statistics sink.
type Stats struct{}

func NewStats() *Stats                        { return &Stats{} }
func NewWindowStats(from, to sim.Time) *Stats { return &Stats{} }

func (s *Stats) Begin(m Meta) error                   { return nil }
func (s *Stats) Tick(at sim.Time, row []Sample) error { return nil }
func (s *Stats) End() error                           { return nil }

// Downsampler mirrors the online chart-series sink.
type Downsampler struct{}

func NewDownsampler(nodeID, maxPoints int) *Downsampler { return &Downsampler{} }

func (d *Downsampler) Begin(m Meta) error                   { return nil }
func (d *Downsampler) Tick(at sim.Time, row []Sample) error { return nil }
func (d *Downsampler) End() error                           { return nil }

// CSV mirrors the streaming CSV sink.
type CSV struct{}

func NewCSV(w io.Writer) *CSV { return &CSV{} }

func (c *CSV) Begin(m Meta) error                   { return nil }
func (c *CSV) Tick(at sim.Time, row []Sample) error { return nil }
func (c *CSV) End() error                           { return nil }

// Writer mirrors the binary archive writer.
type Writer struct{}

func NewWriter(w io.Writer) *Writer { return &Writer{} }

func (w *Writer) Begin(m Meta) error                   { return nil }
func (w *Writer) Tick(at sim.Time, row []Sample) error { return nil }
func (w *Writer) End() error                           { return nil }

// Reader mirrors the strict archive reader.
type Reader struct{ meta Meta }

func NewReader(r io.Reader) (*Reader, error) { return &Reader{}, nil }

func (r *Reader) Meta() Meta                 { return r.meta }
func (r *Reader) Next() ([]Sample, error)    { return nil, nil }
func (r *Reader) Replay(sinks ...Sink) error { return nil }

// NewFileWriter and NewFileCSV mirror the self-managing file sinks.
func NewFileWriter(path string) Sink { return &Writer{} }
func NewFileCSV(path string) Sink    { return &CSV{} }

// Config and Recorder mirror the sampling recorder. Nodes is
// simplified to ints — the analyzers never look at it.
type Config struct {
	Interval sim.Duration
	Nodes    []int
	Sinks    []Sink
}

type Recorder struct{}

func New(cfg Config) (*Recorder, error) { return &Recorder{}, nil }
func MustNew(cfg Config) *Recorder      { return &Recorder{} }

func (r *Recorder) Spawn(g *sim.Group, done func() bool) {}
func (r *Recorder) Close() error                         { return nil }
func (r *Recorder) Err() error                           { return nil }
