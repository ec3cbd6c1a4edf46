package trace

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
)

// benchMeta is the geometry of the synthetic 16-node trace that the
// stream and replay benches share.
func benchMeta() Meta {
	const nodes = 16
	ids := make([]int, nodes)
	for i := range ids {
		ids[i] = i
	}
	return Meta{
		Version:    FormatVersion,
		Interval:   100 * sim.Millisecond,
		NodeIDs:    ids,
		Components: power.NumComponents,
	}
}

// streamTicks drives sinks through the synthetic trace: Begin, ticks
// rows built in the reused row buffer, then End.
func streamTicks(tb testing.TB, sinks []Sink, meta Meta, row []Sample, ticks int) {
	for _, sk := range sinks {
		if err := sk.Begin(meta); err != nil {
			tb.Fatal(err)
		}
	}
	at := sim.Time(0)
	for t := 0; t < ticks; t++ {
		for i := range row {
			s := &row[i]
			s.At = at
			s.Node = meta.NodeIDs[i]
			s.Freq = dvfs.Hz(600e6 + int64((t+i)%5)*200e6)
			s.State = machine.State(uint64(t+i) % nStates)
			s.Total = power.Watts(10 + float64((t*7+i*3)%200)/10)
			for c := 0; c < power.NumComponents; c++ {
				s.Component[c] = s.Total / power.Watts(power.NumComponents)
			}
		}
		for _, sk := range sinks {
			if err := sk.Tick(at, row); err != nil {
				tb.Fatal(err)
			}
		}
		at = at.Add(meta.Interval)
	}
	for _, sk := range sinks {
		if err := sk.End(); err != nil {
			tb.Fatal(err)
		}
	}
}

// benchTicks drives the full streaming pipeline (binary writer, stats,
// downsampler) with the synthetic trace of the given length. The
// per-op cost and allocations must stay flat as ticks grows: the
// pipeline is constant-memory in run length.
func benchTicks(b *testing.B, ticks int) {
	b.Helper()
	meta := benchMeta()
	row := make([]Sample, len(meta.NodeIDs))
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		streamTicks(b, []Sink{NewWriter(io.Discard), NewStats(), NewDownsampler(0, 64)}, meta, row, ticks)
	}
	b.SetBytes(int64(ticks * len(row)))
}

func BenchmarkTraceStream1x(b *testing.B)  { benchTicks(b, 512) }
func BenchmarkTraceStream4x(b *testing.B)  { benchTicks(b, 2048) }
func BenchmarkTraceStream16x(b *testing.B) { benchTicks(b, 8192) }

// benchReplay replays the archive of the synthetic trace of the given
// length through NewReader over a bytes.Reader into Stats. Allocations
// per op must be equal at every length: the reader decodes from a
// fixed window and reuses one row.
func benchReplay(b *testing.B, ticks int) {
	b.Helper()
	meta := benchMeta()
	var archive bytes.Buffer
	streamTicks(b, []Sink{NewWriter(&archive)}, meta, make([]Sample, len(meta.NodeIDs)), ticks)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		rd, err := NewReader(bytes.NewReader(archive.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		st := NewStats()
		if err := rd.Replay(st); err != nil {
			b.Fatal(err)
		}
		if st.Ticks() != ticks {
			b.Fatalf("replayed %d ticks, want %d", st.Ticks(), ticks)
		}
	}
	b.SetBytes(int64(ticks * len(meta.NodeIDs)))
}

func BenchmarkTraceReplay1x(b *testing.B)  { benchReplay(b, 512) }
func BenchmarkTraceReplay4x(b *testing.B)  { benchReplay(b, 2048) }
func BenchmarkTraceReplay16x(b *testing.B) { benchReplay(b, 8192) }
