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
	streamDraws(tb, sinks, meta, row, ticks, drawEveryTick)
}

// drawEveryTick is the synthetic trace's draw of node i at tick t: its
// frequency, state and power change every tick, so most of an
// archive's varints take several bytes.
func drawEveryTick(t, i int, s *Sample) {
	s.Freq = dvfs.Hz(600e6 + int64((t+i)%5)*200e6)
	s.State = machine.State(uint64(t+i) % nStates)
	s.Total = power.Watts(10 + float64((t*7+i*3)%200)/10)
}

// drawSteady is drawEveryTick held for 32 ticks: a node's draw changes
// once per 32 ticks, the nodes staggered, as a traced run's nodes hold
// a frequency and a state across samples. Most of an archive's deltas
// are then zero and take one byte.
func drawSteady(t, i int, s *Sample) { drawEveryTick((t+i)/32, i, s) }

// streamDraws is streamTicks with the draw that sets each sample's
// frequency, state and total power; the total is split evenly over the
// components.
func streamDraws(tb testing.TB, sinks []Sink, meta Meta, row []Sample, ticks int, draw func(t, i int, s *Sample)) {
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
			draw(t, i, s)
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
	replayArchive(b, meta, archive.Bytes(), ticks)
}

func BenchmarkTraceReplay1x(b *testing.B)  { benchReplay(b, 512) }
func BenchmarkTraceReplay4x(b *testing.B)  { benchReplay(b, 2048) }
func BenchmarkTraceReplay16x(b *testing.B) { benchReplay(b, 8192) }

// BenchmarkTraceReplaySteady replays 2048 ticks of the 16-node trace
// whose draws mostly repeat from tick to tick (drawSteady), as a traced
// run's archives do: it times the reader's inline one-byte path, which
// the TraceReplay benches' several-byte varints pass by. It fails above
// 12 archive bytes per sample, where that path would no longer carry
// most of the decode, and reports the figure as B/sample.
func BenchmarkTraceReplaySteady(b *testing.B) {
	const ticks = 2048
	meta := benchMeta()
	var archive bytes.Buffer
	streamDraws(b, []Sink{NewWriter(&archive)}, meta, make([]Sample, len(meta.NodeIDs)), ticks, drawSteady)
	perSample := float64(archive.Len()) / float64(ticks*len(meta.NodeIDs))
	if perSample > 12 {
		b.Fatalf("the steady archive takes %.1f bytes per sample, want at most 12", perSample)
	}
	replayArchive(b, meta, archive.Bytes(), ticks)
	b.ReportMetric(perSample, "B/sample")
}

// replayArchive times the replay benches' op: it decodes archive, a
// trace of the given number of ticks, into Stats.
func replayArchive(b *testing.B, meta Meta, archive []byte, ticks int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		rd, err := NewReader(bytes.NewReader(archive))
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
