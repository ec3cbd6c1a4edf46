package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/iotest"

	"repro/internal/dvfs"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
)

// fuzzSeed encodes a small canonical trace with the package's own
// Writer, so the corpus starts from well-formed streams the mutator
// can corrupt byte by byte.
func fuzzSeed(tb testing.TB, ticks int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	m := Meta{Interval: 1000, NodeIDs: []int{0, 3, 7}, Components: power.NumComponents}
	if err := w.Begin(m); err != nil {
		tb.Fatalf("seed Begin: %v", err)
	}
	row := make([]Sample, len(m.NodeIDs))
	for t := 0; t < ticks; t++ {
		for i, id := range m.NodeIDs {
			row[i] = Sample{
				Node:  id,
				Freq:  dvfs.Hz(2e9 + float64(t*i)*1e6),
				State: machine.State(i % 3),
				Total: power.Watts(40 + float64(t) + float64(i)),
			}
			for c := range row[i].Component {
				row[i].Component[c] = power.Watts(float64(c+1) * float64(t+1))
			}
		}
		if err := w.Tick(sim.Time(1000*(t+1)), row); err != nil {
			tb.Fatalf("seed Tick %d: %v", t, err)
		}
	}
	if err := w.End(); err != nil {
		tb.Fatalf("seed End: %v", err)
	}
	return buf.Bytes()
}

// FuzzTraceReader drives the PWTR binary decoder over arbitrary
// bytes. The decoder must never panic and never allocate beyond its
// hardened header bounds, whatever the input; it must decode the same
// rows and end with the same error whether its source hands it the
// bytes whole or one at a time; and any stream it decodes cleanly must
// survive a re-encode/re-decode round trip with identical samples —
// the byte-determinism property the sharded-vs-sequential equality
// gates rest on.
func FuzzTraceReader(f *testing.F) {
	f.Add(fuzzSeed(f, 0))
	f.Add(fuzzSeed(f, 1))
	f.Add(fuzzSeed(f, 5))
	full := fuzzSeed(f, 3)
	f.Add(full[:len(full)-3])                                          // truncated inside a record
	f.Add([]byte("PWTR"))                                              // header cut after the magic
	f.Add([]byte("NOPE nothing to see here"))                          // wrong magic
	f.Add([]byte{'P', 'W', 'T', 'R', 1, 0xE8, 0x07, 0xFF, 0xFF, 0x7F}) // huge node count

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, meta, err := decodeAll(t, bytes.NewReader(data))

		// The same bytes one at a time make the window refill before
		// nearly every varint: the outcome, the rows and the error
		// must not move.
		slow, _, slowErr := decodeAll(t, iotest.OneByteReader(bytes.NewReader(data)))
		if (slowErr == io.EOF) != (err == io.EOF) ||
			errors.Is(slowErr, io.ErrUnexpectedEOF) != errors.Is(err, io.ErrUnexpectedEOF) ||
			fmt.Sprint(slowErr) != fmt.Sprint(err) {
			t.Fatalf("one byte per read ends with %v, whole with %v", slowErr, err)
		}
		if !rowsEqual(slow, rows) {
			t.Fatalf("one byte per read decodes %d rows unlike whole's %d", len(slow), len(rows))
		}
		if err != io.EOF {
			return // rejected input: an error is the correct outcome
		}

		// Round trip: re-encode the decoded samples and decode again.
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Begin(meta); err != nil {
			t.Fatalf("re-encode Begin: %v", err)
		}
		for i, row := range rows {
			if err := w.Tick(row[0].At, row); err != nil {
				t.Fatalf("re-encode Tick %d: %v", i, err)
			}
		}
		again, meta2, err := decodeAll(t, &buf)
		if err != io.EOF {
			t.Fatalf("re-encoded stream did not decode: %v", err)
		}
		if len(meta2.NodeIDs) != len(meta.NodeIDs) {
			t.Fatalf("round trip changed node count: %d != %d", len(meta2.NodeIDs), len(meta.NodeIDs))
		}
		if !rowsEqual(again, rows) {
			t.Fatalf("round trip changed the samples: %d ticks, was %d", len(again), len(rows))
		}
	})
}

// decodeAll drains a stream through the Reader, copying each reused
// row. It returns the rows decoded before the first error, the
// geometry, and that error: NewReader's, or Next's, which is io.EOF
// exactly when the decoder accepts the whole stream.
func decodeAll(t *testing.T, r io.Reader) ([][]Sample, Meta, error) {
	t.Helper()
	rd, err := NewReader(r)
	if err != nil {
		return nil, Meta{}, err
	}
	var rows [][]Sample
	for {
		row, err := rd.Next()
		if err != nil {
			return rows, rd.Meta(), err
		}
		if len(row) != len(rd.Meta().NodeIDs) {
			t.Fatalf("decoded row has %d samples, header declares %d nodes", len(row), len(rd.Meta().NodeIDs))
		}
		rows = append(rows, append([]Sample(nil), row...))
	}
}

// rowsEqual compares decoded rows bit-exactly.
func rowsEqual(a, b [][]Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !sampleEqual(a[i][j], b[i][j]) {
				return false
			}
		}
	}
	return true
}

// sampleEqual compares samples bit-exactly: the codec stores float64
// bit patterns, so even NaN payloads smuggled in by the fuzzer must
// survive the round trip unchanged.
func sampleEqual(a, b Sample) bool {
	if a.At != b.At || a.Node != b.Node || a.State != b.State {
		return false
	}
	if math.Float64bits(float64(a.Freq)) != math.Float64bits(float64(b.Freq)) ||
		math.Float64bits(float64(a.Total)) != math.Float64bits(float64(b.Total)) {
		return false
	}
	for c := range a.Component {
		if math.Float64bits(float64(a.Component[c])) != math.Float64bits(float64(b.Component[c])) {
			return false
		}
	}
	return true
}
