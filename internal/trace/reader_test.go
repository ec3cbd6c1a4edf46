package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// chunkedSources hand the reader a stream the ways an io.Reader may:
// whole, one byte per read, half of each request, and with io.EOF on
// the read that returns the last bytes.
var chunkedSources = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"bytes.Reader", func(r io.Reader) io.Reader { return r }},
	{"OneByteReader", iotest.OneByteReader},
	{"HalfReader", iotest.HalfReader},
	{"DataErrReader", iotest.DataErrReader},
}

// TestReaderChunkedSources: the reader's window yields the same rows,
// and ends with the same error at the same record, however its source
// splits the bytes.
func TestReaderChunkedSources(t *testing.T) {
	full := fuzzSeed(t, 5)
	streams := []struct {
		name       string
		data       []byte
		rows       int
		unexpected bool // the stream ends with a wrapped io.ErrUnexpectedEOF, not io.EOF
	}{
		{"whole", full, 5, false},
		{"cut inside the last record", full[:len(full)-7], 4, true},
	}
	for _, st := range streams {
		want, _, wantErr := decodeAll(t, bytes.NewReader(st.data))
		for _, src := range chunkedSources {
			t.Run(st.name+"/"+src.name, func(t *testing.T) {
				rows, _, err := decodeAll(t, src.wrap(bytes.NewReader(st.data)))
				if len(rows) != st.rows || !rowsEqual(rows, want) {
					t.Errorf("decoded %d rows, want the %d rows of a whole read", len(rows), st.rows)
				}
				if st.unexpected && !errors.Is(err, io.ErrUnexpectedEOF) || !st.unexpected && err != io.EOF {
					t.Errorf("ends with %v, want unexpected EOF %v", err, st.unexpected)
				}
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("ends with %v, a whole read with %v", err, wantErr)
				}
			})
		}
	}
}

// TestReaderSourceError: a source's own error surfaces once the bytes
// before it are decoded, in the header, at a record boundary or inside
// a record.
func TestReaderSourceError(t *testing.T) {
	boom := errors.New("boom")
	full := fuzzSeed(t, 3)
	cases := []struct {
		name string
		data []byte
		rows int
	}{
		{"in the header", full[:6], 0},
		{"at a record boundary", full, 3},
		{"inside a record", full[:len(full)-7], 2},
	}
	for _, tc := range cases {
		for _, src := range chunkedSources {
			t.Run(tc.name+"/"+src.name, func(t *testing.T) {
				r := src.wrap(io.MultiReader(bytes.NewReader(tc.data), iotest.ErrReader(boom)))
				rows, _, err := decodeAll(t, r)
				if len(rows) != tc.rows || !errors.Is(err, boom) {
					t.Errorf("%d rows, then %v; want %d rows, then boom", len(rows), err, tc.rows)
				}
			})
		}
	}
}

// emptyReader returns (0, nil) forever and counts its reads.
type emptyReader struct{ reads int }

func (e *emptyReader) Read([]byte) (int, error) {
	e.reads++
	return 0, nil
}

// TestReaderNoProgress: a source that never returns a byte or an error
// ends the decode with io.ErrNoProgress after maxEmptyReads reads, as
// bufio does, wherever the bytes stop.
func TestReaderNoProgress(t *testing.T) {
	full := fuzzSeed(t, 2)
	cases := []struct {
		name string
		data []byte
		rows int
	}{
		{"before the magic", nil, 0},
		{"at a record boundary", full, 2},
		{"inside a record", full[:len(full)-7], 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			empty := &emptyReader{}
			rows, _, err := decodeAll(t, io.MultiReader(bytes.NewReader(tc.data), empty))
			if len(rows) != tc.rows || !errors.Is(err, io.ErrNoProgress) {
				t.Errorf("%d rows, then %v; want %d rows, then io.ErrNoProgress", len(rows), err, tc.rows)
			}
			if empty.reads != maxEmptyReads {
				t.Errorf("%d empty reads, want %d", empty.reads, maxEmptyReads)
			}
		})
	}
}

// TestReaderVarintOverflow: a record varint longer than 64 bits fails
// with the overflow error binary.ReadUvarint gives on the same bytes,
// never as truncation, whether the stream ends right after it or not.
// binary.Uvarint alone reports ten continuation bytes with nothing
// after them as a short buffer.
func TestReaderVarintOverflow(t *testing.T) {
	full := fuzzSeed(t, 2)
	ten := bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64)
	tenthAbove1 := append(bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64-1), 0x02)
	for _, column := range []struct {
		name   string
		before []byte // the record's bytes before the varint
	}{
		{"time delta", nil},
		{"frequency", []byte{0x01}},
	} {
		for _, v := range []struct {
			name         string
			varint, tail []byte
		}{
			{"ten continuation bytes at the end", ten, nil},
			{"ten continuation bytes, then more", ten, []byte{0x01, 0x01, 0x01}},
			{"tenth byte above 1 at the end", tenthAbove1, nil},
			{"tenth byte above 1, then more", tenthAbove1, []byte{0x01, 0x01, 0x01}},
		} {
			_, want := binary.ReadUvarint(bytes.NewReader(append(append([]byte(nil), v.varint...), v.tail...)))
			if want == nil {
				t.Fatalf("%s: binary.ReadUvarint accepts it", v.name)
			}
			data := append(append(append(append([]byte(nil), full...), column.before...), v.varint...), v.tail...)
			for _, src := range chunkedSources {
				t.Run(column.name+"/"+v.name+"/"+src.name, func(t *testing.T) {
					rows, _, err := decodeAll(t, src.wrap(bytes.NewReader(data)))
					if len(rows) != 2 || err == nil || errors.Is(err, io.ErrUnexpectedEOF) ||
						!strings.HasSuffix(err.Error(), "("+column.name+"): "+want.Error()) {
						t.Errorf("%d rows, then %v; want 2 rows, then (%s): %v", len(rows), err, column.name, want)
					}
				})
			}
		}
	}
}
