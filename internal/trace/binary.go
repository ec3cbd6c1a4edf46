// Compact binary trace format: a versioned header followed by
// append-only tick records, varint-delta encoded in per-node columns.
// The codec is dependency-free and byte-deterministic: the same tick
// stream always encodes to the same bytes, which is what the
// sharded-vs-sequential equality gates compare. The Writer appends
// encoding/binary varints; the Reader decodes them from a fixed 4 KB
// window over its source, one-byte varints inline.
//
//	header:
//	  magic     "PWTR" (4 bytes)
//	  version   uvarint (FormatVersion)
//	  interval  uvarint, sampling period in ns
//	  nnodes    uvarint
//	  node ids  nnodes zigzag varints, delta vs the previous id
//	  ncomp     uvarint, per-component power columns
//	tick record (repeated until EOF; EOF is only legal between records):
//	  dt        uvarint, ns since the previous tick (first: absolute)
//	  freq col  nnodes zigzag varints, delta vs the same node's
//	            previous tick (first tick: vs 0)
//	  state col nnodes uvarints
//	  total col nnodes uvarints of float64 bits XOR the same node's
//	            previous bits (an unchanged draw encodes as one byte)
//	  comp cols ncomp × nnodes, same XOR scheme, column-major
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/dvfs"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
)

// FormatVersion is the binary trace format version this package
// writes; Reader rejects anything else.
const FormatVersion = 1

// magic identifies a binary power trace.
var magic = [4]byte{'P', 'W', 'T', 'R'}

// maxNodes bounds the node count a reader will believe, so a corrupt
// header cannot provoke an enormous allocation.
const maxNodes = 1 << 20

// Writer is the Sink that encodes the trace into the binary format.
// It holds one scratch buffer and the per-node delta state — O(nodes)
// regardless of run length — and emits one Write per tick.
type Writer struct {
	out      io.Writer
	nnodes   int
	ncomp    int
	scratch  []byte
	prevT    sim.Time
	prevFreq []int64
	prevBits []uint64 // nnodes × (1 + ncomp), node-major
	err      error
}

// NewWriter returns a binary trace sink writing to w. The caller owns
// w's buffering and lifetime (see NewFileWriter for a self-contained
// file variant).
func NewWriter(w io.Writer) *Writer { return &Writer{out: w} }

// Begin writes the header.
func (w *Writer) Begin(m Meta) error {
	if w.err != nil {
		return w.err
	}
	if len(m.NodeIDs) == 0 {
		return w.fail(errors.New("trace: writer: no nodes"))
	}
	if m.Interval <= 0 {
		return w.fail(errors.New("trace: writer: non-positive interval"))
	}
	w.nnodes = len(m.NodeIDs)
	w.ncomp = m.Components
	w.prevFreq = make([]int64, w.nnodes)
	w.prevBits = make([]uint64, w.nnodes*(1+w.ncomp))
	b := append(w.scratch[:0], magic[:]...)
	b = binary.AppendUvarint(b, FormatVersion)
	b = binary.AppendUvarint(b, uint64(m.Interval))
	b = binary.AppendUvarint(b, uint64(w.nnodes))
	prev := int64(0)
	for _, id := range m.NodeIDs {
		b = binary.AppendVarint(b, int64(id)-prev)
		prev = int64(id)
	}
	b = binary.AppendUvarint(b, uint64(w.ncomp))
	w.scratch = b
	if _, err := w.out.Write(b); err != nil {
		return w.fail(err)
	}
	return nil
}

// Tick appends one record. This is the record-append hot path: it runs
// once per sampling interval for the whole run, so it must stay free
// of per-tick allocations (the scratch buffer and delta arrays are
// reused; only amortized scratch growth allocates).
//
//lint:hotpath
func (w *Writer) Tick(at sim.Time, row []Sample) error {
	if w.err != nil {
		return w.err
	}
	if len(row) != w.nnodes {
		return w.fail(fmt.Errorf("trace: writer: row has %d nodes, header has %d", len(row), w.nnodes)) //lint:allow hotalloc (error path; healthy ticks never reach it)
	}
	if at < w.prevT {
		return w.fail(fmt.Errorf("trace: writer: tick at %v before previous %v", at, w.prevT)) //lint:allow hotalloc (error path; healthy ticks never reach it)
	}
	b := binary.AppendUvarint(w.scratch[:0], uint64(at.Sub(w.prevT)))
	w.prevT = at
	for i := range row {
		f := int64(row[i].Freq)
		b = binary.AppendVarint(b, f-w.prevFreq[i])
		w.prevFreq[i] = f
	}
	for i := range row {
		b = binary.AppendUvarint(b, uint64(row[i].State))
	}
	stride := 1 + w.ncomp
	for i := range row {
		bits := math.Float64bits(float64(row[i].Total))
		j := i * stride
		b = binary.AppendUvarint(b, bits^w.prevBits[j])
		w.prevBits[j] = bits
	}
	for c := 0; c < w.ncomp; c++ {
		for i := range row {
			bits := math.Float64bits(float64(row[i].Component[c]))
			j := i*stride + 1 + c
			b = binary.AppendUvarint(b, bits^w.prevBits[j])
			w.prevBits[j] = bits
		}
	}
	w.scratch = b
	if _, err := w.out.Write(b); err != nil {
		return w.fail(err)
	}
	return nil
}

// End reports any sticky error; the format needs no trailer (the
// stream is append-only and ends at any record boundary).
func (w *Writer) End() error { return w.err }

// fail latches the first error.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Reader replays an archived binary trace. Next decodes one tick into
// a reused row buffer; Replay drives a set of sinks through the whole
// stream, so every streaming consumer works identically on live runs
// and archives.
//
// The reader decodes from a fixed byte window over its source and
// refills the window only when it holds fewer bytes than the longest
// varint. A header's node count sizes the row and delta state, as it
// must, and nothing else: the window never grows.
type Reader struct {
	src      io.Reader
	srcErr   error // the source's first error; it surfaces once the bytes before it are decoded
	win      [windowSize]byte
	pos, end int // win[pos:end] is read from the source but not yet decoded
	meta     Meta
	row      []Sample
	prevT    sim.Time
	prevFreq []int64
	prevBits []uint64
}

// windowSize is the reader's byte window, bufio's default buffer size.
const windowSize = 4096

// maxEmptyReads is how many (0, nil) reads in a row the reader accepts
// from its source before it fails with io.ErrNoProgress, as bufio does.
const maxEmptyReads = 100

// nStates bounds a record's state column.
var nStates = uint64(len(machine.States()))

// errOverflow is encoding/binary's error, with its text, for a varint
// that does not fit 64 bits.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// NewReader parses the header and returns a reader positioned at the
// first record.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{src: r}
	rd.fill()
	if rd.end < len(magic) {
		err := rd.srcErr
		if rd.end > 0 {
			err = eofUnexpected(err)
		}
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if [4]byte(rd.win[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", rd.win[:len(magic)])
	}
	rd.pos = len(magic)
	version, err := rd.headerUvarint("version")
	if err != nil {
		return nil, err
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported format version %d (want %d)", version, FormatVersion)
	}
	interval, err := rd.headerUvarint("interval")
	if err != nil {
		return nil, err
	}
	if interval == 0 || interval > math.MaxInt64 {
		return nil, fmt.Errorf("trace: corrupt header: interval %d", interval)
	}
	nnodes, err := rd.headerUvarint("node count")
	if err != nil {
		return nil, err
	}
	if nnodes == 0 || nnodes > maxNodes {
		return nil, fmt.Errorf("trace: corrupt header: %d nodes", nnodes)
	}
	ids := make([]int, nnodes)
	prev := int64(0)
	for i := range ids {
		d, err := rd.headerUvarint("node id")
		if err != nil {
			return nil, err
		}
		prev += unzigzag(d)
		if prev < 0 {
			return nil, fmt.Errorf("trace: corrupt header: negative node id %d", prev)
		}
		ids[i] = int(prev)
	}
	ncomp, err := rd.headerUvarint("component count")
	if err != nil {
		return nil, err
	}
	if ncomp != uint64(power.NumComponents) {
		return nil, fmt.Errorf("trace: %d power components in header, this build models %d", ncomp, power.NumComponents)
	}
	rd.meta = Meta{
		Version:    int(version),
		Interval:   sim.Duration(interval),
		NodeIDs:    ids,
		Components: int(ncomp),
	}
	rd.row = make([]Sample, nnodes)
	rd.prevFreq = make([]int64, nnodes)
	rd.prevBits = make([]uint64, int(nnodes)*(1+int(ncomp)))
	for i, id := range ids {
		rd.row[i].Node = id
	}
	return rd, nil
}

// Meta returns the trace geometry. NodeIDs is shared with the reader;
// treat it as read-only.
func (r *Reader) Meta() Meta { return r.meta }

// Next decodes one tick. The returned row is valid until the next call
// (the buffer is reused). It returns io.EOF — and only io.EOF — at a
// clean end of stream; a stream truncated inside a record returns a
// wrapping of io.ErrUnexpectedEOF instead.
//
// It runs once per tick of every replay, so each column decodes in its
// own loop, one-byte varints inline, and it allocates nothing.
//
//lint:hotpath
func (r *Reader) Next() ([]Sample, error) {
	// A clean EOF is only legal before a record's first byte.
	if r.pos == r.end {
		r.fill()
		if r.pos == r.end {
			if errors.Is(r.srcErr, io.EOF) {
				return nil, io.EOF
			}
			return nil, r.srcErr
		}
	}
	dt, err := r.uvarint()
	if err != nil {
		return nil, recordErr("time delta", err)
	}
	if dt > math.MaxInt64 || sim.Duration(dt) < 0 {
		return nil, fmt.Errorf("trace: corrupt record: time delta %d", dt) //lint:allow hotalloc (error path; healthy records never reach it)
	}
	at := r.prevT.Add(sim.Duration(dt))
	if at < r.prevT {
		return nil, fmt.Errorf("trace: corrupt record: time delta %d overflows the clock at %v", dt, r.prevT) //lint:allow hotalloc (error path; healthy records never reach it)
	}
	r.prevT = at
	for i := range r.row {
		var v uint64
		if p := r.pos; p < r.end && r.win[p] < 0x80 {
			v, r.pos = uint64(r.win[p]), p+1
		} else if v, err = r.uvarint(); err != nil {
			return nil, recordErr("frequency", err)
		}
		r.prevFreq[i] += unzigzag(v)
		if r.prevFreq[i] < 0 {
			return nil, fmt.Errorf("trace: corrupt record: negative frequency for node %d", r.row[i].Node) //lint:allow hotalloc (error path; healthy records never reach it)
		}
		r.row[i].At = at
		r.row[i].Freq = dvfs.Hz(r.prevFreq[i])
	}
	for i := range r.row {
		var v uint64
		if p := r.pos; p < r.end && r.win[p] < 0x80 {
			v, r.pos = uint64(r.win[p]), p+1
		} else if v, err = r.uvarint(); err != nil {
			return nil, recordErr("state", err)
		}
		if v >= nStates {
			return nil, fmt.Errorf("trace: corrupt record: state %d out of range", v) //lint:allow hotalloc (error path; healthy records never reach it)
		}
		r.row[i].State = machine.State(v)
	}
	stride := 1 + r.meta.Components
	for i := range r.row {
		var v uint64
		if p := r.pos; p < r.end && r.win[p] < 0x80 {
			v, r.pos = uint64(r.win[p]), p+1
		} else if v, err = r.uvarint(); err != nil {
			return nil, recordErr("power", err)
		}
		j := i * stride
		r.prevBits[j] ^= v
		r.row[i].Total = power.Watts(math.Float64frombits(r.prevBits[j]))
	}
	for c := 0; c < r.meta.Components; c++ {
		for i := range r.row {
			var v uint64
			if p := r.pos; p < r.end && r.win[p] < 0x80 {
				v, r.pos = uint64(r.win[p]), p+1
			} else if v, err = r.uvarint(); err != nil {
				return nil, recordErr("power", err)
			}
			j := i*stride + 1 + c
			r.prevBits[j] ^= v
			r.row[i].Component[c] = power.Watts(math.Float64frombits(r.prevBits[j]))
		}
	}
	return r.row, nil
}

// Replay streams the whole remaining trace through the sinks: Begin
// with the archive's geometry, one Tick per record, then End.
func (r *Reader) Replay(sinks ...Sink) error {
	for _, s := range sinks {
		if err := s.Begin(r.meta); err != nil {
			return err
		}
	}
	for {
		row, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		at := row[0].At
		for _, s := range sinks {
			if err := s.Tick(at, row); err != nil {
				return err
			}
		}
	}
	for _, s := range sinks {
		if err := s.End(); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes one varint of any length from the window, refilling
// it first when a whole varint might not fit. Next's loops decode a
// one-byte varint themselves and call it for the rest. Out of bytes, it
// returns the source's error; io.EOF there is the caller's to judge.
func (r *Reader) uvarint() (uint64, error) {
	if r.end-r.pos < binary.MaxVarintLen64 {
		r.fill()
	}
	v, n := binary.Uvarint(r.win[r.pos:r.end])
	switch {
	case n > 0:
		r.pos += n
		return v, nil
	case n < 0 || r.end-r.pos >= binary.MaxVarintLen64:
		// binary.Uvarint reports ten continuation bytes as too short
		// when nothing follows them; binary.ReadUvarint calls that an
		// overflow too.
		return 0, errOverflow
	default:
		return 0, r.srcErr
	}
}

// fill slides the undecoded bytes to the window's front and reads until
// the window holds a whole varint's worth or the source fails. The
// source's error waits in srcErr until the bytes before it are decoded,
// as it does in bufio.
func (r *Reader) fill() {
	r.end = copy(r.win[:], r.win[r.pos:r.end])
	r.pos = 0
	empty := 0
	for r.end < binary.MaxVarintLen64 && r.srcErr == nil {
		n, err := r.src.Read(r.win[r.end:])
		r.end += n
		r.srcErr = err
		switch {
		case n > 0:
			empty = 0
		case err == nil:
			if empty++; empty == maxEmptyReads {
				r.srcErr = io.ErrNoProgress
			}
		}
	}
}

// headerUvarint decodes one header varint.
func (r *Reader) headerUvarint(what string) (uint64, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, fmt.Errorf("trace: short header (%s): %w", what, eofUnexpected(err))
	}
	return v, nil
}

// recordErr wraps an error inside a record, where running out of bytes
// is truncation, not a clean end. It keeps the formatting out of Next's
// loops.
func recordErr(what string, err error) error {
	return fmt.Errorf("trace: truncated record (%s): %w", what, eofUnexpected(err)) //lint:allow hotalloc (error path; healthy records never reach it)
}

// unzigzag undoes the zigzag sign encoding of binary.AppendVarint.
func unzigzag(u uint64) int64 {
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

// eofUnexpected upgrades a bare io.EOF to io.ErrUnexpectedEOF: inside
// a header or record, running out of bytes is corruption.
func eofUnexpected(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
