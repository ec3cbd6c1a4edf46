// Package profgate is the benchmark's dependency-free pprof codec: a
// minimal decoder and encoder for the pprof profile.proto wire format,
// standard library only. bench/run.sh -trace folds the CPU profile it
// records by simulator layer through ParseProfile, and the bench tests
// build synthetic profiles with NewBuilder. The module cannot vendor
// github.com/google/pprof, and the fold needs just one projection of a
// profile: per-sample call stacks of fully-qualified function names
// with a sample value. The decoder therefore resolves Sample ->
// Location -> Line -> Function -> name and discards mappings,
// addresses, labels, and comments; the encoder emits exactly the
// fields the decoder consumes, so what it builds round-trips.
//
// The import path is historical: the codec was written for a
// profile-guided lint analyzer, since retired. It stays because
// bench/layers.go and bench/layers_test.go import the codec by this
// path, and the benchmark module is kept unchanged so that successive
// commits are measured by the same harness.
//
// Field numbers follow github.com/google/pprof/proto/profile.proto:
//
//	Profile:  sample_type=1 sample=2 location=4 function=5
//	          string_table=6 default_sample_type=14
//	ValueType: type=1 unit=2
//	Sample:   location_id=1 value=2
//	Location: id=1 line=4
//	Line:     function_id=1 line=2
//	Function: id=1 name=2
package profgate

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// A Sample is one stack sample: the call stack as fully-qualified
// function names, leaf (innermost frame) first, inline frames expanded,
// and the sample's value in the profile's chosen sample type.
type Sample struct {
	Stack []string
	Value int64
}

// A Profile is the projection of one pprof CPU profile that the layer
// fold consumes.
type Profile struct {
	// Name labels the profile in error messages.
	Name string
	// SampleType and SampleUnit describe the value dimension that was
	// selected (e.g. "cpu"/"nanoseconds" or "samples"/"count").
	SampleType string
	SampleUnit string
	// Samples holds every stack sample with a nonzero value.
	Samples []Sample
	// Total is the sum of all sample values.
	Total int64
}

// ParseProfile decodes a pprof profile (gzipped or raw proto bytes),
// selecting the "cpu" sample type when present, otherwise the profile's
// default_sample_type, otherwise the last sample type — the same
// preference order the pprof tool applies to CPU profiles.
func ParseProfile(name string, data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile %s: %v", name, err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %v", name, err)
		}
		data = raw
	}
	p, err := decodeProfile(name, data)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %v", name, err)
	}
	return p, nil
}

// --- protobuf wire-format primitives ---

func readVarint(b []byte) (v uint64, n int, err error) {
	for shift := uint(0); n < len(b); shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n, nil
		}
		if shift >= 63 {
			return 0, 0, fmt.Errorf("varint overflows uint64")
		}
	}
	return 0, 0, io.ErrUnexpectedEOF
}

// walkFields iterates a protobuf message's fields. For wire type 0 the
// callback receives the varint value; for wire type 2 the payload
// bytes; 64-bit and 32-bit fields are skipped (the profile schema never
// needs them here).
func walkFields(data []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(data) > 0 {
		key, n, err := readVarint(data)
		if err != nil {
			return err
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n, err := readVarint(data)
			if err != nil {
				return err
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return io.ErrUnexpectedEOF
			}
			data = data[8:]
		case 2:
			l, n, err := readVarint(data)
			if err != nil {
				return err
			}
			data = data[n:]
			if uint64(len(data)) < l {
				return io.ErrUnexpectedEOF
			}
			if err := fn(field, 0, data[:l]); err != nil {
				return err
			}
			data = data[l:]
		case 5:
			if len(data) < 4 {
				return io.ErrUnexpectedEOF
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// readPacked decodes a repeated varint field that may arrive packed
// (payload) or as a single unpacked element (v).
func readPacked(v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(payload) > 0 {
		x, n, err := readVarint(payload)
		if err != nil {
			return nil, err
		}
		payload = payload[n:]
		out = append(out, x)
	}
	return out, nil
}

// --- profile decoding ---

type rawSample struct {
	locIDs []uint64
	values []int64
}

func decodeProfile(name string, data []byte) (*Profile, error) {
	var (
		strtab      []string
		sampleTypes [][2]uint64 // (type idx, unit idx)
		samples     []rawSample
		locFuncs    = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcNames   = make(map[uint64]uint64)   // function id -> name idx
		defaultType uint64
	)
	err := walkFields(data, func(field int, v uint64, payload []byte) error {
		switch field {
		case 1: // sample_type: ValueType
			var st [2]uint64
			if err := walkFields(payload, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					st[0] = v
				case 2:
					st[1] = v
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, st)
		case 2: // sample
			var s rawSample
			if err := walkFields(payload, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					ids, err := readPacked(v, p)
					if err != nil {
						return err
					}
					s.locIDs = append(s.locIDs, ids...)
				case 2:
					vals, err := readPacked(v, p)
					if err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			if err := walkFields(payload, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					var fid uint64
					if err := walkFields(p, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fid = lv
						}
						return nil
					}); err != nil {
						return err
					}
					fids = append(fids, fid)
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fids
		case 5: // function
			var id, nameIdx uint64
			if err := walkFields(payload, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					nameIdx = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = nameIdx
		case 6: // string_table
			strtab = append(strtab, string(payload))
		case 14:
			defaultType = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(sampleTypes) == 0 {
		return nil, fmt.Errorf("no sample types")
	}

	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}

	// Pick the value index: "cpu" if present, else default_sample_type,
	// else the last column.
	idx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		if str(st[0]) == "cpu" {
			idx = i
			break
		}
		if defaultType != 0 && str(st[0]) == str(defaultType) {
			idx = i
		}
	}

	p := &Profile{
		Name:       name,
		SampleType: str(sampleTypes[idx][0]),
		SampleUnit: str(sampleTypes[idx][1]),
	}
	for _, s := range samples {
		if idx >= len(s.values) {
			continue
		}
		v := s.values[idx]
		if v <= 0 {
			continue
		}
		var stack []string
		for _, lid := range s.locIDs {
			for _, fid := range locFuncs[lid] {
				if n := str(funcNames[fid]); n != "" {
					stack = append(stack, n)
				}
			}
		}
		if len(stack) == 0 {
			continue
		}
		p.Samples = append(p.Samples, Sample{Stack: stack, Value: v})
		p.Total += v
	}
	if p.Total == 0 {
		return nil, fmt.Errorf("no samples with a positive %q value", p.SampleType)
	}
	return p, nil
}

// --- profile encoding (synthetic test profiles) ---

// A Builder assembles a synthetic single-value-type profile for tests.
// Stacks are given leaf-first, matching the
// decoder's Sample.Stack order.
type Builder struct {
	sampleType, unit string
	strings          []string
	stringIdx        map[string]uint64
	funcIdx          map[string]uint64 // name -> function id (== location id)
	funcs            []string          // id-1 -> name
	samples          []Sample
}

// NewBuilder returns a Builder for a profile whose single sample type
// is sampleType/unit (e.g. "samples", "count").
func NewBuilder(sampleType, unit string) *Builder {
	b := &Builder{
		sampleType: sampleType,
		unit:       unit,
		stringIdx:  make(map[string]uint64),
		funcIdx:    make(map[string]uint64),
	}
	b.intern("") // string table index 0 must be ""
	return b
}

func (b *Builder) intern(s string) uint64 {
	if i, ok := b.stringIdx[s]; ok {
		return i
	}
	i := uint64(len(b.strings))
	b.strings = append(b.strings, s)
	b.stringIdx[s] = i
	return i
}

// Add records value samples of the given leaf-first stack.
func (b *Builder) Add(value int64, stack ...string) {
	for _, fn := range stack {
		if _, ok := b.funcIdx[fn]; !ok {
			b.intern(fn)
			b.funcs = append(b.funcs, fn)
			b.funcIdx[fn] = uint64(len(b.funcs))
		}
	}
	b.samples = append(b.samples, Sample{Stack: append([]string(nil), stack...), Value: value})
}

func appendVarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func appendField(dst []byte, field int, v uint64) []byte {
	dst = appendVarint(dst, uint64(field)<<3)
	return appendVarint(dst, v)
}

func appendMessage(dst []byte, field int, payload []byte) []byte {
	dst = appendVarint(dst, uint64(field)<<3|2)
	dst = appendVarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// Bytes serializes the profile, gzipped, ready to be written as a
// .pprof file or fed back to ParseProfile.
func (b *Builder) Bytes() []byte {
	var out []byte

	// sample_type
	var st []byte
	st = appendField(st, 1, b.intern(b.sampleType))
	st = appendField(st, 2, b.intern(b.unit))
	out = appendMessage(out, 1, st)

	// samples
	for _, s := range b.samples {
		var sm []byte
		for _, fn := range s.Stack {
			sm = appendField(sm, 1, b.funcIdx[fn]) // location id == function id
		}
		sm = appendField(sm, 2, uint64(s.Value))
		out = appendMessage(out, 2, sm)
	}

	// locations: one per function, one line each
	for i := range b.funcs {
		id := uint64(i + 1)
		var line []byte
		line = appendField(line, 1, id) // function_id
		line = appendField(line, 2, 1)  // line number
		var loc []byte
		loc = appendField(loc, 1, id)
		loc = appendMessage(loc, 4, line)
		out = appendMessage(out, 4, loc)
	}

	// functions
	for i, fn := range b.funcs {
		var f []byte
		f = appendField(f, 1, uint64(i+1))
		f = appendField(f, 2, b.stringIdx[fn])
		out = appendMessage(out, 5, f)
	}

	// string table, index order
	for _, s := range b.strings {
		out = appendMessage(out, 6, []byte(s))
	}

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(out); err != nil {
		panic(err) //lint:allow panicfree (in-memory gzip cannot fail; used by tests only)
	}
	if err := zw.Close(); err != nil {
		panic(err) //lint:allow panicfree (in-memory gzip cannot fail; used by tests only)
	}
	return buf.Bytes()
}
