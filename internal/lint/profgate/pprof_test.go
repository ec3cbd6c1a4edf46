package profgate

import (
	"reflect"
	"testing"
)

// TestBuilderRoundTrip drives a profile through the encoder and back
// through the decoder: stacks, values, totals, and the declared sample
// type must survive.
func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder("samples", "count")
	b.Add(7, "pkg.Leaf", "pkg.Mid", "pkg.Root")
	b.Add(3, "pkg.Other", "pkg.Root")
	b.Add(5, "pkg.Leaf") // repeated function: interned once

	p, err := ParseProfile("rt.pprof", b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "rt.pprof" || p.SampleType != "samples" || p.SampleUnit != "count" {
		t.Errorf("header = %q %s/%s, want rt.pprof samples/count", p.Name, p.SampleType, p.SampleUnit)
	}
	if p.Total != 15 {
		t.Errorf("Total = %d, want 15", p.Total)
	}
	want := []Sample{
		{Stack: []string{"pkg.Leaf", "pkg.Mid", "pkg.Root"}, Value: 7},
		{Stack: []string{"pkg.Other", "pkg.Root"}, Value: 3},
		{Stack: []string{"pkg.Leaf"}, Value: 5},
	}
	if !reflect.DeepEqual(p.Samples, want) {
		t.Errorf("Samples = %+v, want %+v", p.Samples, want)
	}
}

// TestParsePackedAndCPUSelection hand-encodes a two-column profile
// ("samples"/"count" then "cpu"/"nanoseconds") with packed repeated
// fields — the encoding the Go runtime emits — and checks the decoder
// unpacks them and prefers the cpu column.
func TestParsePackedAndCPUSelection(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds", "pkg.F", "pkg.G"}
	idx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		t.Fatalf("unknown string %q", s)
		return 0
	}

	var out []byte
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt []byte
		vt = appendField(vt, 1, idx(st[0]))
		vt = appendField(vt, 2, idx(st[1]))
		out = appendMessage(out, 1, vt)
	}
	// One sample, stack G<-F, packed location ids and values.
	var locIDs, vals []byte
	locIDs = appendVarint(locIDs, 2) // leaf: location 2 (pkg.G)
	locIDs = appendVarint(locIDs, 1)
	vals = appendVarint(vals, 9)  // samples column
	vals = appendVarint(vals, 42) // cpu column
	var sm []byte
	sm = appendMessage(sm, 1, locIDs)
	sm = appendMessage(sm, 2, vals)
	out = appendMessage(out, 2, sm)
	// Locations 1 -> pkg.F, 2 -> pkg.G.
	for i, fn := range []string{"pkg.F", "pkg.G"} {
		id := uint64(i + 1)
		var line []byte
		line = appendField(line, 1, id)
		var loc []byte
		loc = appendField(loc, 1, id)
		loc = appendMessage(loc, 4, line)
		out = appendMessage(out, 4, loc)
		var f []byte
		f = appendField(f, 1, id)
		f = appendField(f, 2, idx(fn))
		out = appendMessage(out, 5, f)
	}
	for _, s := range strs {
		out = appendMessage(out, 6, []byte(s))
	}

	p, err := ParseProfile("packed", out) // raw (ungzipped) bytes must parse too
	if err != nil {
		t.Fatal(err)
	}
	if p.SampleType != "cpu" || p.SampleUnit != "nanoseconds" {
		t.Errorf("selected %s/%s, want cpu/nanoseconds", p.SampleType, p.SampleUnit)
	}
	if p.Total != 42 {
		t.Errorf("Total = %d, want the cpu column's 42", p.Total)
	}
	want := []Sample{{Stack: []string{"pkg.G", "pkg.F"}, Value: 42}}
	if !reflect.DeepEqual(p.Samples, want) {
		t.Errorf("Samples = %+v, want %+v", p.Samples, want)
	}
}
