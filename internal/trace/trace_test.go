package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
)

// memSink retains everything — the seed Recorder's behavior,
// reimplemented as a test consumer so streaming output can be checked
// against the retain-in-memory formatting byte for byte.
type memSink struct {
	meta    Meta
	samples []Sample
	ended   bool
}

func (m *memSink) Begin(meta Meta) error { m.meta = meta; return nil }
func (m *memSink) Tick(at sim.Time, row []Sample) error {
	m.samples = append(m.samples, row...)
	return nil
}
func (m *memSink) End() error { m.ended = true; return nil }

// legacyCSV formats retained samples exactly the way the seed
// Recorder.WriteCSV did.
func legacyCSV(t *testing.T, samples []Sample) string {
	t.Helper()
	var sb strings.Builder
	cw := csv.NewWriter(&sb)
	header := []string{"time_s", "node", "freq_mhz", "state", "total_w"}
	for _, c := range power.Components() {
		header = append(header, c.String()+"_w")
	}
	if err := cw.Write(header); err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		row := []string{
			strconv.FormatFloat(s.At.Seconds(), 'f', 6, 64),
			strconv.Itoa(s.Node),
			strconv.Itoa(s.Freq.MHz()),
			s.State.String(),
			strconv.FormatFloat(float64(s.Total), 'f', 3, 64),
		}
		for _, c := range power.Components() {
			row = append(row, strconv.FormatFloat(float64(s.Component[c]), 'f', 3, 64))
		}
		if err := cw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// fixture runs a one-node workload with the given sinks attached and
// returns the recorder after Close.
func fixture(t *testing.T, sinks ...Sink) *Recorder {
	t.Helper()
	g := sim.NewGroup(1, sim.Millisecond)
	defer g.Close()
	n := machine.NewNode(g.Engine(0), 0, machine.DefaultParams())
	done := false
	r, err := New(Config{Interval: 100 * sim.Millisecond, Nodes: []*machine.Node{n}, Sinks: sinks})
	if err != nil {
		t.Fatal(err)
	}
	r.Spawn(g, func() bool { return done })
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		n.Compute(p, 1.4e9)          // 1s busy
		n.IdleFor(p, sim.Second)     // 1s idle
		n.MemoryRounds(p, 4_000_000) // ~0.46s memory
		done = true
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStreamedSamples(t *testing.T) {
	mem := &memSink{}
	fixture(t, mem)
	if !mem.ended {
		t.Fatal("End not called")
	}
	if len(mem.samples) < 20 {
		t.Fatalf("only %d samples", len(mem.samples))
	}
	if mem.meta.Interval != 100*sim.Millisecond || len(mem.meta.NodeIDs) != 1 {
		t.Fatalf("meta %+v", mem.meta)
	}
	seen := map[machine.State]bool{}
	for i, s := range mem.samples {
		if i > 0 && s.At <= mem.samples[i-1].At {
			t.Fatal("samples not strictly ordered")
		}
		var sum power.Watts
		for _, c := range power.Components() {
			sum += s.Component[c]
		}
		if math.Abs(float64(sum-s.Total)) > 1e-9 {
			t.Fatalf("components %v != total %v", sum, s.Total)
		}
		seen[s.State] = true
	}
	for _, want := range []machine.State{machine.Compute, machine.Idle, machine.MemoryStall} {
		if !seen[want] {
			t.Errorf("state %v never sampled", want)
		}
	}
}

// TestCSVMatchesRetainedPath pins the migration guarantee: the
// streaming CSV sink emits byte-identical output to the seed's
// retain-everything WriteCSV formatting.
func TestCSVMatchesRetainedPath(t *testing.T) {
	mem := &memSink{}
	var streamed bytes.Buffer
	fixture(t, mem, NewCSV(&streamed))
	want := legacyCSV(t, mem.samples)
	if streamed.String() != want {
		t.Fatal("streaming CSV differs from the retained-slice formatting")
	}
	if !strings.HasPrefix(streamed.String(), "time_s,node,freq_mhz,state,total_w,cpu_w") {
		t.Fatalf("header: %q", strings.SplitN(streamed.String(), "\n", 2)[0])
	}
}

// TestRoundTrip pins write→replay equality: every record decoded from
// the binary archive equals the record that was written, and a replay
// through the CSV sink matches the live CSV byte for byte.
func TestRoundTrip(t *testing.T) {
	mem := &memSink{}
	var bin bytes.Buffer
	var liveCSV bytes.Buffer
	fixture(t, mem, NewWriter(&bin), NewCSV(&liveCSV))

	rd, err := NewReader(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.Meta(); got.Interval != mem.meta.Interval ||
		!reflect.DeepEqual(got.NodeIDs, mem.meta.NodeIDs) ||
		got.Components != mem.meta.Components || got.Version != FormatVersion {
		t.Fatalf("meta mismatch: %+v vs %+v", got, mem.meta)
	}
	replayed := &memSink{}
	var replayCSV bytes.Buffer
	if err := rd.Replay(replayed, NewCSV(&replayCSV)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed.samples, mem.samples) {
		t.Fatalf("replayed records differ: %d vs %d samples", len(replayed.samples), len(mem.samples))
	}
	if replayCSV.String() != liveCSV.String() {
		t.Fatal("replayed CSV differs from live CSV")
	}
}

func TestReaderErrorPaths(t *testing.T) {
	var bin bytes.Buffer
	fixture(t, NewWriter(&bin))
	raw := bin.Bytes()

	// Corrupt magic.
	bad := append([]byte{}, raw...)
	bad[0] = 'X'
	if _, err := NewReader(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	// Unsupported version.
	bad = append([]byte{}, raw...)
	bad[4] = 99
	if _, err := NewReader(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: %v", err)
	}
	// Truncated header.
	if _, err := NewReader(bytes.NewReader(raw[:3])); err == nil {
		t.Fatal("3-byte header must error")
	}
	if _, err := NewReader(bytes.NewReader(raw[:5])); err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: %v", err)
	}
	// Truncated mid-record: cut a few bytes into the record stream.
	rd, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil { // find a record boundary is past header
		t.Fatal(err)
	}
	cut := len(raw) - 3
	rd, err = NewReader(bytes.NewReader(raw[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = rd.Next()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated record should be unexpected EOF, got %v", err)
	}
	// Clean EOF at a record boundary is io.EOF exactly.
	rd, err = NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = rd.Next()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("clean end should be io.EOF, got %v", err)
	}
	// A state of 2^63 is out of range, not a negative machine.State.
	var one bytes.Buffer
	w := NewWriter(&one)
	if err := w.Begin(Meta{Interval: 1000, NodeIDs: []int{0}, Components: power.NumComponents}); err != nil {
		t.Fatal(err)
	}
	rec := binary.AppendUvarint(one.Bytes(), 1000) // time delta
	rec = binary.AppendVarint(rec, 0)              // frequency
	rec = binary.AppendUvarint(rec, 1<<63)         // state
	for c := 0; c <= power.NumComponents; c++ {
		rec = binary.AppendUvarint(rec, 0) // total, then each component
	}
	rd, err = NewReader(bytes.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	if row, err := rd.Next(); err == nil || !strings.Contains(err.Error(), "state 9223372036854775808 out of range") {
		t.Fatalf("state 2^63: row %v, error %v", row, err)
	}
}

func TestStats(t *testing.T) {
	mem := &memSink{}
	st := NewStats()
	fixture(t, mem, st)
	if st.Ticks()*1 != len(mem.samples) {
		t.Fatalf("%d ticks for %d samples", st.Ticks(), len(mem.samples))
	}
	if !reflect.DeepEqual(st.Nodes(), []int{0}) {
		t.Fatalf("nodes %v", st.Nodes())
	}
	var sum, peak power.Watts
	for _, s := range mem.samples {
		sum += s.Total
		if s.Total > peak {
			peak = s.Total
		}
	}
	mean, err := st.MeanPower(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := sum / power.Watts(len(mem.samples)); math.Abs(float64(mean-want)) > 1e-9 {
		t.Fatalf("mean %v want %v", mean, want)
	}
	if mean < 10 || mean > 40 {
		t.Fatalf("implausible mean power %v", mean)
	}
	p, err := st.PeakPower(0)
	if err != nil {
		t.Fatal(err)
	}
	if p != peak {
		t.Fatalf("peak %v want %v", p, peak)
	}
	e, err := st.Energy(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := power.Joules(float64(sum) * 0.1); math.Abs(float64(e-want)) > 1e-6 {
		t.Fatalf("energy %v want %v", e, want)
	}
	if _, err := st.MeanPower(9); err == nil {
		t.Fatal("expected error for unknown node")
	}
}

func TestWindowStats(t *testing.T) {
	// The first simulated second is compute (high draw), the second
	// idle (low draw) — the window split the old MeanPower test used.
	busyW := NewWindowStats(0, sim.Time(sim.Second))
	idleW := NewWindowStats(sim.Time(1100*sim.Millisecond), sim.Time(1900*sim.Millisecond))
	emptyW := NewWindowStats(sim.Time(sim.Hour), sim.Time(2*sim.Hour))
	fixture(t, busyW, idleW, emptyW)
	busy, err := busyW.MeanPower(0)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := idleW.MeanPower(0)
	if err != nil {
		t.Fatal(err)
	}
	if busy < 25 || busy > 40 {
		t.Fatalf("busy power %v", busy)
	}
	if idle >= busy/2 {
		t.Fatalf("idle %v not well below busy %v", idle, busy)
	}
	if _, err := emptyW.MeanPower(0); err == nil {
		t.Fatal("expected error for empty window")
	}
}

func TestDownsampler(t *testing.T) {
	full := &memSink{}
	ds := NewDownsampler(0, 8)
	fixture(t, full, ds)
	xs, ys := ds.Series()
	if len(xs) == 0 || len(xs) > 8 || len(xs) != len(ys) {
		t.Fatalf("%d points for budget 8", len(xs))
	}
	// Every sample lands in exactly one bucket: the weighted mean of
	// the bucket means must equal the global mean.
	var total float64
	n := 0
	for _, s := range full.samples {
		total += float64(s.Total)
		n++
	}
	// Recompute from buckets.
	var btotal float64
	bn := 0
	for i := range ds.buckets {
		btotal += ds.buckets[i].v
		bn += ds.buckets[i].n
	}
	if bn != n || math.Abs(btotal-total) > 1e-9 {
		t.Fatalf("buckets cover %d/%v of %d/%v samples", bn, btotal, n, total)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatal("bucket times not increasing")
		}
	}
	// A downsampler for an unknown node fails at Begin (surfaced by New).
	e := sim.NewEngine()
	node := machine.NewNode(e, 0, machine.DefaultParams())
	if _, err := New(Config{Interval: sim.Second, Nodes: []*machine.Node{node},
		Sinks: []Sink{NewDownsampler(7, 8)}}); err == nil {
		t.Fatal("unknown node must fail Begin")
	}
	if _, err := New(Config{Interval: sim.Second, Nodes: []*machine.Node{node},
		Sinks: []Sink{NewDownsampler(0, 1)}}); err == nil {
		t.Fatal("budget < 2 must fail Begin")
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine()
	n := machine.NewNode(e, 0, machine.DefaultParams())
	cases := []Config{
		{Interval: sim.Second},                                                // no nodes
		{Nodes: []*machine.Node{n}},                                           // no interval
		{Interval: -1, Nodes: []*machine.Node{n}},                             // negative interval
		{Interval: sim.Second, Nodes: []*machine.Node{n}, Sinks: []Sink{nil}}, // nil sink
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNew must panic on invalid config")
			}
		}()
		MustNew(Config{})
	}()
	if r := MustNew(Config{Interval: sim.Second, Nodes: []*machine.Node{n}}); r == nil {
		t.Fatal("MustNew on a valid config")
	}
}

// failSink errors on demand to exercise the recorder's error latching.
type failSink struct {
	tickErr, endErr error
}

func (f *failSink) Begin(Meta) error              { return nil }
func (f *failSink) Tick(sim.Time, []Sample) error { return f.tickErr }
func (f *failSink) End() error                    { return f.endErr }

func TestRecorderErrorLatching(t *testing.T) {
	g := sim.NewGroup(1, sim.Millisecond)
	defer g.Close()
	n := machine.NewNode(g.Engine(0), 0, machine.DefaultParams())
	tickFail := errors.New("tick boom")
	mem := &memSink{}
	r, err := New(Config{Interval: 100 * sim.Millisecond, Nodes: []*machine.Node{n},
		Sinks: []Sink{&failSink{tickErr: tickFail}, mem}})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	r.Spawn(g, func() bool { return done })
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		n.IdleFor(p, sim.Second)
		done = true
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(r.Err(), tickFail) {
		t.Fatalf("Err() = %v", r.Err())
	}
	if err := r.Close(); !errors.Is(err, tickFail) {
		t.Fatalf("Close() = %v", err)
	}
	if len(mem.samples) != 0 {
		t.Fatal("later sinks must not see the row after an earlier sink failed")
	}
	// End errors surface from Close too.
	endFail := errors.New("end boom")
	r2 := MustNew(Config{Interval: sim.Second, Nodes: []*machine.Node{n},
		Sinks: []Sink{&failSink{endErr: endFail}}})
	if err := r2.Close(); !errors.Is(err, endFail) {
		t.Fatalf("Close() = %v", err)
	}
}
