package benchdiff

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stream builds a minimal `go test -json` NDJSON stream from benchmark
// output lines, splitting one line across two Output events the way the
// real stream does (name first, metrics later).
func stream(lines ...string) string {
	var b strings.Builder
	b.WriteString(`{"Time":"2026-08-05T01:39:57.13Z","Action":"start","Package":"repro/internal/sim"}` + "\n")
	for _, l := range lines {
		name := l[:strings.IndexByte(l, '\t')]
		rest := l[len(name):]
		b.WriteString(`{"Time":"2026-08-05T01:39:58.36Z","Action":"output","Package":"repro/internal/sim","Output":"` + name + `"}` + "\n")
		b.WriteString(`{"Time":"2026-08-05T01:39:58.37Z","Action":"output","Package":"repro/internal/sim","Output":"` + strings.ReplaceAll(rest, "\t", `\t`) + `\n"}` + "\n")
	}
	b.WriteString(`{"Time":"2026-08-05T01:40:05.0Z","Action":"pass","Package":"repro/internal/sim"}` + "\n")
	return b.String()
}

func TestParseStreamMergesCounts(t *testing.T) {
	in := stream(
		"BenchmarkSchedule-8\t35257432\t        33.73 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkSchedule-8\t35257432\t        35.10 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkSchedule-8\t35257432\t        34.20 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkMailbox-8\t  942016\t      1138 ns/op\t       7 B/op\t       1 allocs/op",
	)
	rs, err := ParseStream(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(rs), rs)
	}
	// Normalized order: Mailbox < Schedule.
	mb, sched := rs[0], rs[1]
	if sched.Name != "BenchmarkSchedule" || sched.Runs != 3 || sched.NsPerOp != 33.73 {
		t.Errorf("Schedule = %+v, want name without -8, 3 runs, min 33.73 ns/op", sched)
	}
	if sched.BPerOp != 0 || sched.AllocsPerOp != 0 {
		t.Errorf("Schedule memory = %d B/op %d allocs/op, want 0/0", sched.BPerOp, sched.AllocsPerOp)
	}
	if mb.Name != "BenchmarkMailbox" || mb.BPerOp != 7 || mb.AllocsPerOp != 1 {
		t.Errorf("Mailbox = %+v, want 7 B/op 1 allocs/op", mb)
	}
}

func TestBaselineRoundTripIsStable(t *testing.T) {
	rs := []Result{
		{Package: "repro/internal/sim", Name: "BenchmarkSchedule", Runs: 3, NsPerOp: 33.73, BPerOp: 0, AllocsPerOp: 0},
		{Package: "repro", Name: "BenchmarkFig3FTClassB", Runs: 1, NsPerOp: 2.1e9, BPerOp: 12345, AllocsPerOp: 678},
	}
	var a, b bytes.Buffer
	if err := WriteBaseline(&a, rs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBaseline(&b, got); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("baseline round trip not byte-stable:\n%s\nvs\n%s", a.String(), b.String())
	}
	if strings.Contains(a.String(), "Time") {
		t.Errorf("baseline must not carry timestamps:\n%s", a.String())
	}
	// Canonical order: sorted by package then name, regardless of input order.
	if !strings.HasPrefix(a.String(), `{"package":"repro",`) {
		t.Errorf("baseline not sorted canonically:\n%s", a.String())
	}
}

func mkResult(name string, ns float64, bop, allocs int64) Result {
	return Result{Package: "repro/internal/sim", Name: name, Runs: 3, NsPerOp: ns, BPerOp: bop, AllocsPerOp: allocs}
}

func TestCompareGates(t *testing.T) {
	baseline := []Result{
		mkResult("BenchmarkMailbox", 1138, 0, 0),
		mkResult("BenchmarkSchedule", 33.73, 0, 0),
		mkResult("BenchmarkSleepWake", 519.4, 0, 0),
	}
	cases := []struct {
		name     string
		baseline []Result // nil: the shared baseline above
		current  []Result
		failures int
		verdicts map[string]Verdict
	}{
		{
			name: "clean within band",
			current: []Result{
				mkResult("BenchmarkMailbox", 1200, 0, 0),
				mkResult("BenchmarkSchedule", 34.9, 0, 0),
				mkResult("BenchmarkSleepWake", 519.4, 0, 0),
			},
			failures: 0,
		},
		{
			name: "alloc regression 0 to 1 is exact",
			current: []Result{
				mkResult("BenchmarkMailbox", 1138, 8, 1), // the seeded 0->1 regression
				mkResult("BenchmarkSchedule", 33.73, 0, 0),
				mkResult("BenchmarkSleepWake", 519.4, 0, 0),
			},
			failures: 1,
			verdicts: map[string]Verdict{"repro/internal/sim.BenchmarkMailbox": Regression},
		},
		{
			name: "ns regression outside band",
			current: []Result{
				mkResult("BenchmarkMailbox", 1138, 0, 0),
				mkResult("BenchmarkSchedule", 55.0, 0, 0), // +63% > 25% band
				mkResult("BenchmarkSleepWake", 519.4, 0, 0),
			},
			failures: 1,
			verdicts: map[string]Verdict{"repro/internal/sim.BenchmarkSchedule": Regression},
		},
		{
			name: "missing gated benchmark fails",
			current: []Result{
				mkResult("BenchmarkMailbox", 1138, 0, 0),
				mkResult("BenchmarkSchedule", 33.73, 0, 0),
			},
			failures: 1,
			verdicts: map[string]Verdict{"repro/internal/sim.BenchmarkSleepWake": Missing},
		},
		{
			name: "improvement and new bench do not fail",
			current: []Result{
				mkResult("BenchmarkMailbox", 600, 0, 0),
				mkResult("BenchmarkSchedule", 33.73, 0, 0),
				mkResult("BenchmarkSleepWake", 519.4, 0, 0),
				mkResult("BenchmarkBrandNew", 10, 0, 0),
			},
			failures: 0,
			verdicts: map[string]Verdict{
				"repro/internal/sim.BenchmarkMailbox":  Improved,
				"repro/internal/sim.BenchmarkBrandNew": New,
			},
		},
		{
			// Memory fields gate within MemBandPct of a nonzero
			// baseline, so a line can fall in one field and rise in
			// another without failing; only a line with no field above
			// its baseline is Improved.
			name: "improved only when no field rose",
			baseline: []Result{
				mkResult("BenchmarkMailbox", 1138, 1000, 10),
				mkResult("BenchmarkSchedule", 33.73, 1000, 10),
				mkResult("BenchmarkSleepWake", 519.4, 1000, 10),
			},
			current: []Result{
				mkResult("BenchmarkMailbox", 1260, 1000, 7),    // ns/op +10.7% inside the band, allocs/op down
				mkResult("BenchmarkSchedule", 33.73, 1010, 7),  // B/op +1% inside MemBandPct, allocs/op down
				mkResult("BenchmarkSleepWake", 519.4, 1000, 7), // ns/op flat, allocs/op down
			},
			failures: 0,
			verdicts: map[string]Verdict{
				"repro/internal/sim.BenchmarkMailbox":   OK,
				"repro/internal/sim.BenchmarkSchedule":  OK,
				"repro/internal/sim.BenchmarkSleepWake": Improved,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := baseline
			if tc.baseline != nil {
				base = tc.baseline
			}
			deltas, failures := Compare(base, tc.current, 25)
			if failures != tc.failures {
				t.Errorf("failures = %d, want %d; deltas: %+v", failures, tc.failures, deltas)
			}
			got := make(map[string]Verdict)
			for _, d := range deltas {
				got[d.Key] = d.Verdict
			}
			for key, want := range tc.verdicts {
				if got[key] != want {
					t.Errorf("%s: verdict %s, want %s", key, got[key], want)
				}
			}
		})
	}
}

// TestCompareMemoryBand pins the two-tier memory gate: a zero baseline
// is exact (any allocation fails), while a nonzero baseline — the big
// end-to-end benches, whose allocs/op jitters by a handful per run with
// goroutine stack growth — tolerates MemBandPct, whatever the ns/op
// band.
func TestCompareMemoryBand(t *testing.T) {
	baseline := []Result{mkResult("BenchmarkCampaign8Par", 900000, 92000, 825)}

	inBand := []Result{mkResult("BenchmarkCampaign8Par", 900000, 92400, 831)} // +0.4% B, +0.7% allocs
	if deltas, failures := Compare(baseline, inBand, 40); failures != 0 {
		t.Errorf("in-band memory jitter failed the gate: %+v", deltas)
	}

	for _, c := range []struct {
		name    string
		current Result
	}{
		{"allocs +3%", mkResult("BenchmarkCampaign8Par", 900000, 92000, 850)},
		{"B/op +3%", mkResult("BenchmarkCampaign8Par", 900000, 94760, 825)},
		{"allocs +33%", mkResult("BenchmarkCampaign8Par", 900000, 92000, 1100)},
	} {
		deltas, failures := Compare(baseline, []Result{c.current}, 40)
		if failures != 1 || deltas[0].Verdict != Regression {
			t.Errorf("%s inside a 40%% ns/op band not gated: failures=%d deltas=%+v", c.name, failures, deltas)
		}
	}
}

// TestCompareMemoryStatsDisappearing pins the -benchmem guard: a
// baseline with memory stats cannot be satisfied by a stream without
// them.
func TestCompareMemoryStatsDisappearing(t *testing.T) {
	baseline := []Result{mkResult("BenchmarkSchedule", 33.73, 0, 0)}
	current := []Result{{Package: "repro/internal/sim", Name: "BenchmarkSchedule", Runs: 1, NsPerOp: 33.73, BPerOp: -1, AllocsPerOp: -1}}
	_, failures := Compare(baseline, current, 25)
	if failures != 1 {
		t.Errorf("failures = %d, want 1 when memory stats disappear", failures)
	}
}

// TestParseStreamRealArchive parses a verbatim archive that `make
// bench` wrote, which keeps the parser honest against the real `go test
// -json` framing (split output lines, interleaved packages, the lint
// benches' -benchtime 1x).
func TestParseStreamRealArchive(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ParseStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no benchmarks parsed from BENCH_sim.json")
	}
	for _, r := range rs {
		if r.NsPerOp <= 0 {
			t.Errorf("%s: ns/op %v not positive", r.Key(), r.NsPerOp)
		}
		if strings.HasSuffix(r.Name, "-8") {
			t.Errorf("%s: GOMAXPROCS suffix not stripped", r.Name)
		}
	}
}
