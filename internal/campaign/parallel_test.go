package campaign

import (
	"reflect"
	"strings"
	"testing"
)

// parSpec returns a parsed copy of the mini campaign with the given
// parallelism. Each call parses afresh so the two sides of an
// equivalence test share no resolved state.
func parSpec(t testing.TB, parallelism int) *Spec {
	t.Helper()
	s, err := Parse(strings.NewReader(miniSpec))
	if err != nil {
		t.Fatal(err)
	}
	s.Parallelism = parallelism
	return s
}

// TestCampaignParallelEquivalence is the acceptance gate for the
// campaign fan-out: Parallelism 1 and 8 must produce identical
// []Result — down to the serialized bytes — and the same progress
// stream in the same order.
func TestCampaignParallelEquivalence(t *testing.T) {
	var seqLines []string
	seq, err := Run(parSpec(t, 1), func(l string) { seqLines = append(seqLines, l) })
	if err != nil {
		t.Fatal(err)
	}
	var parLines []string
	par, err := Run(parSpec(t, 8), func(l string) { parLines = append(parLines, l) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel results differ:\nseq %+v\npar %+v", seq, par)
	}
	var seqJSON, parJSON strings.Builder
	if err := WriteJSON(&seqJSON, seq); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&parJSON, par); err != nil {
		t.Fatal(err)
	}
	if seqJSON.String() != parJSON.String() {
		t.Errorf("result JSON differs:\nseq %s\npar %s", seqJSON.String(), parJSON.String())
	}
	if !reflect.DeepEqual(seqLines, parLines) {
		t.Errorf("progress lines differ:\nseq %q\npar %q", seqLines, parLines)
	}
}

// TestRunHandBuiltSpec covers the code path where a Spec is assembled
// in Go rather than parsed from JSON: Run must resolve (and validate)
// it itself.
func TestRunHandBuiltSpec(t *testing.T) {
	s := &Spec{
		Name:        "handmade",
		Reps:        1,
		Settle:      "30s",
		ExactEnergy: true,
		Workloads:   []WorkloadSpec{{Kind: "swim", Iters: 10}},
		Strategies:  []StrategySpec{{Kind: "static"}},
		PointsMHz:   []int{1400},
	}
	results, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].EnergyJ <= 0 {
		t.Fatalf("results %+v", results)
	}

	bad := &Spec{
		Workloads:  []WorkloadSpec{{Kind: "swim"}},
		Strategies: []StrategySpec{{Kind: "static"}},
		Settle:     "soon",
	}
	if _, err := Run(bad, nil); err == nil {
		t.Fatal("hand-built spec with bad settle must fail in Run")
	}
	neg := &Spec{
		Workloads:   []WorkloadSpec{{Kind: "swim"}},
		Strategies:  []StrategySpec{{Kind: "static"}},
		Parallelism: -2,
	}
	if _, err := Run(neg, nil); err == nil {
		t.Fatal("negative parallelism must fail in Run")
	}
}

// TestBuildWorkloadRejectsUnknownClass pins the satellite fix: an NPB
// class outside {A, B, C} must surface as a spec error, not a panic
// inside the kernel constructors.
func TestBuildWorkloadRejectsUnknownClass(t *testing.T) {
	for _, class := range []string{"Z", "D", "a", "AB"} {
		for _, kind := range []string{"ft", "ep", "cg", "is", "mg", "lu"} {
			if _, err := buildWorkload(WorkloadSpec{Kind: kind, Class: class}); err == nil {
				t.Errorf("%s class %q: expected error", kind, class)
			}
		}
	}
	// Non-NPB kinds ignore Class entirely.
	if _, err := buildWorkload(WorkloadSpec{Kind: "swim", Class: "Z"}); err != nil {
		t.Errorf("swim must ignore class: %v", err)
	}
	// Negative rank counts are rejected before reaching a constructor.
	if _, err := buildWorkload(WorkloadSpec{Kind: "ft", Class: "A", Procs: -1}); err == nil {
		t.Error("negative procs: expected error")
	}
}

// TestSettleParsedOnce verifies the resolved settle duration is fixed
// at Parse time and actually reaches the runner config.
func TestSettleParsedOnce(t *testing.T) {
	s, err := Parse(strings.NewReader(miniSpec))
	if err != nil {
		t.Fatal(err)
	}
	want := s.settle
	if want <= 0 {
		t.Fatalf("settle not resolved at Parse: %v", want)
	}
	if got := s.config().Settle; got != want {
		t.Fatalf("config settle %v, resolved %v", got, want)
	}
}

// benchSpec is an 8-cell matrix (2 workloads × static × 4 points) used
// by the campaign throughput benchmarks; bin/BENCH_sim.json records the
// sequential-vs-parallel pair so the fan-out speedup is tracked on
// multi-core runners.
const benchSpec = `{
	"name": "bench8",
	"reps": 1,
	"settle": "30s",
	"exact_energy": true,
	"workloads": [
		{"kind": "swim", "iters": 40},
		{"kind": "membench", "iters": 40}
	],
	"strategies": [{"kind": "static"}],
	"points_mhz": [1400, 1200, 1000, 800]
}`

func benchCampaign(b *testing.B, parallelism int) {
	b.Helper()
	s, err := Parse(strings.NewReader(benchSpec))
	if err != nil {
		b.Fatal(err)
	}
	s.Parallelism = parallelism
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := Run(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 8 {
			b.Fatalf("%d results", len(results))
		}
	}
}

// BenchmarkCampaign8Seq and BenchmarkCampaign8Par run the same 8-cell
// matrix at parallelism 1 and 8; their ratio is the campaign fan-out
// speedup for the machine the benchmark ran on.
func BenchmarkCampaign8Seq(b *testing.B) { benchCampaign(b, 1) }

func BenchmarkCampaign8Par(b *testing.B) { benchCampaign(b, 8) }
