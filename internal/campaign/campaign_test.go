package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

const miniSpec = `{
	"name": "mini",
	"reps": 1,
	"settle": "30s",
	"exact_energy": true,
	"workloads": [
		{"kind": "swim", "iters": 20},
		{"kind": "ft", "class": "A", "procs": 4, "iters": 1}
	],
	"strategies": [
		{"kind": "static"},
		{"kind": "cpuspeed"}
	],
	"points_mhz": [1400, 600]
}`

func TestParseValid(t *testing.T) {
	s, err := Parse(strings.NewReader(miniSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mini" || len(s.Workloads) != 2 || len(s.Strategies) != 2 {
		t.Fatalf("spec %+v", s)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := []string{
		`{`, // malformed
		`{"workloads": [], "strategies": [{"kind":"static"}]}`,                // no workloads
		`{"workloads": [{"kind":"swim"}], "strategies": []}`,                  // no strategies
		`{"workloads": [{"kind":"nope"}], "strategies": [{"kind":"static"}]}`, // bad workload
		`{"workloads": [{"kind":"swim"}], "strategies": [{"kind":"nope"}]}`,   // bad strategy
		`{"workloads": [{"kind":"swim"}], "strategies": [{"kind":"static"}], "net": "carrier-pigeon"}`,
		`{"workloads": [{"kind":"swim"}], "strategies": [{"kind":"static"}], "settle": "soon"}`,
		`{"workloads": [{"kind":"swim"}], "strategies": [{"kind":"static"}], "bogus": 1}`,                 // unknown field
		`{"workloads": [{"kind":"swim"}], "strategies": [{"kind":"static"}], "trace_interval_ms": -1}`,    // negative trace interval
		`{"workloads": [{"kind":"swim"}], "strategies": [{"kind":"static"}], "reps": -1}`,                 // negative reps
		`{"workloads": [{"kind":"swim"}], "strategies": [{"kind":"static"}], "parallelism": -1}`,          // negative parallelism
		`{"workloads": [{"kind":"swim"}], "strategies": [{"kind":"static"}], "trace_dir": "/tmp/traces"}`, // dir without interval
	}
	for i, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBuildAllWorkloadKinds(t *testing.T) {
	kinds := []string{"ft", "ep", "cg", "is", "mg", "lu", "transpose",
		"summa", "swim", "mgrid", "membench", "cachebench", "regbench",
		"comm256k", "comm4k"}
	for _, k := range kinds {
		ws := WorkloadSpec{Kind: k, Procs: 4}
		if k == "summa" {
			ws.Size = 1024
			ws.Procs = 4
		}
		w, err := buildWorkload(ws)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if w.Name() == "" || w.Ranks() < 1 {
			t.Fatalf("%s: bad workload", k)
		}
	}
}

func TestBuildAllStrategyKinds(t *testing.T) {
	for _, k := range []string{"static", "dynamic", "cpuspeed", "adaptive", "slack"} {
		s, err := buildStrategy(StrategySpec{Kind: k, IntervalMS: 500})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if s.Name() == "" {
			t.Fatalf("%s: no name", k)
		}
	}
}

func TestPointsResolution(t *testing.T) {
	s, err := Parse(strings.NewReader(miniSpec))
	if err != nil {
		t.Fatal(err)
	}
	idxs, err := s.points(s.config().Machine.Table)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) != 2 || idxs[0] != 0 || idxs[1] != 4 {
		t.Fatalf("points %v", idxs)
	}
	s.PointsMHz = nil
	idxs, err = s.points(s.config().Machine.Table)
	if err != nil || len(idxs) != 5 {
		t.Fatalf("all points: %v %v", idxs, err)
	}
	s.PointsMHz = []int{333}
	if _, err := s.points(s.config().Machine.Table); err == nil {
		t.Fatal("unknown MHz must error")
	}
}

func TestRunMiniCampaign(t *testing.T) {
	s, err := Parse(strings.NewReader(miniSpec))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	results, err := Run(s, func(l string) { lines = append(lines, l) })
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads × (static×2 points + cpuspeed×1) = 6 cells.
	if len(results) != 6 {
		t.Fatalf("%d results", len(results))
	}
	if len(lines) != len(results) {
		t.Fatalf("%d progress lines", len(lines))
	}
	for _, r := range results {
		if r.EnergyJ <= 0 || r.DelayS <= 0 || r.Reps != 1 || r.Campaign != "mini" {
			t.Fatalf("bad result %+v", r)
		}
	}
	// Static at 600 saves energy vs 1400 on swim.
	var e1400, e600 float64
	for _, r := range results {
		if r.Workload == "swim" && r.Strategy == "static" {
			if r.Point == "1.4GHz" {
				e1400 = r.EnergyJ
			} else {
				e600 = r.EnergyJ
			}
		}
	}
	if e600 >= e1400 {
		t.Fatalf("600MHz did not save energy: %v vs %v", e600, e1400)
	}
}

func TestCampaignTraceArchiving(t *testing.T) {
	dir := t.TempDir()
	s := &Spec{
		Name:            "traced",
		Reps:            1,
		Settle:          "30s",
		ExactEnergy:     true,
		TraceIntervalMS: 250,
		TraceDir:        dir,
		Workloads:       []WorkloadSpec{{Kind: "swim", Iters: 20}},
		Strategies:      []StrategySpec{{Kind: "static"}},
		PointsMHz:       []int{1400},
	}
	results, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("%d results", len(results))
	}
	if results[0].PeakPowerW <= 0 {
		t.Fatalf("no peak power: %+v", results[0])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d archives for 1 cell × 1 rep", len(entries))
	}
	name := entries[0].Name()
	if !strings.HasPrefix(name, "traced-swim-static-1.4GHz-") || !strings.HasSuffix(name, ".trc") {
		t.Fatalf("archive name %q", name)
	}
	// The archive replays: its peak matches the reported one.
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	}()
	rd, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewStats()
	if err := rd.Replay(st); err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, id := range st.Nodes() {
		p, err := st.PeakPower(id)
		if err != nil {
			t.Fatal(err)
		}
		if float64(p) > peak {
			peak = float64(p)
		}
	}
	if peak != results[0].PeakPowerW {
		t.Fatalf("replayed peak %v, reported %v", peak, results[0].PeakPowerW)
	}
}

func TestOutputFormats(t *testing.T) {
	results := []Result{
		{Campaign: "x", Workload: "swim", Strategy: "static", Point: "1.4GHz", EnergyJ: 100, DelayS: 10, Reps: 1},
		{Campaign: "x", Workload: "swim", Strategy: "static", Point: "600MHz", EnergyJ: 64, DelayS: 11.8, Reps: 1},
	}
	var jsonOut strings.Builder
	if err := WriteJSON(&jsonOut, results); err != nil {
		t.Fatal(err)
	}
	var parsed []Result
	if err := json.Unmarshal([]byte(jsonOut.String()), &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 || parsed[1].EnergyJ != 64 {
		t.Fatalf("round trip %+v", parsed)
	}
	var tbl strings.Builder
	if err := WriteTable(&tbl, results); err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "0.640") || !strings.Contains(out, "1.180") {
		t.Fatalf("table:\n%s", out)
	}
}
