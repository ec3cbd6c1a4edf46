package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/benchdiff"
	"repro/internal/lint/repolint"
)

// --- analyzer selection ---

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != len(repolint.All()) {
		t.Fatalf("selectAnalyzers(\"\") = %d analyzers, err %v; want the full suite (%d)",
			len(all), err, len(repolint.All()))
	}
	subset, err := selectAnalyzers("detflow, hotalloc")
	if err != nil {
		t.Fatal(err)
	}
	if len(subset) != 2 || subset[0].Name != "detflow" || subset[1].Name != "hotalloc" {
		t.Errorf("subset = %v, want [detflow hotalloc]", subset)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Error("selectAnalyzers(\"nosuch\") succeeded, want unknown-analyzer error")
	}
}

// --- standalone driver ---

// TestRunStandaloneCleanPackage lints the module (the tree is
// lint-clean, so the run must be too) through both output modes. The
// standalone loader resolves intra-module imports from the `go list`
// set, so the pattern must cover the whole module, rooted at go.mod.
func TestRunStandaloneCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; not short")
	}
	root := filepath.Join("..", "..")
	analyzers, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := runStandalone([]string{"./..."}, analyzers, false, true, "", root, &stdout, &stderr); code != 0 {
		t.Fatalf("plain mode exit %d, stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("plain clean run wrote to stdout: %q", stdout.String())
	}
	// -timing was set: the pretty printer must report every analyzer's
	// wall time on stderr.
	for _, a := range analyzers {
		if !strings.Contains(stderr.String(), a.Name) {
			t.Errorf("-timing table missing analyzer %s:\n%s", a.Name, stderr.String())
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := runStandalone([]string{"./..."}, analyzers, true, false, "", root, &stdout, &stderr); code != 0 {
		t.Fatalf("-json mode exit %d, stderr:\n%s", code, stderr.String())
	}
	// Whatever -json emits (suppressed findings included) must be one
	// well-formed object per line with the stable field set — now
	// followed by one timing record per analyzer.
	timings := make(map[string]bool)
	dec := json.NewDecoder(bytes.NewReader(stdout.Bytes()))
	for dec.More() {
		var raw map[string]any
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("-json output is not NDJSON: %v\n%s", err, stdout.String())
		}
		name, _ := raw["analyzer"].(string)
		if name == "" {
			t.Errorf("-json object missing analyzer field: %+v", raw)
		}
		if _, isTiming := raw["elapsed_ms"]; isTiming {
			timings[name] = true
			continue
		}
		if pos, _ := raw["pos"].(string); pos == "" {
			t.Errorf("-json diagnostic missing pos: %+v", raw)
		}
		if suppressed, _ := raw["suppressed"].(bool); !suppressed {
			t.Errorf("clean tree emitted an unsuppressed diagnostic: %+v", raw)
		}
	}
	for _, a := range analyzers {
		if !timings[a.Name] {
			t.Errorf("-json stream has no timing record for analyzer %s", a.Name)
		}
	}
}

// TestRunStandaloneDiagnostics seeds a diagnostic (the detcmd fixture
// under the lint testdata module is a real module the loader can list)
// and checks the exit code and -json wire format carry it.
func TestRunStandaloneDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages; not short")
	}
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "repro")
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		// The fixture tree is GOPATH-style (no go.mod): the standalone
		// loader needs a module, so synthesize one in a copy.
		dir = t.TempDir()
		writeFixtureModule(t, dir)
	}
	analyzers, err := selectAnalyzers("detflow")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := runStandalone([]string{"./..."}, analyzers, true, false, "", dir, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (diagnostics); stderr:\n%s", code, stderr.String())
	}
	var found bool
	dec := json.NewDecoder(bytes.NewReader(stdout.Bytes()))
	for dec.More() {
		var d jsonDiagnostic
		if err := dec.Decode(&d); err != nil {
			t.Fatalf("-json output: %v", err)
		}
		// Timing records share the stream but carry no position.
		if d.Analyzer == "detflow" && d.Pos != "" && !d.Suppressed {
			found = true
		}
	}
	if !found {
		t.Errorf("no unsuppressed detflow diagnostic in -json output:\n%s", stdout.String())
	}
}

// writeFixtureModule lays down a minimal module whose one package
// reads the wall clock inside a simulator package, which detflow bans.
func writeFixtureModule(t *testing.T, dir string) {
	t.Helper()
	files := map[string]string{
		"go.mod": "module repro\n\ngo 1.22\n",
		"internal/sim/clock.go": `package sim

import "time"

// Now leaks wall-clock time into the simulator.
func Now() time.Time { return time.Now() }
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// --- benchdiff subcommand ---

// benchStream writes a synthetic `go test -json` stream with the given
// benchmark metric lines.
func benchStream(t *testing.T, dir, name string, lines ...string) string {
	t.Helper()
	var b strings.Builder
	for _, l := range lines {
		ev := map[string]string{
			"Time":    "2026-08-05T01:39:57.0Z",
			"Action":  "output",
			"Package": "repro/internal/sim",
			"Output":  l + "\n",
		}
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const cleanBench = "BenchmarkSchedule-8\t35257432\t33.73 ns/op\t0 B/op\t0 allocs/op"

func TestBenchdiffUpdateAndCleanCompare(t *testing.T) {
	dir := t.TempDir()
	stream := benchStream(t, dir, "stream.json", cleanBench)
	baseline := filepath.Join(dir, "baseline.json")

	var stdout, stderr bytes.Buffer
	if code := benchdiffMain([]string{"-update", "-baseline", baseline, stream}, &stdout, &stderr); code != 0 {
		t.Fatalf("-update exit %d, stderr:\n%s", code, stderr.String())
	}
	first, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(first), "Time") {
		t.Errorf("baseline carries timestamps:\n%s", first)
	}

	// A second update from the same stream must be byte-identical: the
	// whole point of normalization is a stable diff.
	if code := benchdiffMain([]string{"-update", "-baseline", baseline, stream}, &stdout, &stderr); code != 0 {
		t.Fatalf("second -update exit %d", code)
	}
	second, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("baseline not stable across updates:\n%s\nvs\n%s", first, second)
	}

	stdout.Reset()
	stderr.Reset()
	if code := benchdiffMain([]string{"-baseline", baseline, stream}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean compare exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "BenchmarkSchedule") {
		t.Errorf("compare output missing the benchmark:\n%s", stdout.String())
	}
}

// TestBenchdiffSeededRegressions is the acceptance case: an allocs/op
// 0->1 bump and an out-of-band ns/op bump must each exit nonzero.
func TestBenchdiffSeededRegressions(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	clean := benchStream(t, dir, "clean.json", cleanBench)
	var stdout, stderr bytes.Buffer
	if code := benchdiffMain([]string{"-update", "-baseline", baseline, clean}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline update failed: %s", stderr.String())
	}

	cases := []struct {
		name string
		line string
	}{
		{"allocs 0 to 1", "BenchmarkSchedule-8\t35257432\t33.73 ns/op\t8 B/op\t1 allocs/op"},
		{"ns outside band", "BenchmarkSchedule-8\t35257432\t55.00 ns/op\t0 B/op\t0 allocs/op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := benchStream(t, dir, "bad.json", tc.line)
			var stdout, stderr bytes.Buffer
			code := benchdiffMain([]string{"-baseline", baseline, "-band", "25", stream}, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit %d, want 2; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), string(benchdiff.Regression)) {
				t.Errorf("no REGRESSION verdict in output:\n%s", stdout.String())
			}
		})
	}
}

func TestBenchdiffOperationalErrors(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer

	// Missing stream file.
	if code := benchdiffMain([]string{filepath.Join(dir, "nope.json")}, &stdout, &stderr); code != 1 {
		t.Errorf("missing stream: exit %d, want 1", code)
	}

	// Stream exists, baseline missing: must point at make bench-baseline.
	stream := benchStream(t, dir, "stream.json", cleanBench)
	stderr.Reset()
	if code := benchdiffMain([]string{"-baseline", filepath.Join(dir, "nope-baseline.json"), stream}, &stdout, &stderr); code != 1 {
		t.Errorf("missing baseline: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "bench-baseline") {
		t.Errorf("missing-baseline error does not mention the refresh target: %s", stderr.String())
	}

	// Malformed stream.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("this is not ndjson\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := benchdiffMain([]string{bad}, &stdout, &stderr); code != 1 {
		t.Errorf("malformed stream: exit %d, want 1", code)
	}

	// Bad flag.
	if code := benchdiffMain([]string{"-nosuchflag"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad flag: exit %d, want 1", code)
	}

	// Too many positional args.
	if code := benchdiffMain([]string{stream, stream}, &stdout, &stderr); code != 1 {
		t.Errorf("extra args: exit %d, want 1", code)
	}
}
