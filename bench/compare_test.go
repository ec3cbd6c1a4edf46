package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var parentRuns = []float64{1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "op_s_p50", Better: "lower", Bound: 0.10}
	noisy := []float64{1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.75, 1.1}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
		wins           int
	}{
		{"faster everywhere", parentRuns, scaled(parentRuns, 0.9), "improved", 10},
		{"slower beyond the bound", parentRuns, scaled(parentRuns, 1.2), "regressed", 0},
		{"slower within the bound", parentRuns, scaled(parentRuns, 1.05), "unchanged", 0},
		{"same runs", parentRuns, parentRuns, "unchanged", 0},
		{"spread wider than the bound", noisy, scaled(noisy, 1.02), "unresolved", 0},
		{"noisy but every change run better", noisy, scaled(noisy, 0.3), "improved", 10},
	} {
		v, wins, pairs := verdict(m, c.parent, c.change)
		if v != c.want || wins != c.wins || pairs != len(c.parent) {
			t.Errorf("%s: verdict %s with %d/%d wins, want %s with %d/%d", c.name, v, wins, pairs, c.want, c.wins, len(c.parent))
		}
	}
}

// writeRuns writes one report line per run, with every end-to-end
// metric set to the run's op time.
func writeRuns(t *testing.T, dir, name string, runs []float64, digestOf func(seed int) string) string {
	t.Helper()
	var b bytes.Buffer
	for i, v := range runs {
		seed := i + 1
		fmt.Fprintf(&b, `{"workload":"ft256","seed":%d,"traced":false,"digest":%q,"metrics":{`, seed, digestOf(seed))
		for j, m := range endToEnd {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `%q:{"value":%v,"unit":%q}`, m.Name, v, m.Unit)
		}
		b.WriteString("}}\n")
		fmt.Fprintf(&b, `{"correct":true,"attempted":1,"failed":0,"metrics":{}}`+"\n")
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	same := func(seed int) string { return fmt.Sprintf("d%d", seed) }
	parent := writeRuns(t, dir, "parent.json", parentRuns, same)
	faster := writeRuns(t, dir, "faster.json", scaled(parentRuns, 0.9), same)
	var out, errb bytes.Buffer
	if code := run([]string{"compare", parent, "--", faster}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	if got := strings.Count(out.String(), "improved"); got != len(endToEnd) {
		t.Errorf("%d improved rows, want %d:\n%s", got, len(endToEnd), out.String())
	}

	differs := writeRuns(t, dir, "differs.json", scaled(parentRuns, 1.2), func(seed int) string {
		if seed == 3 {
			return "other"
		}
		return same(seed)
	})
	out.Reset()
	if code := run([]string{"compare", parent, "--", differs}, &out, &errb); code != 1 {
		t.Errorf("regressed change exits %d, want 1", code)
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "DIGEST DIFFERS: ft256 seed 3") {
		t.Errorf("want regressed rows and a digest difference at seed 3:\n%s", out.String())
	}
}
