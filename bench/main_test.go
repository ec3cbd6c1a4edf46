package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestBadUsage: every malformed command line is an error and exit 2,
// never a panic and never a measurement.
func TestBadUsage(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "paper-fig3", "-ops", "0"},
		{"-workload", "paper-fig3", "-ops", "-3"},
		{"-workload", "paper-fig3", "-layers", filepath.Join(file, "spans")},
		{"-workload", "paper-fig3", "-trace", "2"},
		{"-workload", "paper-fig3", "-seconds", "-1"},
		{"-workload", "paper-fig3", "stray"},
		{"-no-such-flag"},
		{"compare"},
		{"compare", "a.json"},
		{"compare", "--", "b.json"},
		{"compare", "missing.json", "--", "missing.json"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if out.Len() != 0 || errb.Len() == 0 {
			t.Errorf("%q: stdout %q, stderr %q; want only an error", args, out.String(), errb.String())
		}
	}
}

// lastLine decodes the result line a run ends with and checks it has
// exactly the keys the benchmark's callers parse.
func lastLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("result keys %v", keys)
	}
	return res
}

func metricNames(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]metric
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func specNamesSorted(ms []metricSpec) []string {
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestRunPrintsResult runs paper-fig3 untraced and traced for one op
// each and checks the output contract: the result line's keys, every
// declared metric and no other, and a spans file from the traced run.
func TestRunPrintsResult(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "paper-fig3", "-ops", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	res := lastLine(t, out.String())
	if string(res["correct"]) != "true" || string(res["failed"]) != "0" {
		t.Errorf("result %s", out.String())
	}
	if got, want := metricNames(t, res["metrics"]), specNamesSorted(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("untraced metrics %v, want %v", got, want)
	}

	dir := t.TempDir()
	out.Reset()
	if code := run([]string{"-workload", "paper-fig3", "-ops", "2", "-layers", dir}, &out, &errb); code != 0 {
		t.Fatalf("traced exit %d: %s", code, errb.String())
	}
	res = lastLine(t, out.String())
	if got, want := metricNames(t, res["metrics"]), specNamesSorted(perLayer()); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("traced metrics %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "paper-fig3-seed1.spans.json")); err != nil {
		t.Error(err)
	}
}
