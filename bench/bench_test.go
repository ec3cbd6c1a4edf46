package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// skipHeavy skips the 256-rank workloads under -short and the race
// detector, where one op takes many seconds.
func skipHeavy(t *testing.T, name string) {
	t.Helper()
	if strings.HasPrefix(name, "ft256") && (testing.Short() || raceEnabled) {
		t.Skip("256-rank workload skipped under -short and the race detector")
	}
}

func opDigest(t *testing.T, sp spec, pr *probes) string {
	t.Helper()
	op, err := sp.build(1, pr)
	if err != nil {
		t.Fatal(err)
	}
	out, err := op()
	if err != nil {
		t.Fatal(err)
	}
	d, err := digest(out)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCommittedDigests runs one op of every workload at seed 1, untraced
// and traced, and requires the committed digest from both: the
// simulator's outputs are pinned from outside, and the probes a traced
// run installs change nothing it simulates.
func TestCommittedDigests(t *testing.T) {
	committed, err := committedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			skipHeavy(t, sp.name)
			want, ok := committed[sp.name]
			if !ok {
				t.Fatalf("no committed digest for %s", sp.name)
			}
			if got := opDigest(t, sp, nil); got != want {
				t.Errorf("digest %s, committed %s", got, want)
			}
			if got := opDigest(t, sp, newProbes()); got != want {
				t.Errorf("traced digest %s, committed %s", got, want)
			}
		})
	}
}

// TestReferenceDigestsAgree: a workload that names a reference (the
// sharded FT) must simulate exactly what its reference does.
func TestReferenceDigestsAgree(t *testing.T) {
	committed, err := committedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if sp.reference != "" && committed[sp.name] != committed[sp.reference] {
			t.Errorf("%s digest %s, its reference %s has %s", sp.name, committed[sp.name], sp.reference, committed[sp.reference])
		}
	}
	if committed["ft256"] != committed["ft256-shards2"] {
		t.Error("ft256 and ft256-shards2 digests differ")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which callers of the
// benchmark read, in step with the workloads and metrics this program
// runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", decl.Paths)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d run", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d declared %q (%q), runs %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end declared %v, printed %v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer()) {
		t.Errorf("per_layer declared %v, printed %v", decl.PerLayer, perLayer())
	}
}
