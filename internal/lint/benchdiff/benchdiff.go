// Package benchdiff turns bin/BENCH_sim.json from a write-only archive
// into a merge gate. `make bench` records the benchmark suite as the NDJSON
// `go test -json` event stream; benchdiff parses that stream back into
// per-benchmark metrics (ns/op, B/op, allocs/op — taking the minimum
// across `-count` repetitions, which is the noise-robust statistic for
// a "did it get slower" question), compares them against a committed
// baseline, and reports regressions:
//
//   - a zero allocs/op or B/op baseline is an exact gate: the simulator
//     kernel's 0 must stay 0, and any allocation is a real code change,
//     not runner noise;
//   - a nonzero allocs/op or B/op baseline tolerates MemBandPct, a fixed
//     2%: the big end-to-end benches repeat within a few hundredths of
//     a percent (goroutine stack growth and map bucket jitter move them
//     by a handful per run), so anything more is a code change;
//   - ns/op tolerates a configurable percentage band, because wall
//     time varies with the host.
//
// The baseline (BENCH_baseline.json) is written by Normalize/
// WriteBaseline: one canonical JSON object per benchmark, sorted by
// package and name, with the stream's per-line timestamps stripped — so
// refreshing it (`make bench-baseline`) produces a stable, reviewable
// diff instead of rewriting every line's Time field.
//
// The GOMAXPROCS suffix ("-8") is stripped from benchmark names so a
// baseline recorded on an 8-way machine still gates a 4-way CI runner.
package benchdiff

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// A Result is one benchmark's merged metrics: the minimum ns/op, B/op,
// and allocs/op over every repetition present in the stream.
type Result struct {
	Package string  `json:"package"`
	Name    string  `json:"name"`
	Runs    int     `json:"runs"`
	NsPerOp float64 `json:"ns_per_op"`
	// BPerOp and AllocsPerOp are -1 when the benchmark did not report
	// memory statistics (no -benchmem and no b.ReportAllocs).
	BPerOp      int64 `json:"b_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Key identifies a benchmark across streams.
func (r Result) Key() string { return r.Package + "." + r.Name }

// testEvent is the subset of the `go test -json` event schema the
// parser consumes; Time is deliberately absent — it is the field the
// baseline normalization strips.
type testEvent struct {
	Action  string
	Package string
	Output  string
}

// benchLine matches one benchmark result line, with the GOMAXPROCS
// suffix split off: "BenchmarkSchedule-8  \t35257432\t  33.73 ns/op ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(-\d+)?\s+(\d+)\s+(.*)$`)

// ParseStream decodes a `go test -json` NDJSON stream and extracts
// every benchmark result line, merging `-count` repetitions of the same
// benchmark by taking the per-metric minimum. The stream interleaves
// and splits Output events arbitrarily, so output is reassembled per
// package before line scanning.
func ParseStream(r io.Reader) ([]Result, error) {
	outputs := make(map[string]*strings.Builder)
	var pkgs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("line %d: not a go test -json event: %v", lineNo, err)
		}
		if ev.Action != "output" {
			continue
		}
		b := outputs[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			outputs[ev.Package] = b
			pkgs = append(pkgs, ev.Package)
		}
		b.WriteString(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	merged := make(map[string]*Result)
	var order []string
	for _, pkg := range pkgs { // insertion order: deterministic, no map range
		for _, line := range strings.Split(outputs[pkg].String(), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			res, err := parseMetrics(pkg, m[1], m[4])
			if err != nil {
				return nil, fmt.Errorf("package %s: %v", pkg, err)
			}
			if prev, ok := merged[res.Key()]; ok {
				prev.Runs++
				prev.NsPerOp = math.Min(prev.NsPerOp, res.NsPerOp)
				prev.BPerOp = minMetric(prev.BPerOp, res.BPerOp)
				prev.AllocsPerOp = minMetric(prev.AllocsPerOp, res.AllocsPerOp)
			} else {
				merged[res.Key()] = res
				order = append(order, res.Key())
			}
		}
	}
	out := make([]Result, 0, len(order))
	for _, key := range order {
		out = append(out, *merged[key])
	}
	Normalize(out)
	return out, nil
}

// minMetric merges two possibly-absent (-1) memory metrics.
func minMetric(a, b int64) int64 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	case b < a:
		return b
	}
	return a
}

// parseMetrics decodes the value/unit pairs after the iteration count:
// "33.73 ns/op\t 0 B/op\t 0 allocs/op" (MB/s and custom units are
// ignored).
func parseMetrics(pkg, name, rest string) (*Result, error) {
	res := &Result{Package: pkg, Name: name, Runs: 1, BPerOp: -1, AllocsPerOp: -1}
	fields := strings.Fields(rest)
	seen := false
	for i := 0; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad ns/op %q", name, val)
			}
			res.NsPerOp = v
			seen = true
		case "B/op":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad B/op %q", name, val)
			}
			res.BPerOp = v
		case "allocs/op":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad allocs/op %q", name, val)
			}
			res.AllocsPerOp = v
		}
	}
	if !seen {
		return nil, fmt.Errorf("%s: no ns/op metric in %q", name, rest)
	}
	return res, nil
}

// Normalize sorts results into the canonical baseline order.
func Normalize(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Package != rs[j].Package {
			return rs[i].Package < rs[j].Package
		}
		return rs[i].Name < rs[j].Name
	})
}

// WriteBaseline emits results as canonical NDJSON: sorted, one object
// per line, no timestamps — the committed BENCH_baseline.json format.
func WriteBaseline(w io.Writer, rs []Result) error {
	sorted := make([]Result, len(rs))
	copy(sorted, rs)
	Normalize(sorted)
	enc := json.NewEncoder(w)
	for _, r := range sorted {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// ReadBaseline decodes a baseline written by WriteBaseline.
func ReadBaseline(r io.Reader) ([]Result, error) {
	var out []Result
	dec := json.NewDecoder(r)
	for {
		var res Result
		if err := dec.Decode(&res); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("baseline: %v", err)
		}
		out = append(out, res)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("baseline: no benchmark records")
	}
	Normalize(out)
	return out, nil
}

// A Verdict classifies one benchmark's comparison.
type Verdict string

const (
	OK         Verdict = "ok"         // within every gate
	Improved   Verdict = "improved"   // a metric got better; consider refreshing the baseline
	Regression Verdict = "REGRESSION" // a gated metric got worse
	Missing    Verdict = "MISSING"    // in the baseline but absent from the stream
	New        Verdict = "new"        // in the stream but not yet gated by the baseline
)

// A Delta is one benchmark's baseline-versus-current comparison.
type Delta struct {
	Key     string
	Verdict Verdict
	// Detail is the human-readable per-metric breakdown.
	Detail string
}

// MemBandPct is the tolerance, in percent, of a nonzero allocs/op or
// B/op baseline. It is fixed, not a flag: allocation counts do not
// depend on the host, so they need no room for a slower runner.
const MemBandPct = 2

// Compare gates current against baseline. Every baseline benchmark must
// be present; allocs/op and B/op must stay at a zero baseline and
// within MemBandPct percent above a nonzero one; ns/op must stay within
// bandPct percent above the baseline. A missing gated
// benchmark is a regression (a gate cannot be retired by deleting the
// bench). Returns the per-benchmark deltas in baseline order (new,
// ungated benchmarks last) and the number of failures.
func Compare(baseline, current []Result, bandPct float64) (deltas []Delta, failures int) {
	cur := make(map[string]Result, len(current))
	for _, r := range current {
		cur[r.Key()] = r
	}
	base := make(map[string]bool, len(baseline))

	for _, b := range baseline {
		base[b.Key()] = true
		c, ok := cur[b.Key()]
		if !ok {
			failures++
			deltas = append(deltas, Delta{
				Key:     b.Key(),
				Verdict: Missing,
				Detail:  "gated benchmark not present in the stream; a gate cannot be retired by deleting the bench (refresh with make bench-baseline if intentional)",
			})
			continue
		}
		var parts []string
		verdict := OK

		limit := b.NsPerOp * (1 + bandPct/100)
		switch {
		case c.NsPerOp > limit:
			verdict = Regression
			parts = append(parts, fmt.Sprintf("ns/op %.4g -> %.4g (+%.1f%%, band %.0f%%)",
				b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1), bandPct))
		case c.NsPerOp < b.NsPerOp*(1-bandPct/100):
			verdict = Improved
			parts = append(parts, fmt.Sprintf("ns/op %.4g -> %.4g (%.1f%%)",
				b.NsPerOp, c.NsPerOp, 100*(c.NsPerOp/b.NsPerOp-1)))
		default:
			parts = append(parts, fmt.Sprintf("ns/op %.4g -> %.4g", b.NsPerOp, c.NsPerOp))
		}

		for _, m := range []struct {
			unit       string
			base, curr int64
		}{
			{"B/op", b.BPerOp, c.BPerOp},
			{"allocs/op", b.AllocsPerOp, c.AllocsPerOp},
		} {
			switch {
			case m.base < 0:
				// not gated: baseline has no memory stats for it
			case m.curr < 0:
				verdict = Regression
				parts = append(parts, fmt.Sprintf("%s %d -> unreported (memory stats disappeared; keep -benchmem)", m.unit, m.base))
			case m.base == 0 && m.curr > 0:
				verdict = Regression
				parts = append(parts, fmt.Sprintf("%s 0 -> %d (exact gate: the kernel's zero must stay zero)", m.unit, m.curr))
			case float64(m.curr) > float64(m.base)*(1+MemBandPct/100.0):
				verdict = Regression
				parts = append(parts, fmt.Sprintf("%s %d -> %d (+%.1f%%, band %d%%)",
					m.unit, m.base, m.curr, 100*(float64(m.curr)/float64(m.base)-1), MemBandPct))
			case m.curr != m.base:
				if verdict == OK && m.curr < m.base {
					verdict = Improved
				}
				parts = append(parts, fmt.Sprintf("%s %d -> %d", m.unit, m.base, m.curr))
			default:
				parts = append(parts, fmt.Sprintf("%s %d", m.unit, m.base))
			}
		}
		if verdict == Regression {
			failures++
		}
		deltas = append(deltas, Delta{Key: b.Key(), Verdict: verdict, Detail: strings.Join(parts, "  ")})
	}

	for _, c := range current { // already normalized order
		if !base[c.Key()] {
			deltas = append(deltas, Delta{
				Key:     c.Key(),
				Verdict: New,
				Detail:  "not in the baseline; run make bench-baseline to start gating it",
			})
		}
	}
	return deltas, failures
}
