package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// compareMain implements "compare <parent.json…> -- <change.json…>":
// for every workload and end-to-end metric it prints each side's median
// and quartiles over its runs, how many parent/change pairs the change
// wins, and a verdict. It exits 1 when a metric regressed beyond its
// bound or the two sides' digests differ at a seed both ran.
func compareMain(args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench compare <parent.json…> -- <change.json…>")
		return 2
	}
	parent, err := readReports(args[:split])
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	change, err := readReports(args[split+1:])
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	bad, err := compare(stdout, parent, change)
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 1
	}
	if bad {
		return 1
	}
	return 0
}

// readReports collects the untraced report lines of the given files by
// workload, in file and line order; other lines are skipped.
func readReports(paths []string) (map[string][]*report, error) {
	out := map[string][]*report{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			var r report
			if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Traced {
				continue
			}
			out[r.Workload] = append(out[r.Workload], &r)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced benchmark reports in %v", paths)
	}
	return out, nil
}

// compare writes the verdict table and reports whether any metric
// regressed or any digest differs.
func compare(w io.Writer, parent, change map[string][]*report) (bool, error) {
	var names []string
	for name := range parent {
		if len(change[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	bad := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	for _, name := range names {
		for _, m := range endToEnd {
			p, c := values(parent[name], m.Name), values(change[name], m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v, wins, pairs := verdict(m, p, c)
			if v == "regressed" {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%s\n", name, m.Name, summary(p), summary(c), wins, pairs, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	for _, name := range names {
		bySeed := map[int64]string{}
		for _, r := range parent[name] {
			bySeed[r.Seed] = r.Digest
		}
		for _, r := range change[name] {
			if d, ok := bySeed[r.Seed]; ok && d != r.Digest {
				bad = true
				fmt.Fprintf(w, "DIGEST DIFFERS: %s seed %d: parent %s, change %s\n", name, r.Seed, d, r.Digest)
				bySeed[r.Seed] = r.Digest // report each seed once
			}
		}
	}
	return bad, nil
}

func values(rs []*report, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// verdict judges one metric on one workload. Pair i matches the i-th
// parent run with the i-th change run, and the change wins it by
// reading strictly better. The change
//   - improved: it wins at least nine tenths of the pairs and its
//     median is better by more than the parent's interquartile range;
//   - regressed: its median is worse by more than the bound, and the
//     spread is within the bound or every change run is worse than
//     every parent run;
//   - unresolved: either side's interquartile range, as a share of its
//     median, is wider than the bound, unless every change run is better
//     than every parent run;
//   - unchanged otherwise.
func verdict(m metricSpec, parent, change []float64) (v string, wins, pairs int) {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pq1, pmed, pq3 := quartiles(parent)
	cq1, cmed, cq3 := quartiles(change)
	spread := max((pq3-pq1)/pmed, (cq3-cq1)/cmed)
	worse := (cmed - pmed) / pmed
	if m.Better == "higher" {
		worse = -worse
	}
	gap := cmed - pmed
	if gap < 0 {
		gap = -gap
	}
	switch {
	case 10*wins >= 9*pairs && better(cmed, pmed) && gap > pq3-pq1:
		return "improved", wins, pairs
	case worse > m.Bound && (spread <= m.Bound || dominates(better, parent, change)):
		return "regressed", wins, pairs
	case spread > m.Bound && !dominates(better, change, parent):
		return "unresolved", wins, pairs
	}
	return "unchanged", wins, pairs
}

// dominates reports whether every value of a is better than every
// value of b.
func dominates(better func(a, b float64) bool, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}
