package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run builds its apparatus and runs a
// warm-up op; setup_s is the median of those set-ups.
const setupReps = 3

// metricSpec declares one metric as BENCHMARK.json does. Bound is the
// share of the parent's median by which an end-to-end metric may
// worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports: the host time and
// memory a user of the simulator pays per op. Times are in seconds at
// the reference host speed (see refKernel); the report line also
// carries them as measured on the wall clock.
var endToEnd = []metricSpec{
	{Name: "op_s_p50", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "op_s_tail", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// report is everything one run measured; it is printed as the first of
// the run's two JSON lines.
type report struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Traced        bool              `json:"traced"`
	NProc         int               `json:"nproc"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	Go            string            `json:"go"`
	LoadStart     string            `json:"loadavg_start"`
	LoadEnd       string            `json:"loadavg_end"`
	N             int               `json:"n"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	Digest        string            `json:"digest"`
	OpSeconds     []float64         `json:"op_s"`
	RefSeconds    []float64         `json:"ref_s,omitempty"`
	OpSecondsP50  float64           `json:"wall_op_s_p50"`
	OpSecondsTail float64           `json:"wall_op_s_tail"`
	SetupSeconds  []float64         `json:"setup_s_samples"`
	SetupRef      []float64         `json:"setup_ref_s,omitempty"`
	CPUProfileMS  float64           `json:"cpu_profile_ms,omitempty"`
	Spans         string            `json:"spans,omitempty"`
	Metrics       map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line, in the shape the benchmark's
// callers parse.
func (r *report) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics}
}

// opRecord is one timed op: its host time and, when timed, the
// reference kernel's just before it, the heap it allocated, and the
// digest of its outputs or the error it returned.
type opRecord struct {
	seconds, ref   float64
	bytes, objects uint64
	digest         string
	err            error
}

// loop runs op back to back, n times, or with n == 0 until d has
// passed, timing the reference kernel before each op when withRef is
// set. Digests are taken outside the timed section and outside the
// allocation count.
func loop(op func() (any, error), n int, d time.Duration, withRef bool) []opRecord {
	var recs []opRecord
	begin := time.Now()
	for (n > 0 && len(recs) < n) || (n == 0 && time.Since(begin) < d) {
		var ref float64
		if withRef {
			t := time.Now()
			refSink += refKernel()
			ref = time.Since(t).Seconds()
		}
		b0, o0 := heapAllocs()
		t := time.Now()
		out, err := op()
		sec := time.Since(t).Seconds()
		b1, o1 := heapAllocs()
		rec := opRecord{seconds: sec, ref: ref, bytes: b1 - b0, objects: o1 - o0, err: err}
		if err == nil {
			rec.digest, rec.err = digest(out)
		}
		recs = append(recs, rec)
	}
	return recs
}

// heapAllocs reads the cumulative heap allocation counters.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runSpec runs one workload: set-up, the timed loop, and the checks.
// An untraced run reports the end-to-end metrics; a traced one first
// times an untraced leg, then measures the same op with every probe
// installed and reports the per-layer metrics.
func runSpec(sp spec, opt options, start time.Time) (*report, error) {
	rep := &report{
		Workload:   sp.name,
		Seed:       opt.seed,
		Traced:     opt.traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		LoadStart:  loadavg(),
		Metrics:    map[string]metric{},
	}
	reps := setupReps
	if opt.traced {
		reps = 1
	}
	var op func() (any, error)
	var warmups []string
	since := start
	for i := 0; i < reps; i++ {
		var err error
		if op, err = sp.build(opt.seed, nil); err != nil {
			return nil, err
		}
		out, err := op()
		if err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		rep.SetupSeconds = append(rep.SetupSeconds, time.Since(since).Seconds())
		if !opt.traced {
			t := time.Now()
			refSink += refKernel()
			rep.SetupRef = append(rep.SetupRef, time.Since(t).Seconds())
		}
		d, err := digest(out)
		if err != nil {
			return nil, err
		}
		warmups = append(warmups, d)
		since = time.Now()
	}

	n, d := opt.ops, opt.seconds
	var recs, untraced []opRecord
	var pr *probes
	if opt.traced {
		// Half the budget times the op untraced, for trace_overhead.
		// Neither leg runs the reference kernel, which would show in the
		// profiles.
		half := 0
		if n > 0 {
			half = max(1, n/2)
		}
		untraced = loop(op, half, d/2, false)
		pr = newProbes()
		traced, err := sp.build(opt.seed, pr)
		if err != nil {
			return nil, err
		}
		if err := pr.startProfiles(); err != nil {
			return nil, err
		}
		recs = loop(pr.op(traced), n-n/2, d-d/2, false)
		if err := pr.stopProfiles(); err != nil {
			return nil, err
		}
	} else {
		recs = loop(op, n, d, true)
	}
	rep.LoadEnd = loadavg()

	want, err := expectedDigest(sp, opt.seed, warmups[0])
	if err != nil {
		return nil, err
	}
	rep.Digest = warmups[0]
	for _, w := range warmups {
		if w != want {
			return nil, fmt.Errorf("warm-up digest %s, want %s", w, want)
		}
	}
	good := check(sp.name, recs, want)
	rep.Attempted, rep.N, rep.Failed = len(recs), len(good), len(recs)-len(good)
	if len(good) == 0 {
		return nil, errors.New("every op failed")
	}
	for _, r := range good {
		rep.OpSeconds = append(rep.OpSeconds, r.seconds)
	}
	tail := tailPercent(len(good))
	rep.OpSecondsP50 = median(rep.OpSeconds)
	rep.OpSecondsTail = percentile(rep.OpSeconds, tail)

	if opt.traced {
		base := check(sp.name, untraced, want)
		if len(base) == 0 {
			return nil, errors.New("every untraced op failed")
		}
		rep.Attempted += len(untraced)
		rep.Failed += len(untraced) - len(base)
		var baseSeconds []float64
		for _, r := range base {
			baseSeconds = append(baseSeconds, r.seconds)
		}
		rep.Metrics = pr.metrics(len(recs), rep.OpSecondsP50/median(baseSeconds))
		rep.CPUProfileMS = pr.cpuMS
		path, err := pr.writeSpans(opt.layers, sp.name, opt.seed)
		if err != nil {
			return nil, err
		}
		rep.Spans = path
		return rep, nil
	}

	var rel, setupRel []float64
	var bytes, objects uint64
	for _, r := range good {
		rep.RefSeconds = append(rep.RefSeconds, r.ref)
		rel = append(rel, r.seconds/r.ref*refHostSeconds)
		bytes += r.bytes
		objects += r.objects
	}
	for i, sec := range rep.SetupSeconds {
		setupRel = append(setupRel, sec/rep.SetupRef[i]*refHostSeconds)
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	ops := float64(len(good))
	v := map[string]float64{
		"op_s_p50":        median(rel),
		"op_s_tail":       percentile(rel, tail),
		"setup_s":         median(setupRel),
		"alloc_mb_per_op": float64(bytes) / ops / 1e6,
		"allocs_per_op":   float64(objects) / ops,
		"peak_rss_mb":     rss,
	}
	for _, m := range endToEnd {
		rep.Metrics[m.Name] = metric{v[m.Name], m.Unit}
	}
	return rep, nil
}

// check returns the ops that succeeded with the expected digest and
// reports each failure on stderr.
func check(name string, recs []opRecord, want string) []opRecord {
	var good []opRecord
	for i, r := range recs {
		switch {
		case r.err != nil:
			fmt.Fprintf(os.Stderr, "bench: %s: op %d: %v\n", name, i, r.err)
		case r.digest != want:
			fmt.Fprintf(os.Stderr, "bench: %s: op %d: digest %s, want %s\n", name, i, r.digest, want)
		default:
			good = append(good, r)
		}
	}
	return good
}

// expectedDigest is the digest every op of sp must reproduce: the
// committed one at seed 1, else the reference workload's at this seed,
// else the run's own first op's.
func expectedDigest(sp spec, seed int64, first string) (string, error) {
	if seed == 1 {
		committed, err := committedDigests()
		if err != nil {
			return "", err
		}
		want, ok := committed[sp.name]
		if !ok {
			return "", fmt.Errorf("no committed digest for %s (this run's is %s)", sp.name, first)
		}
		return want, nil
	}
	if sp.reference == "" {
		return first, nil
	}
	ref, ok := specByName(sp.reference)
	if !ok {
		return "", fmt.Errorf("unknown reference workload %q", sp.reference)
	}
	op, err := ref.build(seed, nil)
	if err != nil {
		return "", err
	}
	out, err := op()
	if err != nil {
		return "", fmt.Errorf("reference %s: %w", ref.name, err)
	}
	return digest(out)
}

// tailPercent is the highest percentile with at least ten samples
// beyond it, and never below the median.
func tailPercent(n int) float64 {
	return math.Max(50, 100*(1-10/float64(n)))
}

// percentile is the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles are the first and third quartiles by the exclusive method
// (Python's statistics.quantiles default), the median between them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// loadavg is the host's 1, 5 and 15 minute load averages, or "" where
// the host does not publish them.
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}

// peakRSS is the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// refSink keeps the reference kernel's result alive.
var refSink int

// refHostSeconds is refKernel's time on an idle core of the 2-core host
// the bench was calibrated on (0.045 s at best, 0.057 s median under
// load). A time measured as a multiple of refKernel's is reported as
// that multiple of refHostSeconds: seconds at the reference host speed.
const refHostSeconds = 0.05

// refKernel is a fixed computation that does not use the simulator and
// is shaped like its hot path: 150,000 timestamped events through a
// binary heap, one small allocation each, and a map. Its time beside a
// measurement gauges the host's speed at that moment. The 2-core host's
// speed drifts over minutes, which moved a workload's median wall time
// per op by 6-49% (interquartile range over median) across ten 20-25 s
// runs; the same runs' op time over reference time moved by 1-8%. The
// kernel never changes, so a faster simulator lowers the ratio exactly
// as it lowers wall time.
func refKernel() int {
	rng := rand.New(rand.NewSource(1))
	h := &refHeap{}
	m := map[int64]*refObj{}
	var now int64
	for i := 0; i < 150_000; i++ {
		heap.Push(h, refEvent{at: now + rng.Int63n(1000), seq: i, obj: &refObj{id: rng.Int63()}})
		if h.Len() > 2000 {
			e := heap.Pop(h).(refEvent)
			now = e.at
			m[e.obj.id&8191] = e.obj
		}
	}
	return len(m)
}

type refObj struct{ id int64 }

type refEvent struct {
	at  int64
	seq int
	obj *refObj
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
