package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dvs"
	"repro/internal/lint/profgate"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/powerpack"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// modules are the repro/internal packages that are layers of their own.
var modules = []string{
	"exec", "netsim", "mpi", "machine", "power", "dvfs", "dvs", "meter",
	"trace", "powerpack", "workloads", "cluster",
}

// layers are the buckets host CPU and allocation are folded into: the
// modules, with the event core split into its heap, process switching,
// shard group and the rest. "other" is any other repository package,
// "bench" this benchmark's own probes, and "runtime" a stack with no
// repository frame.
var layers = append(append([]string{"sim.heap", "sim.proc", "sim.group", "sim.other"}, modules...),
	"other", "bench", "runtime")

// layerCounters are the per-layer metrics counted at the boundaries
// the simulator's public API exposes, each per op unless its unit says
// otherwise.
var layerCounters = []metricSpec{
	{Name: "cluster.calls", Unit: "count", Better: "lower"},
	{Name: "cluster.call_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.msgs", Unit: "count", Better: "lower"},
	{Name: "mpi.bytes", Unit: "B", Better: "lower"},
	{Name: "netsim.send_calls", Unit: "count", Better: "lower"},
	{Name: "netsim.accept_calls", Unit: "count", Better: "lower"},
	{Name: "netsim.control_calls", Unit: "count", Better: "lower"},
	{Name: "netsim.ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "netsim.rx_queue_sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "dvs.on_enter", Unit: "count", Better: "lower"},
	{Name: "dvs.on_exit", Unit: "count", Better: "lower"},
	{Name: "machine.transitions", Unit: "count", Better: "lower"},
	{Name: "machine.busy_sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "machine.spin_sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "machine.blocked_sim_s", Unit: "sim_s", Better: "lower"},
	{Name: "trace.ticks", Unit: "count", Better: "lower"},
	{Name: "trace.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.bytes_per_sample", Unit: "B", Better: "lower"},
	{Name: "trace.replay_ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
}

// perLayer lists every metric a traced run reports: each layer's share
// of host CPU (plus cpu.gc, which overlaps the others), its allocation
// per op, and the boundary counters.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, l := range layers {
		out = append(out, metricSpec{Name: "cpu." + l, Unit: "ratio", Better: "lower"})
	}
	out = append(out, metricSpec{Name: "cpu.gc", Unit: "ratio", Better: "lower"})
	for _, l := range layers {
		out = append(out, metricSpec{Name: "alloc_mb." + l, Unit: "MB", Better: "lower"})
	}
	return append(out, layerCounters...)
}

// layerOf attributes a leaf-first stack to the layer of its innermost
// repository frame. The benchmark's own frames are "main." in the
// binary and "repro/bench." in its tests.
func layerOf(stack []string) string {
	const internal = "repro/internal/"
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/bench."):
			return "bench"
		case strings.HasPrefix(fn, internal):
			rest := fn[len(internal):]
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if pkg == "sim" {
				return simBucket(rest[len("sim."):])
			}
			if slices.Contains(modules, pkg) {
				return pkg
			}
			return "other"
		case strings.HasPrefix(fn, "repro.") || strings.HasPrefix(fn, "repro/"):
			return "other"
		}
	}
	return "runtime"
}

// simBucket splits the event core by the type a symbol belongs to.
func simBucket(sym string) string {
	recv := sym
	if strings.HasPrefix(recv, "(*") {
		recv = recv[2:strings.IndexByte(recv, ')')]
	} else if i := strings.IndexByte(recv, '.'); i >= 0 {
		recv = recv[:i]
	}
	switch {
	case recv == "eventHeap":
		return "sim.heap"
	case recv == "Proc", recv == "Cond", recv == "Mailbox",
		strings.HasPrefix(sym, "(*Engine).resumeProc"), strings.HasPrefix(sym, "(*Engine).Spawn"):
		return "sim.proc"
	case recv == "Group", recv == "inbox", recv == "NewGroup":
		return "sim.group"
	}
	return "sim.other"
}

// isGC reports a stack doing garbage-collection work, wherever it runs.
func isGC(stack []string) bool {
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" || fn == "runtime.gcAssistAlloc" {
			return true
		}
	}
	return false
}

// foldCPU is each layer's share of a CPU profile's samples, plus "gc".
func foldCPU(p *profgate.Profile) map[string]float64 {
	per := map[string]int64{}
	for _, s := range p.Samples {
		per[layerOf(s.Stack)] += s.Value
		if isGC(s.Stack) {
			per["gc"] += s.Value
		}
	}
	shares := map[string]float64{}
	for _, l := range append([]string{"gc"}, layers...) {
		shares[l] = float64(per[l]) / float64(p.Total)
	}
	return shares
}

// memProfileRate samples one allocation per 64 KiB in a traced run, 8×
// finer than the runtime's default, for enough samples per layer.
const memProfileRate = 64 << 10

// memKey identifies a heap profile bucket: the runtime keeps one per
// allocation stack and object size.
type memKey struct {
	stack [32]uintptr
	size  int64
}

type memCount struct{ bytes, objects int64 }

// memProfile snapshots the cumulative allocation profile.
func memProfile() map[memKey]memCount {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[memKey]memCount, len(recs))
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		k := memKey{r.Stack0, r.AllocBytes / r.AllocObjects}
		c := out[k]
		out[k] = memCount{c.bytes + r.AllocBytes, c.objects + r.AllocObjects}
	}
	return out
}

// foldAlloc attributes the bytes allocated between two snapshots to
// layers, scaling each sampled bucket up by its sampling probability
// as pprof does.
func foldAlloc(before, after map[memKey]memCount, rate int) map[string]float64 {
	out := map[string]float64{}
	for k, c := range after {
		b := c.bytes - before[k].bytes
		if b <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-float64(k.size)/float64(rate)))
		out[layerOf(frameNames(k.stack[:]))] += float64(b) * scale
	}
	return out
}

// frameNames symbolizes a leaf-first PC stack, inline frames expanded.
func frameNames(stack []uintptr) []string {
	for i, pc := range stack {
		if pc == 0 {
			stack = stack[:i]
			break
		}
	}
	var names []string
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// span is one timed call at a layer boundary. Times are host ns since
// the probes were made; Self is the part of the span its children do
// not cover, which for a leaf is all of it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// rankSlot is one rank's share of the probes, written only by that
// rank's process, so shards never share one.
type rankSlot struct {
	spans       []span
	msgs, bytes int64
}

// probes measure a traced run from outside the simulator: spans around
// the op and each cluster call, decorators on the Workload, Strategy,
// Fabric and trace Sink boundaries cluster.Config and the cluster API
// accept, and host CPU and heap profiles folded by layer. A nil
// *probes is an untraced run: every method then installs nothing.
type probes struct {
	epoch time.Time

	spans   []span // ops and cluster calls, on the op's goroutine
	curOp   int    // ID of the open op span
	curCall int    // ID of the open cluster-call span
	ranks   []rankSlot

	calls  int
	callNS int64

	sends, accepts, controls, netNS int64
	rxQueue                         sim.Duration

	onEnter, onExit atomic.Int64

	transitions          int64
	busy, spin, blocked  sim.Duration
	ticks, samples       int64
	tickNS, archiveBytes int64
	replayTicks          int64
	replayNS             int64

	cpu        bytes.Buffer
	memBefore  map[memKey]memCount
	cpuShare   map[string]float64
	allocBytes map[string]float64
	cpuMS      float64
}

func newProbes() *probes { return &probes{epoch: time.Now()} }

func (pr *probes) now() int64 { return time.Since(pr.epoch).Nanoseconds() }

func (pr *probes) open(name string, parent int) int {
	pr.spans = append(pr.spans, span{ID: len(pr.spans) + 1, Parent: parent, Name: name, Start: pr.now()})
	return len(pr.spans)
}

func (pr *probes) close(id int) int64 {
	s := &pr.spans[id-1]
	s.End = pr.now()
	return s.End - s.Start
}

// op wraps one closed-loop op in a span.
func (pr *probes) op(op func() (any, error)) func() (any, error) {
	return func() (any, error) {
		pr.curOp = pr.open("op", 0)
		out, err := op()
		pr.close(pr.curOp)
		return out, err
	}
}

func (pr *probes) openCall(name string) { pr.curCall = pr.open(name, pr.curOp) }

func (pr *probes) closeCall() {
	pr.callNS += pr.close(pr.curCall)
	pr.calls++
}

// run is r.Run inside a cluster-call span; only traced ops call it.
func (pr *probes) run(r *cluster.Runner, w workloads.Workload, s dvs.Strategy, base int) (*cluster.Aggregate, error) {
	pr.openCall("cluster.Run")
	agg, err := r.Run(w, s, base)
	pr.closeCall()
	if err != nil {
		return nil, err
	}
	pr.results(agg.Runs...)
	return agg, nil
}

// runOnce is r.RunOnce inside a cluster-call span.
func (pr *probes) runOnce(r *cluster.Runner, w workloads.Workload, s dvs.Strategy, base int, seed int64) (*cluster.Result, error) {
	if pr == nil {
		return r.RunOnce(w, s, base, seed)
	}
	pr.openCall("cluster.RunOnce")
	res, err := r.RunOnce(w, s, base, seed)
	pr.closeCall()
	if err != nil {
		return nil, err
	}
	pr.results(res)
	return res, nil
}

// results adds up the machine layer's per-node counters.
func (pr *probes) results(rs ...*cluster.Result) {
	for _, r := range rs {
		for _, n := range r.Nodes {
			pr.transitions += int64(n.Transitions)
			pr.busy += n.Busy
			pr.spin += n.StateTime[machine.Spin]
			pr.blocked += n.StateTime[machine.Blocked]
		}
	}
}

// instrument decorates the fabric the cluster builds. Validate rejects
// a custom fabric on more than one shard, so sharded runs keep theirs
// and report no netsim counters.
func (pr *probes) instrument(cfg *cluster.Config) {
	if pr == nil || cfg.Shards > 1 {
		return
	}
	net := cfg.Net
	cfg.Fabric = func(eng *sim.Engine, ports int) netsim.Fabric {
		return &tracedFabric{Fabric: netsim.New(eng, ports, net), pr: pr}
	}
}

func (pr *probes) workload(w workloads.Workload) workloads.Workload {
	if pr == nil {
		return w
	}
	if len(pr.ranks) < w.Ranks() {
		pr.ranks = make([]rankSlot, w.Ranks())
	}
	return tracedWorkload{Workload: w, pr: pr}
}

func (pr *probes) strategy(s dvs.Strategy) dvs.Strategy {
	if pr == nil {
		return s
	}
	return tracedStrategy{Strategy: s, pr: pr}
}

func (pr *probes) sink(s trace.Sink) trace.Sink {
	if pr == nil {
		return s
	}
	return &tracedSink{Sink: s, pr: pr}
}

// replay decodes a binary trace into fresh statistics; a traced run
// times every Reader.Next.
func (pr *probes) replay(archive []byte) (*trace.Stats, error) {
	rd, err := trace.NewReader(bytes.NewReader(archive))
	if err != nil {
		return nil, err
	}
	st := trace.NewStats()
	if pr == nil {
		return st, rd.Replay(st)
	}
	pr.archiveBytes += int64(len(archive))
	if err := st.Begin(rd.Meta()); err != nil {
		return nil, err
	}
	for {
		t := time.Now()
		row, err := rd.Next()
		pr.replayNS += time.Since(t).Nanoseconds()
		if errors.Is(err, io.EOF) {
			return st, st.End()
		}
		if err != nil {
			return nil, err
		}
		pr.replayTicks++
		if err := st.Tick(row[0].At, row); err != nil {
			return nil, err
		}
	}
}

// tracedWorkload spans each rank's Run and reads its MPI counters.
type tracedWorkload struct {
	workloads.Workload
	pr *probes
}

func (t tracedWorkload) Run(ctx workloads.Ctx) {
	start := t.pr.now()
	t.Workload.Run(ctx)
	slot := &t.pr.ranks[ctx.Rank.ID()]
	st := ctx.Rank.Stats()
	slot.msgs += st.MsgsSent
	slot.bytes += st.BytesSent
	slot.spans = append(slot.spans, span{Parent: t.pr.curCall, Name: "rank.Run", Start: start, End: t.pr.now()})
}

// tracedStrategy counts region callbacks. A strategy without a region
// policy keeps a nil one, which the cluster treats as markers only.
type tracedStrategy struct {
	dvs.Strategy
	pr *probes
}

func (s tracedStrategy) Install(ctx dvs.InstallCtx) powerpack.RegionPolicy {
	p := s.Strategy.Install(ctx)
	if p == nil {
		return nil
	}
	return tracedPolicy{inner: p, pr: s.pr}
}

type tracedPolicy struct {
	inner powerpack.RegionPolicy
	pr    *probes
}

func (t tracedPolicy) OnEnter(p *sim.Proc, n *machine.Node, region string) {
	t.pr.onEnter.Add(1)
	t.inner.OnEnter(p, n, region)
}

func (t tracedPolicy) OnExit(p *sim.Proc, n *machine.Node, region string) {
	t.pr.onExit.Add(1)
	t.inner.OnExit(p, n, region)
}

// tracedFabric counts and times every fabric call and adds up how long
// messages queue behind earlier arrivals on receive links.
type tracedFabric struct {
	netsim.Fabric
	pr *probes
}

func (f *tracedFabric) Send(src, dst int, size int64, now sim.Time) (start, arrive sim.Time) {
	t := time.Now()
	start, arrive = f.Fabric.Send(src, dst, size, now)
	f.pr.netNS += time.Since(t).Nanoseconds()
	f.pr.sends++
	return start, arrive
}

func (f *tracedFabric) Accept(src, dst int, size int64, arrive sim.Time) sim.Time {
	t := time.Now()
	deliver := f.Fabric.Accept(src, dst, size, arrive)
	f.pr.netNS += time.Since(t).Nanoseconds()
	f.pr.accepts++
	f.pr.rxQueue += deliver.Sub(arrive) - f.Fabric.SerializationTime(size)
	return deliver
}

func (f *tracedFabric) Control(src, dst int, size int64, now sim.Time) sim.Time {
	t := time.Now()
	deliver := f.Fabric.Control(src, dst, size, now)
	f.pr.netNS += time.Since(t).Nanoseconds()
	f.pr.controls++
	return deliver
}

// tracedSink counts and times the ticks a trace sink encodes.
type tracedSink struct {
	trace.Sink
	pr *probes
}

func (s *tracedSink) Tick(at sim.Time, row []trace.Sample) error {
	t := time.Now()
	err := s.Sink.Tick(at, row)
	s.pr.tickNS += time.Since(t).Nanoseconds()
	s.pr.ticks++
	s.pr.samples += int64(len(row))
	return err
}

// startProfiles starts the CPU profile and snapshots the heap profile.
func (pr *probes) startProfiles() error {
	runtime.MemProfileRate = memProfileRate
	runtime.GC()
	pr.memBefore = memProfile()
	return pprof.StartCPUProfile(&pr.cpu)
}

// stopProfiles stops both profiles and folds them by layer.
func (pr *probes) stopProfiles() error {
	pprof.StopCPUProfile()
	runtime.GC()
	pr.allocBytes = foldAlloc(pr.memBefore, memProfile(), memProfileRate)
	p, err := profgate.ParseProfile("cpu", pr.cpu.Bytes())
	if err != nil {
		return err
	}
	pr.cpuShare = foldCPU(p)
	pr.cpuMS = float64(p.Total) / 1e6
	return nil
}

// metrics are the per-layer metrics of ops traced ops.
func (pr *probes) metrics(ops int, overhead float64) map[string]metric {
	per := func(v float64) float64 { return v / float64(ops) }
	mean := func(total, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	var msgs, bytes int64
	for _, r := range pr.ranks {
		msgs += r.msgs
		bytes += r.bytes
	}
	v := map[string]float64{
		"cpu.gc":                   pr.cpuShare["gc"],
		"cluster.calls":            per(float64(pr.calls)),
		"cluster.call_ms":          mean(pr.callNS, int64(pr.calls)) / 1e6,
		"mpi.msgs":                 per(float64(msgs)),
		"mpi.bytes":                per(float64(bytes)),
		"netsim.send_calls":        per(float64(pr.sends)),
		"netsim.accept_calls":      per(float64(pr.accepts)),
		"netsim.control_calls":     per(float64(pr.controls)),
		"netsim.ns_per_call":       mean(pr.netNS, pr.sends+pr.accepts+pr.controls),
		"netsim.rx_queue_sim_s":    per(pr.rxQueue.Seconds()),
		"dvs.on_enter":             per(float64(pr.onEnter.Load())),
		"dvs.on_exit":              per(float64(pr.onExit.Load())),
		"machine.transitions":      per(float64(pr.transitions)),
		"machine.busy_sim_s":       per(pr.busy.Seconds()),
		"machine.spin_sim_s":       per(pr.spin.Seconds()),
		"machine.blocked_sim_s":    per(pr.blocked.Seconds()),
		"trace.ticks":              per(float64(pr.ticks)),
		"trace.tick_ns":            mean(pr.tickNS, pr.ticks),
		"trace.bytes_per_sample":   mean(pr.archiveBytes, pr.samples),
		"trace.replay_ns_per_tick": mean(pr.replayNS, pr.replayTicks),
		"trace_overhead":           overhead,
	}
	for _, l := range layers {
		v["cpu."+l] = pr.cpuShare[l]
		v["alloc_mb."+l] = per(pr.allocBytes[l]) / 1e6
	}
	out := map[string]metric{}
	for _, m := range perLayer() {
		out[m.Name] = metric{v[m.Name], m.Unit}
	}
	return out
}

// writeSpans writes every span, with its self time, as JSON into dir
// and returns the file's path.
func (pr *probes) writeSpans(dir, workload string, seed int64) (string, error) {
	all := append([]span(nil), pr.spans...)
	for _, r := range pr.ranks {
		for _, s := range r.spans {
			s.ID = len(all) + 1
			all = append(all, s)
		}
	}
	kids := map[int][][2]int64{}
	for _, s := range all {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range all {
		all[i].Self = all[i].End - all[i].Start - covered(kids[all[i].ID])
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, all})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, start, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += end - start
			start, end = x[0], x[1]
		} else if x[1] > end {
			end = x[1]
		}
	}
	return total + end - start
}
