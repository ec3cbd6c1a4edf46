# Build, test, and static-analysis gates. `make ci` is what a CI job runs.

GO      ?= go
BIN     := bin
REPOLINT := $(BIN)/repolint
BENCHOUT := $(BIN)/BENCH_sim.json
BASELINE := BENCH_baseline.json
PROFILES := profiles

# Gated benchmarks: the sim-kernel microbenches and the MPI message-path
# benches, whose ns/op, B/op, and allocs/op are compared against
# $(BASELINE) by `make benchdiff`.
# -benchtime is pinned and -count >= 3 (benchdiff takes the per-metric
# minimum) so the ns/op band is not defeated by runner noise; the band
# itself is configurable for noisier machines (hosted runners).
GATED_PKG       := ./internal/sim
MPI_PKG         := ./internal/mpi
GATED_BENCHTIME := 500ms
GATED_COUNT     := 3
BENCHDIFF_BAND  ?= 40

.PHONY: all build test bench-test race lint vuln fuzz bench bench-baseline benchdiff bench-profile profgate ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark module's own suite (bench/ is a separate module, so
# `go test ./...` above never enters it): the committed per-workload
# digests, untraced and traced, the ft256 vs ft256-shards2 equality and
# the benchmark's lint check. It pins the reproduction's fixed point
# from outside the simulator.
bench-test:
	cd bench && $(GO) test ./...

# The plain -race sweep already covers everything; the second pass
# re-runs the parallel drivers, the sharded-core equality tests and the
# fabric's disjoint-port shard-safety test alone with -count=2 so the
# fan-out and cross-shard delivery paths get extra scheduler
# interleavings under the detector.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 -run 'Parallel|Map|Shard' ./internal/exec ./internal/cluster ./internal/campaign ./internal/sim ./internal/mpi ./internal/netsim

# Simulator throughput benchmarks, archived as NDJSON (one go test
# -json event per line): the sim-kernel microbenches and the MPI
# message-path benches (gated — pinned -benchtime, -count 3), the
# streaming trace pipeline at 1×/4×/16×
# duration (gated — allocs/op must stay flat as the trace grows), the
# 8-cell campaign matrix at parallelism 1 vs 8 (their ratio is the
# fan-out speedup on this machine), one end-to-end paper figure, the
# 256-rank sharded-FT run at 1 vs 2 event-core shards (its speedup
# metric is the within-run parallelism gain, reported beside
# GOMAXPROCS), and the repolint
# self-benchmarks (full module load + all analyzers, plus the
# flow-sensitive detflow/hotalloc pass alone) so lint wall-time
# regressions are tracked alongside sim throughput.
#
# The archive and the sharded-FT run's heap profile (for the ROADMAP
# 4096-rank memory question) are written under bin/: every run rewrites
# them, so neither is committed. CI uploads the archive.
bench:
	@mkdir -p $(BIN)
	: > $(BENCHOUT)
	$(GO) test -json -run '^$$' -bench . -benchmem -benchtime $(GATED_BENCHTIME) -count $(GATED_COUNT) $(GATED_PKG) >> $(BENCHOUT)
	$(GO) test -json -run '^$$' -bench . -benchmem -benchtime $(GATED_BENCHTIME) -count $(GATED_COUNT) $(MPI_PKG) >> $(BENCHOUT)
	$(GO) test -json -run '^$$' -bench 'TraceStream' -benchmem -benchtime $(GATED_BENCHTIME) -count $(GATED_COUNT) ./internal/trace >> $(BENCHOUT)
	$(GO) test -json -run '^$$' -bench 'Campaign8' -benchmem ./internal/campaign >> $(BENCHOUT)
	$(GO) test -json -run '^$$' -bench 'Fig3FTClassB' -benchmem . >> $(BENCHOUT)
	$(GO) test -json -run '^$$' -bench 'ShardedFT' -benchtime 1x -benchmem -memprofile $(CURDIR)/$(BIN)/shardedft_heap.mprof >> $(BENCHOUT)
	$(GO) test -json -run '^$$' -bench 'RepolintModule|DetflowModule|NumericModule' -benchtime 1x -benchmem ./internal/lint >> $(BENCHOUT)
	@grep 'ns/op' $(BENCHOUT) | sed 's/.*"Output":"//;s/\\n.*//;s/\\t/  /g' || true

# Refresh the committed benchmark baseline from a fresh run of the
# gated benches. The baseline is normalized NDJSON — sorted, one record
# per benchmark, timestamps stripped — so the diff a refresh produces is
# reviewable instead of rewriting every line's Time field.
bench-baseline: bench $(REPOLINT)
	$(REPOLINT) benchdiff -update -baseline $(BASELINE) $(BENCHOUT)

# The benchmark-regression gate: rerun the gated benches and compare
# against the committed baseline. allocs/op and B/op are exact (the
# kernel's 0 must stay 0); ns/op tolerates BENCHDIFF_BAND percent.
benchdiff: bench $(REPOLINT)
	$(REPOLINT) benchdiff -band $(BENCHDIFF_BAND) -baseline $(BASELINE) $(BENCHOUT)

# Collect CPU profiles from the benchmark suite for the profgate
# analyzer: the sim-kernel microbenches, the campaign fan-out, the
# end-to-end paper figure, and the 256-rank sharded FT (the
# communication-heavy profile that keeps the netsim and cross-shard
# delivery paths hot). Committed under profiles/ so hot-root
# discovery runs on every `make ci`, not only on machines that just
# benched. Refresh whenever hot paths move: make bench-profile && make profgate
# The figure, sharded-FT and trace profiles run for several seconds
# each (about 1,000 samples at the default 100 Hz): with the 2-second
# profiles they used to record, profgate's 0.5% and 1% thresholds were
# one or two samples, and consecutive refreshes flagged different
# functions.
bench-profile:
	@mkdir -p $(PROFILES) $(BIN)
	$(GO) test -run '^$$' -bench . -benchtime $(GATED_BENCHTIME) -cpuprofile $(CURDIR)/$(PROFILES)/sim.pprof -o $(BIN)/sim.test $(GATED_PKG)
	$(GO) test -run '^$$' -bench 'Campaign8' -cpuprofile $(CURDIR)/$(PROFILES)/campaign.pprof -o $(BIN)/campaign.test ./internal/campaign
	$(GO) test -run '^$$' -bench 'Fig3FTClassB' -benchtime 5s -cpuprofile $(CURDIR)/$(PROFILES)/figure.pprof -o $(BIN)/figure.test .
	$(GO) test -run '^$$' -bench 'ShardedFT' -benchtime 5x -cpuprofile $(CURDIR)/$(PROFILES)/sharded.pprof -o $(BIN)/sharded.test .
	$(GO) test -run '^$$' -bench 'TraceStream' -benchtime 2s -cpuprofile $(CURDIR)/$(PROFILES)/trace.pprof -o $(BIN)/trace.test ./internal/trace

# Profile-guided hot-root discovery: join the committed CPU profiles
# against //lint:hotpath reachability. Reports functions the profiles
# show hot that no annotated root guards, and annotated roots that are
# cold in every profile. Thresholds: profgate.Default*Percent.
profgate: $(REPOLINT)
	REPOLINT_PROFILES=$(PROFILES) $(REPOLINT) -only profgate ./...

$(REPOLINT): $(shell find internal/lint cmd/repolint -name '*.go' -not -path '*/testdata/*' 2>/dev/null)
	@mkdir -p $(BIN)
	$(GO) build -o $(REPOLINT) ./cmd/repolint

# Run go vet's own analyzers first (copylocks among them: a -vettool
# run replaces them, and go test runs only a subset), then the repolint
# analyzers over the whole module via go vet's vettool protocol
# (type-checks against export data, caches per package), then one
# standalone pass against the per-analyzer wall-time ceilings in
# LINT_BUDGET.json: an analyzer whose cost regresses past its ceiling
# (say, going quadratic on the module) fails lint even when its
# diagnostics stay clean.
lint: $(REPOLINT)
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/$(REPOLINT) ./...
	$(REPOLINT) -budget LINT_BUDGET.json ./...

# Ten-second native-fuzzing smoke over the PWTR binary trace decoder:
# arbitrary bytes must never panic the reader, and any stream it
# accepts must survive a bit-exact re-encode/re-decode round trip.
# Interesting inputs accumulate in the local build cache; CI buys a
# fixed budget of fresh execs on top of the committed seeds.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzTraceReader' -fuzztime 10s ./internal/trace

# Best-effort locally: govulncheck is not vendored; skip quietly when
# absent. The CI workflow installs it, so the hosted `make ci` always
# runs the vuln pass.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

ci: build test bench-test lint race profgate benchdiff fuzz vuln

clean:
	rm -rf $(BIN)
