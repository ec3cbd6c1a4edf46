# Build, test, and static-analysis gates. `make ci` is what a CI job runs.

GO      ?= go
BIN     := bin
REPOLINT := $(BIN)/repolint
BENCHOUT := $(BIN)/BENCH_sim.json
BASELINE := BENCH_baseline.json

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

.PHONY: all build test bench-test race lint vuln fuzz bench bench-baseline benchdiff ci clean

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
# streaming trace pipeline and the archive replay at 1×/4×/16×
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
	$(GO) test -json -run '^$$' -bench 'TraceStream|TraceReplay' -benchmem -benchtime $(GATED_BENCHTIME) -count $(GATED_COUNT) ./internal/trace >> $(BENCHOUT)
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
# against the committed baseline. allocs/op and B/op are exact at a zero
# baseline (the kernel's 0 must stay 0) and within a fixed 2% of a
# nonzero one; ns/op tolerates BENCHDIFF_BAND percent.
benchdiff: bench $(REPOLINT)
	$(REPOLINT) benchdiff -band $(BENCHDIFF_BAND) -baseline $(BASELINE) $(BENCHOUT)

$(REPOLINT): $(shell find internal/lint cmd/repolint -name '*.go' -not -path '*/testdata/*' 2>/dev/null)
	@mkdir -p $(BIN)
	$(GO) build -o $(REPOLINT) ./cmd/repolint

# Run go vet's own analyzers first (copylocks among them; go test runs
# only a subset), then one repolint pass over the whole module against
# the per-analyzer wall-time ceilings in LINT_BUDGET.json: an analyzer
# whose cost regresses past its ceiling (say, going quadratic on the
# module) fails lint even when its diagnostics stay clean.
lint: $(REPOLINT)
	$(GO) vet ./...
	$(REPOLINT) -budget LINT_BUDGET.json ./...

# Ten-second native-fuzzing smokes. Over the PWTR binary trace
# decoder: arbitrary bytes must never panic the reader, and any stream
# it accepts must survive a bit-exact re-encode/re-decode round trip.
# Over campaign spec parsing: arbitrary JSON must yield a spec or an
# error, never a panic. Interesting inputs accumulate in the local
# build cache; CI buys a fixed budget of fresh execs on top of the
# committed seeds.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzTraceReader' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz 'FuzzCampaignSpec' -fuzztime 10s ./internal/campaign

# Best-effort locally: govulncheck is not vendored; skip quietly when
# absent. The CI workflow installs it, so the hosted `make ci` always
# runs the vuln pass.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

ci: build test bench-test lint race benchdiff fuzz vuln

clean:
	rm -rf $(BIN)
