#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given flags. Run it from anywhere; everything the go command
# writes (binary, build cache, temporary files, its user configuration
# and telemetry) stays under .bench_build/ at the root of the tree, and
# nothing is fetched from the network.
#
#   bash bench/run.sh -workload ft256 -seed 1
#   bash bench/run.sh --workload ft256 --seed 3 --seconds 20 --trace 1
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
