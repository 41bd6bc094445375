#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it with the given
# arguments. This is the `command` of BENCHMARK.json; run it from the
# repository root:
#
#   bash bench/run.sh --workload hunt-omission --seed 1 --seconds 6 --trace 0
#   bash bench/run.sh                      # every workload, result.json
#   bash bench/run.sh -calibrate           # two sets, checked against the bounds
#   bash bench/run.sh -compare A.json B.json
#
# Everything the build writes (Go build cache, the binary) stays under
# .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config" # keeps Go's telemetry counters in the checkout
export GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
