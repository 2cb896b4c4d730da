#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash benchmark/run.sh --workload drag --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh                    # the whole suite, with tables
#
# Everything it writes stays under the checkout: the Go build cache and
# the binary in .bench_build/, datasets and traces in benchmark/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go build -C "$root/benchmark" -o "$build/vwbenchmark" .
exec "$build/vwbenchmark" -out "$root/benchmark/out" "$@"
