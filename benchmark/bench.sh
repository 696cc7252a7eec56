#!/usr/bin/env bash
# The benchmark's entry point for a driver (BENCHMARK.json "command"):
#
#   bash benchmark/bench.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (compiler cache and temporary files included, so nothing is
# written outside the checkout) and runs it with the given arguments. The
# run's files live under .bench_build/tmp and are removed when it ends; a
# traced run leaves .bench_build/tmp/trace-<workload>.jsonl behind.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS="-buildvcs=false"
go build -o "$build/secidx-benchmark" ./benchmark
exec "$build/secidx-benchmark" -dir "$build/tmp" "$@"
