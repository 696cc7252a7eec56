#!/usr/bin/env bash
# One full pass: all five workloads (the two BENCHMARK.json leaves out too) untraced, then all five traced, same seed.
#
#   benchmark/run.sh [seed] [outdir]
#
# Writes <outdir>/bench-<seed>.json (end-to-end metrics; what -compare reads),
# <outdir>/bench-<seed>-traced.json (per-layer metrics and layer shares) and
# <outdir>/trace-<workload>.jsonl. outdir defaults to .bench_build/results.
# Exits non-zero if a workload fails or an answer disagrees with the oracle.
#
# To compare two passes (say, of two commits, or two passes of one):
#   benchmark/bench.sh -compare a/bench-42.json b/bench-42.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-42}"
out="${2:-$here/../.bench_build/results}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
"$here/bench.sh" -workload all -seed "$seed" -trace=0 -out "$out/bench-$seed.json"
"$here/bench.sh" -workload all -seed "$seed" -trace=1 -out "$out/bench-$seed-traced.json"
echo "wrote $out/bench-$seed.json and $out/bench-$seed-traced.json"
