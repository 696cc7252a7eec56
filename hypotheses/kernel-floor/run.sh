#!/usr/bin/env bash
# Hypothesis kernel-floor: the dense merge's two kernels — Stream.fillWindow
# (gamma stream -> window bits) and denseEmitter.word (window bits -> gamma
# stream), together three quarters of serve-overlap's and scan-wide's CPU —
# already cost what the same arithmetic costs in a bare Go loop with no
# validation, no skip samples, no run detection and no Writer, so no rewrite
# of them in Go buys wall-clock time, and ROADMAP's codec item should stop
# promising one.
#
# BenchmarkFloor (internal/cbitmap/floor_test.go) runs, per density 1/4,
# 1/16, 1/64 of a 2^20 universe: bit iteration; + gap and gamma length; +
# encode into a 64-bit accumulator stored a word at a time; a decode loop of
# one unaligned load, one lzcnt and one shift per code; fillWindow; word.
# BenchmarkMergeStreams (bench_test.go) is the whole merge at the same
# densities, and TestMergeShape (internal/core/shape_test.go) prints what one
# shard's merge is handed by the two served workloads' ranges.
#
# Usage: hypotheses/kernel-floor/run.sh [outdir]   (default: a fresh temp dir)
#   COUNT=5 repetitions per benchmark (median reported), about 3 minutes.
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
COUNT="${COUNT:-5}"
mkdir -p "$OUT"

# --- Preconditions (ED-3). ---
# 1. The kernels measured are the ones every merge runs, and they are right.
go test -count=1 -run 'TestMergeDense|TestUnionLargeFanIn' ./internal/cbitmap >/dev/null
# 2. One P: a kernel's cost, not the scheduler's.
go test -c -o "$OUT/cbitmap.test" ./internal/cbitmap
go test -c -o "$OUT/root.test" .
(cd internal/cbitmap && "$OUT/cbitmap.test" -test.run '^$' -test.bench 'BenchmarkFloor' -test.cpu 1 -test.count "$COUNT" -test.timeout 30m) | grep '^Benchmark' >"$OUT/floor.txt"
"$OUT/root.test" -test.run '^$' -test.bench 'BenchmarkMergeStreams/(union|complement)/density=1/(4|16|64)$' -test.benchmem -test.cpu 1 -test.count "$COUNT" -test.timeout 30m | grep '^Benchmark' >"$OUT/merge.txt"
go test ./internal/core -count=1 -run 'TestMergeShape$' -core.shape -v | grep '^mergeshape' >"$OUT/shape.txt"

python3 - "$OUT" <<'PY'
import re, statistics, sys
out = sys.argv[1]
floor = {}
for line in open(f'{out}/floor.txt'):
    m = re.match(r'BenchmarkFloor/([\w-]+)/d=(\d+)\s.*?([\d.]+) ns/row', line)
    if m:
        floor.setdefault((m.group(1), int(m.group(2))), []).append(float(m.group(3)))
loops = ('bare-bits', 'bare-gaplen', 'bare-encode', 'word', 'bare-decode', 'fillWindow')
dens = sorted({d for _, d in floor})
print('ns/row, median of runs (min-max) — one P')
print('| loop | ' + ' | '.join(f'density 1/{d}' for d in dens) + ' |')
print('|---|' + '---|' * len(dens))
for l in loops:
    print(f'| {l} | ' + ' | '.join(
        f'{statistics.median(floor[(l, d)]):.2f} ({min(floor[(l, d)]):.2f}-{max(floor[(l, d)]):.2f})' for d in dens) + ' |')
print('\n| ratio | ' + ' | '.join(f'density 1/{d}' for d in dens) + ' |')
print('|---|' + '---|' * len(dens))
med = lambda l, d: statistics.median(floor[(l, d)])
print('| word / bare-encode | ' + ' | '.join(f'{med("word", d) / med("bare-encode", d):.2f}' for d in dens) + ' |')
print('| fillWindow / bare-decode | ' + ' | '.join(f'{med("fillWindow", d) / med("bare-decode", d):.2f}' for d in dens) + ' |')
merge = {}
for line in open(f'{out}/merge.txt'):
    m = re.match(r'BenchmarkMergeStreams/(\w+)/density=1/(\d+)/k=(\d+)\s.*?([\d.]+) ns/row\s+(\d+) B/op', line)
    if m:
        merge.setdefault((m.group(1), int(m.group(2)), int(m.group(3))), []).append((float(m.group(4)), int(m.group(5))))
print('\nBenchmarkMergeStreams, ns per input row (B/op) — the whole merge: k fills, one emit')
print('| op | density | k=4 | k=16 | k=64 |')
print('|---|---|---|---|---|')
for op in ('union', 'complement'):
    for d in dens:
        print(f'| {op} | 1/{d} | ' + ' | '.join(
            f'{statistics.median(v[0] for v in merge[(op, d, k)]):.1f} ({merge[(op, d, k)][0][1]})' if (op, d, k) in merge else '-' for k in (4, 16, 64)) + ' |')
print('\nMerge shapes (one shard of four):')
for line in open(f'{out}/shape.txt'):
    print('  ' + line.rstrip())
PY
echo "raw output: $OUT" >&2
