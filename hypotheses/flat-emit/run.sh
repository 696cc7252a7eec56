#!/usr/bin/env bash
# Hypothesis flat-emit: the window kernel's encoder (denseEmitter.word) takes a
# data-dependent branch per set bit and per word, and at the merge densities
# the served workloads see (one row per ~110 positions on serve-overlap) those
# branches mispredict on almost every word. Extracting a window's set bits
# into a flat position list without branching (four trailing-zero positions
# per word, written unconditionally; a loop only for a word of more than
# four) and gamma-coding the list in one loop (emitSorted) is cheaper per row
# below some window population; above it word's run-of-ones trick wins. The
# largest end-to-end gain is on serve-overlap, the sparsest window merges.
#
# BenchmarkFloor (internal/cbitmap/floor_test.go), per density 1/2 ... 1/128
# of a 2^20 universe: the bare accumulate-and-store loop; word (emitRuns);
# the flat encoder (emitFlat); emit, which picks between them by the window's
# population. BenchmarkEmitCrossover forces both encoders from 1/128 to 7/8 of
# the bits set: the sweep that sets flatMaxPerWord. Every encoder's output is
# checked against the Builder's bit for bit inside the benchmark.
#
# Usage: hypotheses/flat-emit/run.sh [outdir]   (default: a fresh temp dir)
#   COUNT=5 repetitions per benchmark (median reported), about 4 minutes.
#   BASE=<ref> also runs `scripts/ab.sh <ref> all $PAIRS $SECS` (PAIRS=10,
#   SECS=20: about 45 minutes on 2 cores), the end-to-end A/B against <ref>.
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
COUNT="${COUNT:-5}"
mkdir -p "$OUT"

# --- Preconditions (ED-3). ---
# 1. Both encoders, forced and dispatched, write FromPositions' bytes and skip
#    samples on every edge case, and the window merge still equals the per-row
#    merge sampled and unsampled (the fuzz target's seeds).
go test -count=1 -run 'TestEmitEncoders|TestMergeDense|FuzzMergeDenseVsSparse' ./internal/cbitmap >/dev/null
# 2. The constant under test is the one the sweep is read against.
FLATMAX="$(sed -n 's/^[[:space:]]*flatMaxPerWord = \([0-9]*\)$/\1/p' internal/cbitmap/dense.go)"
[ -n "$FLATMAX" ] || { echo "precondition: flatMaxPerWord not found in internal/cbitmap/dense.go" >&2; exit 1; }
# 3. One binary, one P: a kernel's cost, not the scheduler's.
go test -c -o "$OUT/cbitmap.test" ./internal/cbitmap
(cd internal/cbitmap && "$OUT/cbitmap.test" -test.run '^$' -test.bench 'BenchmarkFloor/(bare-encode|word|flat|emit)/|BenchmarkEmitCrossover' \
	-test.cpu 1 -test.count "$COUNT" -test.timeout 30m) | grep '^Benchmark' >"$OUT/floor.txt"

python3 - "$OUT" "$FLATMAX" <<'PY'
import re, statistics, sys
out, flatmax = sys.argv[1], int(sys.argv[2])
floor, cross = {}, {}
for line in open(f'{out}/floor.txt'):
    if m := re.match(r'BenchmarkFloor/([\w-]+)/d=(\d+)\s.*?([\d.]+) ns/row', line):
        floor.setdefault((m.group(1), int(m.group(2))), []).append(float(m.group(3)))
    elif m := re.match(r'BenchmarkEmitCrossover/(\w+)/set=([\d.]+)\s.*?([\d.]+) ns/row', line):
        cross.setdefault((m.group(1), float(m.group(2))), []).append(float(m.group(3)))
cell = lambda v: f'{statistics.median(v):.2f} ({min(v):.2f}-{max(v):.2f})'
dens = sorted({d for _, d in floor})
print('BenchmarkFloor, ns/row, median of runs (min-max) — one P')
print('| encoder | ' + ' | '.join(f'1/{d}' for d in dens) + ' |')
print('|---|' + '---|' * len(dens))
for l in ('bare-encode', 'word', 'flat', 'emit'):
    print(f'| {l} | ' + ' | '.join(cell(floor[(l, d)]) for d in dens) + ' |')
med = lambda t, k: statistics.median(t[k])
print('| word / flat | ' + ' | '.join(f'{med(floor, ("word", d)) / med(floor, ("flat", d)):.2f}' for d in dens) + ' |')
sets = sorted({s for _, s in cross})
print('\nBenchmarkEmitCrossover, ns/row, median (min-max) — one P')
print('| set bits | set bits per word | word | flat | flat / word |')
print('|---|---|---|---|---|')
flat_wins = []
for s in sets:
    w, f = med(cross, ('word', s)), med(cross, ('flat', s))
    if f < w:
        flat_wins.append(s)
    print(f'| {s:.4f} | {64 * s:.1f} | {cell(cross[("word", s)])} | {cell(cross[("flat", s)])} | {f / w:.2f} |')
last = max(flat_wins, default=0)
above = min((s for s in sets if s > last), default=None)
print(f'\nflat wins up to {64 * last:.1f} set bits per word'
      + (f', word from {64 * above:.1f}' if above else '')
      + f'; flatMaxPerWord = {flatmax}')
PY
if [ -n "${BASE:-}" ]; then
	scripts/ab.sh "$BASE" all "${PAIRS:-10}" "${SECS:-20}" | tee "$OUT/ab.txt"
fi
echo "raw output: $OUT" >&2
