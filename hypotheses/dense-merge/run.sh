#!/usr/bin/env bash
# Hypothesis dense-merge: below some answer density the per-row merge loop
# beats the window kernel, above it the kernel wins; the density where the
# effect vanishes is cbitmap's denseCrossover.
#
# One dimension varies — the density of the merged inputs in their universe
# (one position per D, D = 4 … 4096) — at fixed n = 2^20, for k = 2/4/16/64
# disk-backed validating streams, union and complement, seeds 42/123/456.
# Both arms run the same streams in the same process: BenchmarkMergePaths
# forces runMerge's sparse or dense path and bypasses only the dispatch.
#
# Usage: hypotheses/dense-merge/run.sh [outdir]     (default: a fresh temp dir)
#   COUNT=5 BENCHTIME=0.2s SEEDS="42 123 456" override the defaults.
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-0.2s}"
SEEDS="${SEEDS:-42 123 456}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. Both arms compute the same thing: equal bytes, Card, last, Contains/Rank
#    on every edge case and on both sides of the threshold.
go test -count=1 -run 'TestMergeDenseEdges|TestMergeDenseThreshold|TestMergeDenseHugeGap' ./internal/cbitmap >/dev/null
# 2. The constant under test is the one this script's table is read against.
CROSSOVER="$(sed -n 's/^[[:space:]]*denseCrossover = \([0-9]*\)$/\1/p' internal/cbitmap/dense.go)"
[ -n "$CROSSOVER" ] || { echo "precondition: denseCrossover not found in internal/cbitmap/dense.go" >&2; exit 1; }
# 3. One binary serves every seed and both arms.
go test -c -o "$OUT/cbitmap.test" ./internal/cbitmap
# 4. The sweep really varies density: each arm's input holds n/D positions.
"$OUT/cbitmap.test" -test.run '^$' -test.bench 'BenchmarkMergePaths/union/k=4/density=1_(4|4096)/sparse' -test.benchtime 1x |
    awk '/^BenchmarkMergePaths/ { rows[++i] = $3 / $5 } END { if (i != 2 || rows[1] < 200 * rows[2]) { print "precondition: density sweep does not vary the input size" > "/dev/stderr"; exit 1 } }'

for seed in $SEEDS; do
    echo "== seed $seed" >&2
    "$OUT/cbitmap.test" -test.run '^$' -test.bench 'BenchmarkMergePaths' -test.benchmem \
        -test.benchtime "$BENCHTIME" -test.count "$COUNT" -test.timeout 2h -merge.seed "$seed" >"$OUT/sweep-$seed.txt"
done

python3 - "$CROSSOVER" "$OUT" $SEEDS <<'PY'
import collections, re, statistics, sys

crossover, out, seeds = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
row = re.compile(r'BenchmarkMergePaths/(\w+)/k=(\d+)/density=1_(\d+)/(\w+)-\d+\s+\d+\s+[\d.]+ ns/op\s+([\d.]+) ns/row')
med = {}
for seed in seeds:
    runs = collections.defaultdict(list)
    for line in open(f'{out}/sweep-{seed}.txt'):
        if m := row.match(line):
            op, k, d, path, ns = m.groups()
            runs[op, int(k), int(d), path].append(float(ns))
    for key, v in runs.items():
        med[(seed, *key)] = statistics.median(v)
ops = sorted({k[1] for k in med}, reverse=True)
ks = sorted({k[2] for k in med})
ds = sorted({k[3] for k in med})
print(f'ns per input row, median of each seed\'s runs; ratio = dense/sparse (< 1: the window wins); denseCrossover = {crossover}')
for op in ops:
    for k in ks:
        print(f'\n{op} k={k}')
        print('  density   ' + '   '.join(f'seed {s}: sparse  dense ratio' for s in seeds))
        breakeven = None
        for d in ds:
            cells, ratios = [], []
            for s in seeds:
                sp, de = med[s, op, k, d, 'sparse'], med[s, op, k, d, 'dense']
                ratios.append(de / sp)
                cells.append(f'{sp:17.1f} {de:6.1f} {de / sp:5.2f}')
            mark = ''
            if all(r < 1 for r in ratios):
                breakeven = d
            elif all(r > 1 for r in ratios):
                mark = '  sparse wins on every seed'
            print(f'  1/{d:<7} ' + '   '.join(cells) + mark)
        print(f'  sparsest density where dense wins on every seed: 1/{breakeven}')
PY
echo "raw runs: $OUT/sweep-<seed>.txt" >&2
