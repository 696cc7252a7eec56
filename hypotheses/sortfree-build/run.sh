#!/usr/bin/env bash
# Hypothesis sortfree-build: the member-at-a-time build of the Theorem 3
# hashed levels comparison-sorts every row 2·k times per level, so its cost
# per row grows with lg n; the level pass + bitset/radix build does no
# comparison sort above a tiny-member cutover, so its cost per row is flat.
# (Since PR 16 no build stores the 2^32 universe: the radix path and its
# cutover, which this script also swept, are gone — FINDINGS.md, Addendum.)
#
# Sweep 1 varies one dimension — the column length n, 2^14 … 2^21, σ = 1024
# zipf(1.1) — and builds each column through both constructions in the same
# process (BenchmarkBuildApproxPaths: `reference` is the parent's path, kept
# in approx_build_test.go as the differential oracle; `sortfree` is
# core.BuildApprox).
#
# Sweep 2 varies one dimension — the member size, 2 … 1024 rows — and forces
# each hashedSet path on the same members (BenchmarkHashedSetPaths): bitset
# against small-sort at j = 4. The size where the effect vanishes is the
# cutover constant in approx_build.go.
#
# Usage: hypotheses/sortfree-build/run.sh [outdir]   (default: a fresh temp dir)
#   COUNT=3 BENCHTIME=0.2s BUILDTIME=1s SEEDS="42 123 456" override the defaults.
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
COUNT="${COUNT:-3}"
BENCHTIME="${BENCHTIME:-0.2s}"
BUILDTIME="${BUILDTIME:-1s}"
SEEDS="${SEEDS:-42 123 456}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. Both constructions leave the same device image, extents and
#    cardinalities, and every hashedSet path emits the oracle's bytes.
go test -count=1 -short -run 'TestBuildApproxDifferential|TestBuildApproxHeavyColumnShape|FuzzHashedSetEncode' ./internal/core >/dev/null
# 2. The constants under test are the ones the tables are read against.
BITSET_MIN="$(sed -n 's/^const bitsetMinRows = \([0-9]*\)$/\1/p' internal/core/approx_build.go)"
[ -n "$BITSET_MIN" ] || { echo "precondition: cutover constant not found in internal/core/approx_build.go" >&2; exit 1; }
# 3. One binary serves every seed and every arm.
go test -c -o "$OUT/core.test" ./internal/core
# 4. The n sweep really varies n: the 2^21 build handles 128× the rows of 2^14.
"$OUT/core.test" -test.run '^$' -test.bench 'BenchmarkBuildApproxPaths/n=2\^(14|21)/sortfree' -test.benchtime 1x |
    awk '/^BenchmarkBuildApproxPaths/ { rows[++i] = $3 / $5 } END { if (i != 2 || rows[2] < 100 * rows[1]) { print "precondition: n sweep does not vary the input size" > "/dev/stderr"; exit 1 } }'

for seed in $SEEDS; do
    echo "== seed $seed" >&2
    "$OUT/core.test" -test.run '^$' -test.bench 'BenchmarkBuildApproxPaths' -test.benchmem \
        -test.benchtime "$BUILDTIME" -test.count "$COUNT" -test.timeout 2h -hashed.seed "$seed" >"$OUT/build-$seed.txt"
    "$OUT/core.test" -test.run '^$' -test.bench 'BenchmarkHashedSetPaths' \
        -test.benchtime "$BENCHTIME" -test.count "$COUNT" -test.timeout 2h -hashed.seed "$seed" >"$OUT/paths-$seed.txt"
done

python3 - "$BITSET_MIN" "$OUT" $SEEDS <<'PY'
import collections, re, statistics, sys

bitset_min, out, seeds = int(sys.argv[1]), sys.argv[2], sys.argv[3:]

def medians(prefix, pattern):
    row, med = re.compile(pattern), {}
    for seed in seeds:
        runs = collections.defaultdict(list)
        for line in open(f'{out}/{prefix}-{seed}.txt'):
            if m := row.match(line):
                *key, ns = m.groups()
                runs[tuple(key)].append(float(ns))
        for key, v in runs.items():
            med[(seed, *key)] = statistics.median(v)
    return med

build = medians('build', r'BenchmarkBuildApproxPaths/n=2\^(\d+)/(\w+)-\d+\s+\d+\s+[\d.]+ ns/op\s+([\d.]+) ns/row')
print('Sweep 1 — ns per row of a whole BuildApprox, median of each seed\'s runs')
print('  n       ' + '   '.join(f'seed {s}: reference sortfree ratio' for s in seeds))
for lg in sorted({int(k[1]) for k in build}):
    cells = []
    for s in seeds:
        ref, new = build[s, str(lg), 'reference'], build[s, str(lg), 'sortfree']
        cells.append(f'{ref:19.0f} {new:8.0f} {new / ref:5.2f}')
    print(f'  2^{lg:<5} ' + '   '.join(cells))
for s in seeds:
    lo, hi = min(int(k[1]) for k in build), max(int(k[1]) for k in build)
    for arm in ('reference', 'sortfree'):
        print(f'  seed {s} {arm:9}: 2^{hi} costs {build[s, str(hi), arm] / build[s, str(lo), arm]:.2f}× the ns/row of 2^{lo}')

paths = medians('paths', r'BenchmarkHashedSetPaths/j=(\d)/rows=(\d+)/(\w+)-\d+\s+\d+\s+[\d.]+ ns/op\s+([\d.]+) ns/row')
cut = {'4': bitset_min}
for j, fast in (('4', 'bitset'),):
    print(f'\nSweep 2, j = {j} — ns per row, {fast} against small-sort; ratio = {fast}/small (< 1: {fast} wins); '
          f'the dispatcher switches to {fast} at {cut[j]} rows')
    print('  rows    ' + '   '.join(f'seed {s}:  small {fast:>6} ratio' for s in seeds))
    first = None
    for rows in sorted({int(k[2]) for k in paths if k[1] == j}):
        cells, ratios = [], []
        for s in seeds:
            sm, fa = paths[s, j, str(rows), 'small'], paths[s, j, str(rows), fast]
            ratios.append(fa / sm)
            cells.append(f'{sm:15.1f} {fa:6.1f} {fa / sm:5.2f}')
        if first is None and all(r < 1 for r in ratios):
            first = rows
        elif not all(r < 1 for r in ratios):
            first = None
        print(f'  {rows:<7} ' + '   '.join(cells))
    print(f'  smallest size from which {fast} wins on every seed at every larger size: {first}')
PY
echo "raw runs: $OUT/{build,paths}-<seed>.txt" >&2
