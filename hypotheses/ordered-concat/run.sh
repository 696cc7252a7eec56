#!/usr/bin/env bash
# Hypothesis ordered-concat: the tree W is built over records ordered by
# character, then position, so the exact members of a cover that lies inside
# one character hold disjoint position ranges that increase in cover order —
# and a point query, which k-way merged them (decode every row, search the
# heads, re-encode every row), can concatenate them instead: re-encode one head
# gap per member, validate each tail with one bulk scan, copy it verbatim. The
# answer bytes and the reads cannot change; the CPU between them should, by
# about the merge's 63 % share of Index.Query on point-pread.
#
# Three measurements, one varied dimension each (ED-1):
#   census   TestPointCoverCensus (internal/core/shape_test.go): members per
#            key on point-pread's column, and Query(c, c) through the ordered
#            path beside the general merge of the same streams, keys grouped by
#            member count; then the ordered plans among 16-key and 64-192-key
#            ranges — the vanishing point (ED-2), which must read 0.
#   kernel   BenchmarkOrderedConcat (internal/cbitmap/ordered_test.go): one
#            key's rows cut into k members, merged by the general merge, by
#            concatenation with the per-row validation loop, and by
#            concatenation with the bulk scan — the two steps apart. Since
#            the concatenation became one kernel (cbitmap.Concat) the
#            benchmark has other arms, measured by hypotheses/point-run, and
#            this script's kernel table prints no rows.
#   pairs    BASE=<commit> PAIRS=n: alternating benchmark/bench.sh runs of
#            BASE, of this tree with Stream.scan turned back into the per-row
#            loop (the concatenation alone), and of this tree, on point-pread;
#            and BASE against this tree on scan-wide and serve-overlap, which
#            never plan an ordered merge.
#
# Usage: hypotheses/ordered-concat/run.sh [outdir]   (default: a fresh temp dir)
#   COUNT=5 repetitions per kernel benchmark; about 4 minutes without pairs.
#   BASE=<commit> PAIRS=10 SECONDS_PER_RUN=20 SEED0=501 adds the pairs
#   (about 35 s per run, 7 runs per pair; pair i uses seed SEED0+i-1);
#   OTHERS="" leaves scan-wide and serve-overlap out (3 runs per pair).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
COUNT="${COUNT:-5}"
PAIRS="${PAIRS:-0}"
SECONDS_PER_RUN="${SECONDS_PER_RUN:-20}"
SEED0="${SEED0:-501}"
OTHERS="${OTHERS-scan-wide serve-overlap}"
mkdir -p "$OUT"

# --- Preconditions (ED-3). ---
# 1. The concatenation answers with the general merge's bytes and stats, on
#    every device kind, and a broken order is an error, not an answer.
go test -count=1 -run 'TestMergeOrdered|TestScanMatchesNext' ./internal/cbitmap >/dev/null
go test -count=1 -short -run 'TestPointQueryConcatDifferential' ./internal/core >/dev/null
# 2. One P: a merge's cost, not the scheduler's.
go test -c -o "$OUT/cbitmap.test" ./internal/cbitmap

go test ./internal/core -count=1 -cpu 1 -run 'TestPointCoverCensus$' -core.census -v | grep '^census' >"$OUT/census.txt"
(cd internal/cbitmap && "$OUT/cbitmap.test" -test.run '^$' -test.bench 'BenchmarkOrderedConcat' -test.benchmem -test.cpu 1 -test.count "$COUNT" -test.timeout 30m) | grep '^Benchmark' >"$OUT/kernel.txt"

python3 - "$OUT" <<'PY'
import re, statistics, sys
out = sys.argv[1]
print('Members per key (ordered plans only), n = 2^19, sigma = 1024, zipf 1.0:')
for line in open(f'{out}/census.txt'):
    if 'ordered_keys=' in line:
        print('  ' + line.rstrip())
print('\nQuery(c, c) in memory, one P, keys in quartiles by member count; least of 5 passes, ns per query:')
print('| seed | members | mean members | mean rows | general merge | ordered concat | ratio |')
print('|---|---|---|---|---|---|---|')
for line in open(f'{out}/census.txt'):
    m = re.match(r'census seed=(\d+) group=\d+ members=([\d-]+) members_mean=([\d.]+) rows_mean=(\d+) general_ns=(\d+) ordered_ns=(\d+) ratio=([\d.]+)', line)
    if m:
        print('| ' + ' | '.join(m.groups()) + ' |')
print('\nThe vanishing point — ordered plans among the other workloads\' ranges:')
for line in open(f'{out}/census.txt'):
    if 'workload=' in line:
        print('  ' + line.rstrip())
runs = {}
for line in open(f'{out}/kernel.txt'):
    m = re.match(r'BenchmarkOrderedConcat/([\w-]+)/rows=(\d+)/k=(\d+)\s.*?([\d.]+) ns/row', line)
    if m:
        runs.setdefault((m.group(1), int(m.group(2)), int(m.group(3))), []).append(float(m.group(4)))
print('\nBenchmarkOrderedConcat, ns per row, median of runs (min-max), one P:')
print('| rows | k | general | concat, per-row scan | concat, bulk scan | general / concat-perrow | concat-perrow / concat |')
print('|---|---|---|---|---|---|---|')
cell = lambda v: f'{statistics.median(v):.1f} ({min(v):.1f}-{max(v):.1f})'
for rows, k in sorted({(r, k) for _, r, k in runs}):
    g, p, c = (runs[(a, rows, k)] for a in ('general', 'concat-perrow', 'concat'))
    print(f'| {rows} | {k} | {cell(g)} | {cell(p)} | {cell(c)} | {statistics.median(g) / statistics.median(p):.2f} | {statistics.median(p) / statistics.median(c):.2f} |')
PY

# --- Optional: end-to-end pairs against a base commit. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    mkdir -p "$OUT/base" "$OUT/perrow"
    git archive "$BASE" | tar -x -C "$OUT/base"
    # The concatenation alone: this tree with scan's body the loop it replaced.
    tar -c --exclude=.git --exclude=.bench_build . | tar -x -C "$OUT/perrow"
    python3 - "$OUT/perrow/internal/cbitmap/stream.go" <<'PY'
import re, sys
p = sys.argv[1]
s = open(p).read()
loop = '''func (s *Stream) scan() bool {
	for s.left > 0 {
		if _, ok := s.Next(); !ok {
			return false
		}
	}
	return true
}
'''
s, n = re.subn(r'func \(s \*Stream\) scan\(\) bool \{\n.*?\n\}\n', lambda _: loop, s, count=1, flags=re.S)
assert n == 1, 'Stream.scan not found'
open(p, 'w').write(s)
PY
    (cd "$OUT/perrow" && go test -count=1 -run 'TestMergeOrdered|FuzzMergeOrdered' ./internal/cbitmap >/dev/null)
    bench() { # side workload seed
        case "$1" in base) dir="$OUT/base" ;; perrow) dir="$OUT/perrow" ;; *) dir="$PWD" ;; esac
        echo "$3 $1 $(bash "$dir/benchmark/bench.sh" --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -1)" >>"$OUT/pairs-$2.txt"
    }
    : >"$OUT/pairs-point-pread.txt"; : >"$OUT/pairs-scan-wide.txt"; : >"$OUT/pairs-serve-overlap.txt"
    for i in $(seq 1 "$PAIRS"); do
        seed=$((SEED0 + i - 1))
        if ((i % 2)); then three="base perrow change"; two="base change"; else three="change perrow base"; two="change base"; fi
        for side in $three; do bench "$side" point-pread "$seed"; done
        for wl in $OTHERS; do
            for side in $two; do bench "$side" "$wl" "$seed"; done
        done
    done
    python3 - "$OUT" <<'PY'
import json, statistics, sys
out = sys.argv[1]
def q(v):
    v = sorted(v)
    return statistics.median(v), v[len(v) // 4], v[(3 * len(v)) // 4]
for wl in ('point-pread', 'scan-wide', 'serve-overlap'):
    runs = {}
    for line in open(f'{out}/pairs-{wl}.txt'):
        seed, side, js = line.split(' ', 2)
        runs.setdefault(side, {})[seed] = json.loads(js)
    if not runs:
        continue
    base = runs['base']
    print(f'\n{wl}: {len(base)} pairs; failed ' + ' / '.join(f'{s} {sum(r["failed"] for r in runs[s].values())}' for s in runs))
    for metric in ('query_per_s', 'query_p50_us', 'setup_s', 'blocks_per_query', 'read_amp', 'bits_per_row'):
        val = lambda side, seed: runs[side][seed]['metrics'][metric]['value']
        row = f'  {metric}:'
        for side in runs:
            m, lo, hi = q([val(side, s) for s in base])
            row += f' {side} {m:.6g} (q1-q3 {lo:.6g}-{hi:.6g})'
            if side != 'base':
                higher = metric == 'query_per_s'
                wins = sum((val(side, s) > val('base', s)) == higher and val(side, s) != val('base', s) for s in base)
                same = sum(val(side, s) == val('base', s) for s in base)
                row += f' [ahead of base {wins}/{len(base)}, equal {same}]'
        print(row)
    for s in sorted(base):
        print(f'    seed {s}: ' + '  '.join(f'{side} {runs[side][s]["metrics"]["query_per_s"]["value"]:.0f}/s p50 {runs[side][s]["metrics"]["query_p50_us"]["value"]:.1f}us' for side in runs))
PY
fi
echo "raw output: $OUT" >&2
