#!/usr/bin/env bash
# Hypothesis point-run: a point query's members are disjoint and increasing,
# so their union is each member's codes in turn with one head code re-based
# per member. Writing that straight into an exact-size buffer from each
# member's bit range (cbitmap.Concat) — no decode stream, primed head,
# Builder or drain per member, and no final copy — leaves the answer's bytes,
# blocks and bits as they were and takes most of the per-member CPU off a
# point query.
#
# Three measurements, one varied dimension each (ED-1):
#   census   TestPointRunCensus (internal/core/pointrun_test.go): members per
#            ordered point plan on point-pread's column, bits and rows per
#            member, the share re-encoded, and in-process ns per query of
#            one-member keys, keys of several members and 16-key ranges (the
#            vanishing point, ED-2: one member has little per-member work to
#            lose, and a range of several keys never takes the kernel).
#   kernel   BenchmarkOrderedConcat (internal/cbitmap/concat_bench_test.go):
#            16 members of 2, 8, 32 and 128 rows, concatenated from their bit
#            ranges, cold (every member validated) and warm (replayed).
#   pairs    scripts/ab.sh BASE on point-pread, then scan-wide and
#            serve-overlap, which take the kernel only for the shard union.
#
# Usage: hypotheses/point-run/run.sh [outdir]   (default: a fresh temp dir)
#   COUNT=5 rounds of the census timings and the kernel benchmark; about 3
#   minutes without BASE. BASE=<commit> adds the base's side of both, whose
#   rounds alternate with this tree's: the base runs this tree's
#   pointrun_test.go, and concat_bench_test.go over parent_arm.go.in, the
#   merge as the base's executor ran it (a Stream per member,
#   MergeStreamsOrdered).
#   PAIRS=10 (with BASE) adds scripts/ab.sh BASE point-pread PAIRS 20;
#   OTHER_PAIRS=10 (with BASE) adds scan-wide and serve-overlap.
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
COUNT="${COUNT:-5}"
PAIRS="${PAIRS:-0}"
OTHER_PAIRS="${OTHER_PAIRS:-0}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. The kernel answers with the general merge's set and the one-stream
#    drain's bytes, and fails a broken order or a corrupt member typed.
go test -count=1 -run 'TestConcatDifferential|TestMergeOrdered|TestDominantOrderVote|TestValidatedLast' ./internal/cbitmap >/dev/null
# 2. Point queries keep their bytes and stats on every device kind, and the
#    memo still fills.
go test -count=1 -short -run 'TestPointQueryConcatDifferential|TestPointPlans' ./internal/core >/dev/null
go test -count=1 -run 'TestPointQueryConcatMemo|TestValidationMemo' . >/dev/null

trees=(change)
if [ -n "${BASE:-}" ]; then
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    cp internal/cbitmap/concat_bench_test.go "$OUT/base/internal/cbitmap/"
    cp hypotheses/point-run/parent_arm.go.in "$OUT/base/internal/cbitmap/concatarm_test.go"
    cp internal/core/pointrun_test.go "$OUT/base/internal/core/"
    # The base's own kernel benchmark had other arms under this name.
    sed -i 's/^func BenchmarkOrderedConcat(/func benchmarkOrderedConcatBase(/' "$OUT/base/internal/cbitmap/ordered_test.go"
    trees=(base change)
fi
dir() { if [ "$1" = base ]; then echo "$OUT/base"; else pwd; fi; }

for side in "${trees[@]}"; do
    (cd "$(dir "$side")" && go test -c -o "$OUT/$side-core.test" ./internal/core &&
        go test -c -o "$OUT/$side-cbitmap.test" ./internal/cbitmap)
done
: >"$OUT/census.txt"
: >"$OUT/kernel.txt"
for round in $(seq 1 "$COUNT"); do
    for side in "${trees[@]}"; do
        (cd "$(dir "$side")/internal/core" && "$OUT/$side-core.test" -test.run 'TestPointRunCensus$' \
            -test.cpu 1 -core.pointrun) | grep '^pointrun' | sed "s/^/$side /" >>"$OUT/census.txt"
        (cd "$(dir "$side")/internal/cbitmap" && "$OUT/$side-cbitmap.test" -test.run '^$' \
            -test.bench 'BenchmarkOrderedConcat' -test.benchmem -test.cpu 1 -test.timeout 30m) |
            grep '^Benchmark' | sed "s/^/$side /" >>"$OUT/kernel.txt"
    done
    echo "round $round/$COUNT done" >&2
done

python3 - "$OUT" <<'PY'
import re, statistics, sys
out = sys.argv[1]
print('Census (point-pread column, n = 2^19, sigma = 1024, zipf 1.0):')
groups, seen = {}, set()
for line in open(f'{out}/census.txt'):
    side, rest = line.split(' ', 1)
    m = re.search(r'group=(\S+) queries=(\d+) ns_per_query=(\S+)', rest)
    if m:
        groups.setdefault((m.group(1), m.group(2)), {}).setdefault(side, []).append(float(m.group(3)))
    elif line not in seen:
        seen.add(line)
        print('  ' + line.rstrip())
print('In-process ns per query, memo warm, medians of the rounds:')
for (g, q), sides in groups.items():
    print(f'  {g:16} ({q} queries) ' + '  '.join(f'{s} {statistics.median(v):.0f}' for s, v in sides.items()))
runs = {}
for line in open(f'{out}/kernel.txt'):
    f = line.split()
    side, name = f[0], re.sub(r'-\d+$', '', f[1])
    m = {u: float(v) for v, u in zip(f[3::2], f[4::2])}
    runs.setdefault((name, side), []).append(m)
print('\nBenchmarkOrderedConcat, 16 members, medians of the rounds:')
print(f'  {"arm":34} {"side":7} {"ns/member":>10} {"ns/row":>8} {"allocs":>7}')
for name in sorted({n for n, _ in runs}, key=lambda n: (n.split('/')[1], int(n.split('=')[1]))):
    for side in ('base', 'change'):
        ms = runs.get((name, side))
        if ms:
            med = lambda u: statistics.median(x[u] for x in ms)
            print(f'  {name:34} {side:7} {med("ns/member"):10.1f} {med("ns/row"):8.2f} {med("allocs/op"):7.0f}')
PY

if [ "$PAIRS" -gt 0 ] || [ "$OTHER_PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS and OTHER_PAIRS need BASE=<commit>" >&2; exit 1; }
fi
if [ "$PAIRS" -gt 0 ]; then
    scripts/ab.sh "$BASE" point-pread "$PAIRS" 20 | tee "$OUT/pairs-point-pread.txt"
fi
if [ "$OTHER_PAIRS" -gt 0 ]; then
    for w in scan-wide serve-overlap; do
        scripts/ab.sh "$BASE" "$w" "$OTHER_PAIRS" 20 | tee "$OUT/pairs-$w.txt"
    done
fi
echo "raw output: $OUT" >&2
