#!/usr/bin/env bash
# Run the decode-path, query-engine and write-path micro-benchmarks and emit
# BENCH_<tag>.json so the perf trajectory is tracked from PR to PR.
#
# After writing the new file, the script compares allocs/op and blockIO/op
# (including blockIO/batch) against the most recent committed BENCH_<n>.json
# — both are deterministic across machines, unlike ns/op — and fails loudly
# on a >20% regression in any benchmark present in both files, or when
# BenchmarkBuild/public/n=524288 allocates more than 1.25 x BENCH_16's B/op.
#
# Usage: scripts/bench.sh [tag] [count]
#   tag    suffix for the output file (default: one past the highest
#          committed BENCH_<n>.json)
#   count  benchmark repetitions (default: 3)
set -euo pipefail
cd "$(dirname "$0")/.."

LAST="$(ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -1 || true)"
TAG="${1:-$((${LAST:-0} + 1))}"
COUNT="${2:-3}"
PATTERN='BenchmarkGammaDecode|BenchmarkBitioReadUnary|BenchmarkBitmapUnion|BenchmarkBitmapIntersect|BenchmarkMergeStreams|BenchmarkContains|BenchmarkBitmapDecode|BenchmarkShardedQuery|BenchmarkShardedQueryBatch|BenchmarkIndexQuery|BenchmarkAppendDirect|BenchmarkAppendBuffered|BenchmarkRebuild|BenchmarkBuildOptimal|BenchmarkBuild$|BenchmarkApproxQuery|BenchmarkServeSim|BenchmarkServerHit|BenchmarkFileDiskQuery'
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -count "$COUNT" . | tee "$RAW"
# BenchmarkDynamicChange amortises rebuilds over b.N, so its allocs/op is a
# sawtooth in the iteration count (49 at 15000x, 65 at 17000x on one tree): a
# fixed count keeps the gated figure a property of the code, not of the run.
go test -run '^$' -bench 'BenchmarkDynamicChange$' -benchmem -benchtime 15000x -count "$COUNT" . | tee -a "$RAW"

python3 - "$RAW" "BENCH_${TAG}.json" <<'EOF'
import glob, json, re, statistics, sys

raw, out = sys.argv[1], sys.argv[2]
runs = {}
extra = {}
for line in open(raw):
    m = re.match(r'(Benchmark[\w/=.-]+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(.*)', line)
    if not m:
        continue
    name = m.group(1)
    runs.setdefault(name, []).append(float(m.group(3)))
    for val, unit in re.findall(r'([\d.]+) ([\w/%-]+)', m.group(4)):
        if unit != 'ns/op':
            extra.setdefault(name, {}).setdefault(unit, []).append(float(val))

result = {
    name: {
        'ns_per_op_median': statistics.median(vals),
        'runs': len(vals),
        **{u.replace('/', '_per_'): statistics.median(v)
           for u, v in extra.get(name, {}).items()},
    }
    for name, vals in sorted(runs.items())
}
with open(out, 'w') as f:
    json.dump(result, f, indent=2, sort_keys=True)
    f.write('\n')
print(f'wrote {out} ({len(result)} benchmarks)')

# --- Memory gate: the level-parallel build may not buy its speed with bytes. ---
# 1.25 x the 38 484 941 B/op of the one-level-at-a-time build (BENCH_16.json).
BUILD = 'BenchmarkBuild/public/n=524288'
BUILD_BYTES_LIMIT = 1.25 * 38484941
if BUILD in result and result[BUILD].get('B_per_op', 0) > BUILD_BYTES_LIMIT:
    print(f"BENCHMARK REGRESSION: {BUILD} allocates {result[BUILD]['B_per_op']:.0f} B/op, limit {BUILD_BYTES_LIMIT:.0f}")
    sys.exit(1)

# --- Allocation regression gate vs the previous committed BENCH file. ---
def tag_of(path):
    m = re.fullmatch(r'BENCH_(\d+)\.json', path)
    return int(m.group(1)) if m else None

cur_tag = tag_of(out)
candidates = sorted(
    (t, p) for p in glob.glob('BENCH_*.json')
    if (t := tag_of(p)) is not None and (cur_tag is None or t < cur_tag)
)
if not candidates:
    print('no previous BENCH file; skipping allocation regression gate')
    sys.exit(0)
prev_tag, prev_path = candidates[-1]
prev = json.load(open(prev_path))
# Gated metrics: allocation counts and I/O-model block counts. Both carry
# 20% relative headroom plus 2 absolute slack, so benchmarks with
# single-digit counts do not flap on a one-unit wobble.
GATED = ('allocs_per_op', 'blockIO_per_op', 'blockIO_per_batch')
regressions = []
for name, cur in result.items():
    old = prev.get(name)
    if old is None:
        continue
    for metric in GATED:
        if metric not in old or metric not in cur:
            continue
        limit = old[metric] * 1.2 + 2
        if cur[metric] > limit:
            regressions.append(
                f"  {name}: {cur[metric]:.1f} {metric} vs {old[metric]:.1f} in {prev_path} (limit {limit:.1f})")
if regressions:
    print(f'BENCHMARK REGRESSION vs {prev_path}:')
    print('\n'.join(regressions))
    sys.exit(1)
print(f'allocs/blockIO regression gate passed vs {prev_path}')
EOF
