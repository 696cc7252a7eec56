#!/usr/bin/env bash
# Hypothesis member-runs: §2.2 makes an alphabet range a contiguous record
# range, and every materialised level lays its members out in record order, so
# consecutive cover nodes that land on one level are one member run on the
# device. A planner that emits one chunk per cover node pays, per node, a level
# search, a directory search, a structure-block touch, and downstream a span
# read and a pooled buffer; a planner that emits maximal runs pays them per
# run. The members, the blocks and the bits cannot change; the chunks and the
# planning time should, most on point queries (16 cover nodes, one run).
#
# Two measurements, one varied dimension each (ED-1):
#   census   TestMemberRunCensus (internal/core/planruns_test.go): chunks per
#            plan under the run planner and the per-node oracle over the same
#            members, for every key of point-pread's column and for 400
#            scan-wide ranges on one of its shards; PlanQuery and Query in
#            memory under both planners, keys in quartiles by member count,
#            and the scan-wide ranges — the vanishing point (ED-2).
#            The alternative ROADMAP proposed, a descent that follows only the
#            children overlapping the range, is now the tree's one cover
#            walk (Tree.cover over the split rule), so the census times it.
#            The per-node oracle now takes its cover from the definition
#            (Tree.Cover, a walk of the whole tree), so its planning times
#            are the oracle's; FINDINGS.md's per-node times predate that.
#   pairs    BASE=<commit> PAIRS=n: alternating benchmark/bench.sh runs of BASE
#            and this tree on point-pread, OTHER_PAIRS=m on scan-wide and
#            serve-overlap, and TRACED=k traced pairs on point-pread for
#            core.plan_ns_per_query.
#
# Usage: hypotheses/member-runs/run.sh [outdir]   (default: a fresh temp dir)
#   about 40 s without pairs.
#   BASE=<commit> PAIRS=10 OTHER_PAIRS=5 TRACED=5 SECONDS_PER_RUN=20 SEED0=2601
#   adds the pairs (about 15 s per run here, 60 runs; pair i uses seed
#   SEED0+i-1 on point-pread, SEED0+20+i-1 on the others, SEED0+40+i-1 traced).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
PAIRS="${PAIRS:-0}"
OTHER_PAIRS="${OTHER_PAIRS:-5}"
TRACED="${TRACED:-5}"
SECONDS_PER_RUN="${SECONDS_PER_RUN:-20}"
SEED0="${SEED0:-2601}"
mkdir -p "$OUT"

# --- Preconditions (ED-3). ---
# 1. Runs plan the oracle's members, charge its blocks and answer with its
#    bitmaps and stats, faults included; the batch planner and the point-query
#    concatenation are unedited and still agree.
go test -count=1 -run 'FuzzPlanRuns|FuzzQueryBatchPlanner|TestQueryBatch|TestFusedQueryAllocs' ./internal/core >/dev/null
go test -count=1 -short -run 'TestPointQueryConcatDifferential' ./internal/core >/dev/null

go test ./internal/core -count=1 -cpu 1 -run 'TestMemberRunCensus$' -core.runs -v | grep '^runs' >"$OUT/census.txt"

python3 - "$OUT" <<'PY'
import re, sys
out = sys.argv[1]
def rows(path):
    for line in open(path):
        yield dict(re.findall(r'(\w+)=([\w.-]+)', line))
tree = list(rows(f'{out}/census.txt'))
print('Chunks per plan over the same members (census, n = 2^19 / shard of 2^20, sigma = 1024, zipf 1.0):')
print('| seed | workload | plans | members | chunks, per node | chunks, runs | levels touched |')
print('|---|---|---|---|---|---|---|')
for r in tree:
    if 'workload' in r:
        plans = r.get('keys', r.get('ranges'))
        print(f"| {r['seed']} | {r['workload']} | {plans} | {r.get('members', '-')} | {r['chunks_pernode']} | {r['chunks_runs']} | {r['levels_runs']} |")
print('\nThe cover walk alone (uncharged) beside the whole run plan, every point key, ns per key:')
print('| seed | walk | PlanQuery, runs |')
print('|---|---|---|')
for r in tree:
    if r.get('workload') == 'point-pread':
        print(f"| {r['seed']} | {r['walk_ns']} | {r['plan_runs_ns']} |")
print('\nIn memory, one P, least of 5 passes, ns per query; point keys in quartiles by member count:')
print('| seed | group | members | mean | PlanQuery, per node | PlanQuery, runs | Query, per node | Query, runs |')
print('|---|---|---|---|---|---|---|---|')
for r in tree:
    if 'group' in r:
        print(f"| {r['seed']} | {r['group']} | {r['members']} | {r['members_mean']} | {r['plan_pernode_ns']} | {r['plan_runs_ns']} | {r['query_pernode_ns']} | {r['query_runs_ns']} |")
    elif r.get('workload') == 'scan-wide':
        print(f"| {r['seed']} | scan-wide | {r['members']} | - | {r['plan_pernode_ns']} | {r['plan_runs_ns']} | {r['query_pernode_ns']} | {r['query_runs_ns']} |")
PY

# --- Optional: end-to-end pairs against a base commit. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    rm -rf "$OUT/base"
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    bench() { # side workload seed [trace]
        if [ "$1" = base ]; then dir="$OUT/base"; else dir="$PWD"; fi
        echo "$3 $1 $(bash "$dir/benchmark/bench.sh" --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace "${4:-0}" 2>/dev/null | tail -1)" >>"$OUT/pairs-$2${4:+-traced}.txt"
    }
    : >"$OUT/pairs-point-pread.txt"; : >"$OUT/pairs-scan-wide.txt"; : >"$OUT/pairs-serve-overlap.txt"; : >"$OUT/pairs-point-pread-traced.txt"
    for i in $(seq 1 "$PAIRS"); do
        if ((i % 2)); then two="base change"; else two="change base"; fi
        for side in $two; do bench "$side" point-pread $((SEED0 + i - 1)); done
        if [ "$i" -le "$OTHER_PAIRS" ]; then
            for wl in scan-wide serve-overlap; do
                for side in $two; do bench "$side" "$wl" $((SEED0 + 20 + i - 1)); done
            done
        fi
    done
    for i in $(seq 1 "$TRACED"); do
        if ((i % 2)); then two="base change"; else two="change base"; fi
        for side in $two; do bench "$side" point-pread $((SEED0 + 40 + i - 1)) 1; done
    done
    python3 - "$OUT" <<'PY'
import json, statistics, sys
out = sys.argv[1]
def q(v):
    v = sorted(v)
    return statistics.median(v), v[len(v) // 4], v[(3 * len(v)) // 4]
for wl in ('point-pread', 'scan-wide', 'serve-overlap', 'point-pread-traced'):
    runs = {}
    for line in open(f'{out}/pairs-{wl}.txt'):
        seed, side, js = line.split(' ', 2)
        runs.setdefault(side, {})[seed] = json.loads(js)
    if not runs:
        continue
    base, change = runs['base'], runs['change']
    print(f'\n{wl}: {len(base)} pairs; failed base {sum(r["failed"] for r in base.values())} / change {sum(r["failed"] for r in change.values())}; correct {all(r["correct"] for s in runs.values() for r in s.values())}')
    traced = wl.endswith('traced')  # a traced run reports the layer metrics only
    metrics = ['core.plan_ns_per_query'] if traced else ['query_per_s', 'query_p50_us', 'setup_s', 'blocks_per_query', 'read_amp', 'bits_per_row']
    for metric in metrics:
        val = lambda side, seed: runs[side][seed]['metrics'][metric]['value']
        b, c = q([val('base', s) for s in base]), q([val('change', s) for s in base])
        higher = metric == 'query_per_s'
        ahead = sum((val('change', s) > val('base', s)) == higher and val('change', s) != val('base', s) for s in base)
        equal = sum(val('change', s) == val('base', s) for s in base)
        print(f'  {metric}: base {b[0]:.6g} (q1-q3 {b[1]:.6g}-{b[2]:.6g}) change {c[0]:.6g} (q1-q3 {c[1]:.6g}-{c[2]:.6g}) ratio {c[0] / b[0]:.3f} [change ahead {ahead}/{len(base)}, equal {equal}]')
    for s in sorted(base) if not traced else ():
        print(f'    seed {s}: ' + '  '.join(f'{side} {runs[side][s]["metrics"]["query_per_s"]["value"]:.0f}/s p50 {runs[side][s]["metrics"]["query_p50_us"]["value"]:.2f}us' for side in ('base', 'change')))
PY
fi
echo "raw output: $OUT" >&2
