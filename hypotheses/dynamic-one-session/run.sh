#!/usr/bin/env bash
# Hypothesis dynamic-one-session: the fully dynamic kind's range query ran one
# point query per bin of every cover node, each in its own accounting
# session, so the buffers on the root-to-leaf path the bins share were
# charged once per bin, and each bin's answer was materialised (map, sort,
# Bitmap) before the merge. Reading every bin of a run in one descent, in the
# query's one session, with the leaves streamed from the device and the
# pending updates merged as one in-memory overlay, should charge what the
# per-bin point queries charge when they share one session — the session
# dedup, predictable before measuring — and allocate a constant per query.
#
# Measurements, one varied dimension each (ED-1):
#   census   TestDynamicSessionCensus (internal/core/dynsession_test.go): the
#            blocks of BenchmarkIndexQuery/dynamic's 2 000 queries under one
#            session per bin (the parent's charge), the per-bin reference
#            queries sharing one session (the prediction) and Query, beside
#            the structure's stated cost per run of bins.
#   micro    BenchmarkIndexQuery/{append,append-buffered,dynamic} at 2000x and
#            BenchmarkDynamicChange at 12000x (the write path shares the leaf
#            and buffer readers); BASE=<commit> adds the parent's side.
#   e8       cmd/experiments E8's I/O columns; BASE adds the parent's.
#   pairs    BASE=<commit> PAIRS=n: alternating benchmark/bench.sh runs of BASE
#            and this tree on dynamic-churn (outside the gated set), and
#            OTHER_PAIRS=m on each gated workload, which never runs this code.
#
# Usage: hypotheses/dynamic-one-session/run.sh [outdir]  (default: a temp dir)
#   about 1 min without BASE; BASE=<commit> PAIRS=10 OTHER_PAIRS=3
#   SECONDS_PER_RUN=10 SEED0=3301 adds about 12 min (pair i uses seed
#   SEED0+i-1 on dynamic-churn, SEED0+20+i-1 on the gated workloads).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
PAIRS="${PAIRS:-0}"
OTHER_PAIRS="${OTHER_PAIRS:-3}"
SECONDS_PER_RUN="${SECONDS_PER_RUN:-10}"
SEED0="${SEED0:-3301}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): answers and charged reads equal the per-bin
# oracle's in one session, the point index equals its set oracle and its
# reference query over every run of bins, a leaf or overlay position outside
# [0,n) fails typed, and the append kind's overlay answers as before. ---
go test -count=1 -run 'TestDynamicQueryStreamDifferential|TestDynQueryStreamDifferential|FuzzPointIndexOps|TestPointIndexCorruptLeafTyped|TestAddOverlayValidates|TestDynamicQueryAllocs' ./internal/core >/dev/null

if [ -n "${BASE:-}" ]; then
    rm -rf "$OUT/base"
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
fi
sides() { if [ -n "${BASE:-}" ]; then echo "base change"; else echo change; fi; }
dir() { if [ "$1" = base ]; then echo "$OUT/base"; else pwd; fi; }

# --- Census: predicted and observed blocks per query. ---
go test ./internal/core -count=1 -run 'TestDynamicSessionCensus$' -core.dynsession -v | grep 'dynsession' | tee "$OUT/census.txt"

# --- Micro benchmarks and E8. ---
for side in $(sides); do
    (cd "$(dir "$side")" &&
        go test -run '^$' -bench 'BenchmarkIndexQuery/(append|append-buffered|dynamic)$' -benchmem -benchtime 2000x -count 5 . &&
        go test -run '^$' -bench 'BenchmarkDynamicChange$' -benchmem -benchtime 12000x -count 5 .) |
        grep '^Benchmark' | sed "s/^/$side /" | tee -a "$OUT/micro.txt"
    (cd "$(dir "$side")" && go run ./cmd/experiments -quick -only E8) | grep -v 'in [0-9]\|^total:' | sed "s/^/$side /" | tee -a "$OUT/e8.txt"
done
python3 - "$OUT/micro.txt" <<'PY'
import re, statistics, sys
rows = {}
for line in open(sys.argv[1]):
    side, name, rest = line.split(None, 2)
    ns = float(re.search(r'([\d.]+) ns/op', rest).group(1))
    extra = dict((u, float(v)) for v, u in re.findall(r'([\d.]+) ([\w/]+)', rest) if u != 'ns/op')
    rows.setdefault((name, side), []).append((ns, extra))
print('| benchmark | side | ns/op median (min-max) | blockIO/op | B/op | allocs/op |')
print('|---|---|---|---|---|---|')
for (name, side), v in sorted(rows.items()):
    ns = [x[0] for x in v]
    e = v[0][1]
    print(f"| {name} | {side} | {statistics.median(ns):.0f} ({min(ns):.0f}-{max(ns):.0f}) | {e.get('blockIO/op', 0)} | {e.get('B/op', 0):.0f} | {e.get('allocs/op', 0):.0f} |")
PY

# --- Optional: end-to-end pairs against BASE. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    bench() { # side workload seed
        echo "$3 $1 $(bash "$(dir "$1")/benchmark/bench.sh" --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -1)" >>"$OUT/pairs-$2.txt"
    }
    for wl in dynamic-churn point-pread scan-wide serve-overlap; do : >"$OUT/pairs-$wl.txt"; done
    for i in $(seq 1 "$PAIRS"); do
        if ((i % 2)); then two="base change"; else two="change base"; fi
        for side in $two; do bench "$side" dynamic-churn $((SEED0 + i - 1)); done
        if [ "$i" -le "$OTHER_PAIRS" ]; then
            for wl in point-pread scan-wide serve-overlap; do
                for side in $two; do bench "$side" "$wl" $((SEED0 + 20 + i - 1)); done
            done
        fi
    done
    python3 - "$OUT" <<'PY'
import json, statistics, sys
out = sys.argv[1]
def q(v):
    v = sorted(v)
    return statistics.median(v), v[len(v) // 4], v[(3 * len(v)) // 4]
for wl in ('dynamic-churn', 'point-pread', 'scan-wide', 'serve-overlap'):
    runs = {}
    for line in open(f'{out}/pairs-{wl}.txt'):
        seed, side, js = line.split(' ', 2)
        runs.setdefault(side, {})[seed] = json.loads(js)
    if not runs:
        continue
    base, change = runs['base'], runs['change']
    print(f'\n{wl}: {len(base)} pairs; failed base {sum(r["failed"] for r in base.values())} / change {sum(r["failed"] for r in change.values())}; correct {all(r["correct"] for s in runs.values() for r in s.values())}')
    for metric in ('query_per_s', 'query_p50_us', 'setup_s', 'blocks_per_query', 'read_amp', 'bits_per_row'):
        val = lambda side, seed: runs[side][seed]['metrics'][metric]['value']
        b, c = q([val('base', s) for s in base]), q([val('change', s) for s in base])
        higher = metric == 'query_per_s'
        ahead = sum((val('change', s) > val('base', s)) == higher and val('change', s) != val('base', s) for s in base)
        equal = sum(val('change', s) == val('base', s) for s in base)
        print(f'  {metric}: base {b[0]:.6g} (q1-q3 {b[1]:.6g}-{b[2]:.6g}) change {c[0]:.6g} (q1-q3 {c[1]:.6g}-{c[2]:.6g}) ratio {c[0] / b[0]:.3f} [change ahead {ahead}/{len(base)}, equal {equal}]')
PY
fi
echo "raw output: $OUT" >&2
