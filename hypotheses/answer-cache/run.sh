#!/usr/bin/env bash
# Hypothesis answer-cache: serve-overlap's traffic repeats itself (zipf 1.1
# over 1009 range starts), the hot answers are also the big ones, and a Server
# fronts an immutable handle — so a byte-budgeted LRU of whole answers in
# front of admission, given no more memory than the block cache already has,
# removes most of the decode-merge the executors do and turns the median
# request into a lookup.
#
# One harness (TestAnswerCacheSweep in serve_cache_sweep_test.go, on
# serve_sweep_test.go's closed-loop driver and the benchmark's serve-overlap
# index shape), one dimension varied per table: the budget 0 / 0.5 / 1 / 2 /
# 4 / 8 MiB, closed-loop clients 1 / 2 / 8 / 32, the zipf exponent of the
# range starts 0 / 0.8 / 1.1, seeds 42 / 123 / 456. Beside every observed hit
# rate: the one an LRU replay of the same request list, one request at a
# time, predicts from the answers' measured sizes. ED-2 vanishing point: a
# request list with no range twice must hit nothing and cost nothing.
# Devil's-advocate arm: the replay of "admit on the second sighting only".
#
# The cache has since become frequency-gated (hypotheses/answer-admission):
# on this tree the LRU replay prints as lru_hit, the shipped cache's replay
# as gated_hit, and the second-sighting arm is gone. FINDINGS.md's tables
# come from the tree before that change (git log names it).
#
# Usage: hypotheses/answer-cache/run.sh [outdir]   (default: a fresh temp dir)
#   SEEDS="42 123 456" CLIENTS="1 2 8 32" REQUESTS=4000 THETAS="distinct 0 0.8 1.1"
#   BUDGETS_KIB="0 512 1024 2048 4096 8192" override the defaults (~15 min);
#   BASE=<commit> PAIRS=10 additionally runs alternating benchmark pairs of
#   BASE against this tree on serve-overlap (about 50 s per pair).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
export SWEEP_SEEDS="${SEEDS:-42 123 456}" SWEEP_CLIENTS="${CLIENTS:-1 2 8 32}" SWEEP_REQUESTS="${REQUESTS:-4000}"
export SWEEP_THETAS="${THETAS:-distinct 0 0.8 1.1}" SWEEP_BUDGETS_KIB="${BUDGETS_KIB:-0 512 1024 2048 4096 8192}"
PAIRS="${PAIRS:-0}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. The cache under test is the one in the source: a budgeted cache that never
#    holds a degraded, failed or cancelled answer, in front of admission.
go test -count=1 -run 'FuzzAnswerCache|TestServerCache' ./internal/serve >/dev/null
go test -count=1 -run 'TestServeAnswerCacheBudget|TestServeCacheHitWithEveryBreakerOpen' . >/dev/null
# 2. Two executors need two CPUs.
[ "$(nproc)" -ge 2 ] || { echo "precondition: one CPU; two executors would share it" >&2; exit 1; }
# 3. One binary serves every cell.
go test -c -o "$OUT/root.test" .
"$OUT/root.test" -test.run 'TestAnswerCacheSweep$' -test.timeout 2h -serve.sweep | grep '^cachesweep' >"$OUT/cachesweep.txt"

python3 - "$OUT" <<'PY'
import statistics, sys
out = sys.argv[1]
cells = {}
for line in open(f'{out}/cachesweep.txt'):
    kv = dict(f.split('=', 1) for f in line.split()[1:])
    cells.setdefault((kv['theta'], int(kv['clients']), int(kv['budget_kib'])), []).append(kv)
cols = ('qps', 'p50_us', 'p99_us', 'cpu_s_per_kop', 'hit', 'lru_hit', 'byte_hit', 'lru_byte_hit',
        'gated_hit', 'gated_byte_hit', 'blocks_per_req', 'miss_wait_p50_us', 'entries')
thetas = sorted({k[0] for k in cells}, key=lambda t: (t != 'distinct', t))
for theta in thetas:
    some = next(v for k, v in cells.items() if k[0] == theta)
    print(f'\ntheta {theta} — median over seeds (per-seed qps in brackets); '
          f'{statistics.median(float(r["distinct"]) for r in some):.0f} distinct ranges, '
          f'mean answer {statistics.median(float(r["mean_answer_bytes"]) for r in some) / 1024:.1f} KiB')
    print('| clients | budget KiB | ' + ' | '.join(cols) + ' | qps vs off |')
    print('|---|---|' + '---|' * (len(cols) + 1))
    for (th, clients, kib), rows in sorted(cells.items(), key=lambda kv: kv[0][1:]):
        if th != theta:
            continue
        med = [statistics.median(float(r[m]) for r in rows) for m in cols]
        per_seed = ' / '.join(r['qps'] for r in sorted(rows, key=lambda r: int(r['seed'])))
        off = statistics.median(float(r['qps']) for r in cells[(th, clients, 0)]) if (th, clients, 0) in cells else float('nan')
        print(f'| {clients} | {kib} | {med[0]:.0f} [{per_seed}] | ' + ' | '.join(f'{v:.3g}' for v in med[1:]) + f' | {med[0] / off:.2f}x |')
PY

# --- Optional: end-to-end pairs against the base commit. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    : >"$OUT/pairs.txt"
    for i in $(seq 1 "$PAIRS"); do
        if ((i % 2)); then order="base change"; else order="change base"; fi
        for side in $order; do
            if [ "$side" = base ]; then dir="$OUT/base"; else dir="$PWD"; fi
            echo "$i $side $(bash "$dir/benchmark/bench.sh" --workload serve-overlap --seed "$((200 + i))" --seconds 20 --trace 0 2>/dev/null | tail -1)" >>"$OUT/pairs.txt"
        done
    done
    python3 - "$OUT" <<'PY'
import json, statistics, sys
runs = {'base': [], 'change': []}
for line in open(f'{sys.argv[1]}/pairs.txt'):
    i, side, js = line.split(' ', 2)
    runs[side].append(json.loads(js))
print(f'\nserve-overlap: {len(runs["base"])} pairs, failed {sum(r["failed"] for r in runs["base"])} / {sum(r["failed"] for r in runs["change"])}')
for m in ('query_per_s', 'query_p50_us', 'setup_s', 'blocks_per_query', 'read_amp', 'bits_per_row'):
    b = [r['metrics'][m]['value'] for r in runs['base']]
    c = [r['metrics'][m]['value'] for r in runs['change']]
    wins = sum((y > x) if m == 'query_per_s' else (y < x) for x, y in zip(b, c))
    q = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
    print(f'  {m:17} base {statistics.median(b):10.3f} (q1-q3 {q[0]:.3f}-{q[2]:.3f})  change {statistics.median(c):10.3f}  '
          f'{100 * (statistics.median(c) / statistics.median(b) - 1):+6.1f} %  change ahead in {wins}/{len(b)}')
PY
fi
echo "raw output: $OUT" >&2
