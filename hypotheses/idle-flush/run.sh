#!/usr/bin/env bash
# Hypothesis idle-flush: a batch that waits on a timer while an executor is
# free buys nothing the executor could not have bought by starting now, so
# work-conserving batch forming (a free executor takes the forming batch at
# once; busy ones let it grow) beats timer-only forming on throughput and
# latency at every client count, and beats no batching wherever the executors
# are busy enough for a batch to grow — batch size follows load by itself.
#
# Three policies — timer-only (the tree at BASE), work-conserving (this tree),
# no batching (MaxBatch 1, either tree) — on the benchmark's serve-overlap
# index shape, one dimension varied per table: closed-loop clients 1/2/8/32,
# seeds 42/123/456 (TestServeSweep in serve_sweep_test.go; the same test file
# is copied into the BASE tree, so both arms run one harness). The
# devil's-advocate arm reruns everything with CacheBlocks 0: smaller batches
# forfeit sharing, and without a block cache every forfeited share is a pread.
# Then ROADMAP's serve item (c): serve.ServiceModel fitted by least squares to
# the real run's batches, and Simulate's error against the real run at 8
# clients (TestServeSimFit in serve_simfit_test.go).
#
# Usage: hypotheses/idle-flush/run.sh [outdir]   (default: a fresh temp dir)
#   BASE=<commit> adds the timer-only arm (a `git archive` copy under outdir);
#   SEEDS="42 123 456" CLIENTS="1 2 8 32" REQUESTS=4000 override the defaults;
#   PAIRS=10 additionally runs alternating benchmark pairs of BASE against
#   this tree on serve-overlap (about 25 s per run).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
export SWEEP_SEEDS="${SEEDS:-42 123 456}" SWEEP_CLIENTS="${CLIENTS:-1 2 8 32}" SWEEP_REQUESTS="${REQUESTS:-4000}"
PAIRS="${PAIRS:-0}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. The policy under test is the one in the source: batch of one on idle,
#    growth behind a busy executor, the same cut under both clocks.
go test -count=1 -run 'TestIdleVanishingPoint|TestBatchGrowsBehindBusyExecutor|TestServerDropsCancelledMembers' ./internal/serve >/dev/null
# 2. Two executors need two CPUs.
[ "$(nproc)" -ge 2 ] || { echo "precondition: one CPU; two executors would share it" >&2; exit 1; }
# 3. One binary per tree serves every seed, client count and cache size.
go test -c -o "$OUT/root.test" .
if [ -n "${BASE:-}" ]; then
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    cp serve_sweep_test.go "$OUT/base/"
    (cd "$OUT/base" && go test -c -o "$OUT/root.base.test" .)
    SWEEP_LABEL=timer "$OUT/root.base.test" -test.run 'TestServeSweep$' -test.timeout 1h -serve.sweep | grep '^sweep' >"$OUT/sweep-base.txt"
fi
SWEEP_LABEL=conserving "$OUT/root.test" -test.run 'TestServeSweep$' -test.timeout 1h -serve.sweep | grep '^sweep' >"$OUT/sweep-change.txt"
"$OUT/root.test" -test.run 'TestServeSimFit$' -test.timeout 1h -serve.sweep | grep '^simfit' >"$OUT/simfit.txt"

python3 - "$OUT" <<'PY'
import glob, statistics, sys
out = sys.argv[1]
cells = {}
for path in sorted(glob.glob(f'{out}/sweep-*.txt')):
    for line in open(path):
        kv = dict(f.split('=', 1) for f in line.split()[1:])
        cells.setdefault((int(kv['cache']), kv['policy'], int(kv['clients'])), []).append(kv)
cols = ('qps', 'p50_us', 'p99_us', 'mean_us', 'little_clients', 'batch', 'idle_frac', 'wait_frac',
        'cpu_s_per_kop', 'cores_qps', 'shared_saved_frac', 'blocks_per_req')
for cache in sorted({k[0] for k in cells}, reverse=True):
    print(f'\nCacheBlocks {cache} per shard — median over seeds (per-seed qps in brackets)')
    print('| policy | clients | ' + ' | '.join(cols) + ' |')
    print('|---|---|' + '---|' * len(cols))
    for (c, policy, clients), rows in sorted(cells.items(), key=lambda kv: (kv[0][2], kv[0][1])):
        if c != cache:
            continue
        med = [statistics.median(float(r[m]) for r in rows) for m in cols]
        per_seed = ' / '.join(r['qps'] for r in sorted(rows, key=lambda r: int(r['seed'])))
        print(f'| {policy} | {clients} | {med[0]:.0f} [{per_seed}] | ' + ' | '.join(f'{v:.3g}' for v in med[1:]) + ' |')
print('\nServiceModel fit and DES-vs-real at 8 clients (per seed):')
for line in open(f'{out}/simfit.txt'):
    print('  ' + line.rstrip())
PY

# --- Optional: end-to-end pairs against the base commit. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    : >"$OUT/pairs.txt"
    for i in $(seq 1 "$PAIRS"); do
        if ((i % 2)); then order="base change"; else order="change base"; fi
        for side in $order; do
            if [ "$side" = base ]; then dir="$OUT/base"; else dir="$PWD"; fi
            echo "$i $side $(bash "$dir/benchmark/bench.sh" --workload serve-overlap --seed "$((100 + i))" --seconds 10 --trace 0 2>/dev/null | tail -1)" >>"$OUT/pairs.txt"
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
