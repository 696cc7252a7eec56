#!/usr/bin/env bash
# Hypothesis answer-admission: at the budget Serve gives it, an LRU of whole
# answers trades hot ranges for ranges asked once — on serve-overlap's list
# most distinct ranges are asked once, and each one evicts something. Admitting
# an answer only over entries asked for less often (TinyLFU's rule over the
# LRU's eviction order, with halving counts) should keep the hot set, so the
# hit rate rises at every skew and budget, the misses — the server's whole
# CPU — fall, and on traffic that never repeats a full cache stops churning.
#
# Measurements, one varied dimension each (ED-1), all from one harness
# (TestAnswerCacheSweep in serve_cache_sweep_test.go on serve_sweep_test.go's
# closed-loop driver and the benchmark's serve-overlap index shape):
#   replay    every request list one request at a time through the cache the
#             server ships (Simulate over the stored answers) and through a
#             plain LRU: skew 0 / 0.8 / 1.1 × budget 0.5–8 MiB, the
#             all-distinct list (ED-2: nothing to gate) and a hot set that
#             moves halfway through (the devil's advocate: frequency memory
#             could hold the old set). BASE=<commit> adds the admit-on-second-
#             sighting replay, which only the BASE tree's sweep still has.
#   sweep     the same cells served by the real Server to 1 / 2 / 8 / 32
#             closed-loop clients: observed hit rate beside the replay's.
#   distinct  BASE=<commit> ROUNDS=n: the all-distinct list at 32 clients, BASE
#             and this tree alternately: queries/s, evictions, declines.
#   pairs     BASE=<commit> PAIRS=n TRACED=k OTHER_PAIRS=m: alternating
#             benchmark/bench.sh runs of BASE and this tree on serve-overlap,
#             k traced serve-overlap pairs, m pairs of point-pread and scan-wide.
#
# Usage: hypotheses/answer-admission/run.sh [outdir]   (default: a fresh temp dir)
#   SEEDS="42 123 456" CLIENTS="1 2 8 32" REQUESTS=4000
#   THETAS="distinct 0 0.8 1.1 shift" BUDGETS_KIB="0 512 1024 2048 4096 8192"
#   (about 40 min on two cores); BASE=<commit> ROUNDS=2 PAIRS=10 TRACED=3
#   OTHER_PAIRS=5 SEED0=7441 add about 25 min (pair i uses seed SEED0+i-1,
#   traced pairs SEED0+20+i-1, the other workloads SEED0+40+i-1).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
export SWEEP_SEEDS="${SEEDS:-42 123 456}" SWEEP_REQUESTS="${REQUESTS:-4000}"
THETAS="${THETAS:-distinct 0 0.8 1.1 shift}" BUDGETS_KIB="${BUDGETS_KIB:-0 512 1024 2048 4096 8192}"
CLIENTS="${CLIENTS:-1 2 8 32}"
ROUNDS="${ROUNDS:-2}" PAIRS="${PAIRS:-0}" TRACED="${TRACED:-3}" OTHER_PAIRS="${OTHER_PAIRS:-5}" SEED0="${SEED0:-7441}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. The cache under test is the one in the source: its model, the churn and
#    moving-hot-set tests, the budget binding, and the replay not below an LRU.
go test -count=1 -run 'FuzzAnswerCache|TestAnswerCache|TestServerCache' ./internal/serve >/dev/null
go test -count=1 -run 'TestServeAnswerCacheBudget|TestAnswerCacheReplayNotBelowLRU' . >/dev/null
# 2. Two executors need two CPUs.
[ "$(nproc)" -ge 2 ] || { echo "precondition: one CPU; two executors would share it" >&2; exit 1; }
# 3. One binary per tree serves every cell.
go test -c -o "$OUT/root.test" .
sweep() { # binary thetas clients budgets
    SWEEP_THETAS="$2" SWEEP_CLIENTS="$3" SWEEP_BUDGETS_KIB="$4" "$1" -test.run 'TestAnswerCacheSweep$' -test.timeout 3h -serve.sweep
}
sweep "$OUT/root.test" "$THETAS" "$CLIENTS" "$BUDGETS_KIB" | grep '^cache' >"$OUT/cachesweep.txt"

if [ -n "${BASE:-}" ]; then
    rm -rf "$OUT/base"
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    (cd "$OUT/base" && go test -c -o "$OUT/base.test" .)
    # The second-sighting replay rides on the BASE sweep's rows; one client is enough.
    sweep "$OUT/base.test" "0 0.8 1.1" 1 "$BUDGETS_KIB" | grep '^cachesweep' >"$OUT/base-replay.txt"
    : >"$OUT/distinct.txt"
    for i in $(seq 1 "$ROUNDS"); do
        if ((i % 2)); then two="base change"; else two="change base"; fi
        for side in $two; do
            bin="$OUT/root.test"
            [ "$side" = base ] && bin="$OUT/base.test"
            sweep "$bin" distinct 32 "$BUDGETS_KIB" | grep '^cachesweep' | sed "s/^/$side /" >>"$OUT/distinct.txt"
        done
    done
fi

python3 - "$OUT" <<'PY'
import os, statistics, sys
out = sys.argv[1]
def rows(path, prefix):
    for line in open(path):
        f = line.split()
        side = None
        if not f[0].startswith('cache'):
            side, f = f[0], f[1:]
        if f[0] != prefix:
            continue
        kv = dict(x.split('=', 1) for x in f[1:])
        kv['side'] = side
        yield kv
med = lambda rs, k: statistics.median(float(r[k]) for r in rs)
def group(rs, *keys):
    g = {}
    for r in rs:
        g.setdefault(tuple(r[k] for k in keys), []).append(r)
    return g
replay = list(rows(f'{out}/cachesweep.txt', 'cachereplay'))
served = list(rows(f'{out}/cachesweep.txt', 'cachesweep'))
second = group(rows(f'{out}/base-replay.txt', 'cachesweep'), 'theta', 'budget_kib') if os.path.exists(f'{out}/base-replay.txt') else {}
thetas = sorted({r['theta'] for r in replay}, key=lambda t: (t in ('distinct', 'shift'), t))
budgets = sorted({int(r['budget_kib']) for r in replay if r['budget_kib'] != '0'})
rg = group(replay, 'theta', 'budget_kib')

print('Replay, hit rate (byte hit rate), median over seeds, requests after the 5 % warm-up:')
print('| theta | policy | ' + ' | '.join(f'{b} KiB' for b in budgets) + ' |')
print('|---|---|' + '---|' * len(budgets))
for th in thetas:
    cell = lambda b, h, bh: f"{med(rg[(th, str(b))], h):.3f} ({med(rg[(th, str(b))], bh):.3f})"
    print(f'| {th} | LRU | ' + ' | '.join(cell(b, 'lru_hit', 'lru_byte_hit') for b in budgets) + ' |')
    if (th, str(budgets[0])) in second:
        print(f'| {th} | second sighting | ' + ' | '.join(f"{med(second[(th, str(b))], 'second_hit'):.3f} ({med(second[(th, str(b))], 'second_byte_hit'):.3f})" for b in budgets) + ' |')
    print(f'| {th} | gated | ' + ' | '.join(cell(b, 'gated_hit', 'gated_byte_hit') for b in budgets) + ' |')
print('\nSecond half of each list alone (after the move, for shift), hit rate, median over seeds:')
print('| theta | policy | ' + ' | '.join(f'{b} KiB' for b in budgets) + ' |')
print('|---|---|' + '---|' * len(budgets))
for th in thetas:
    for pol in ('lru', 'gated'):
        print(f'| {th} | {pol} | ' + ' | '.join(f"{med(rg[(th, str(b))], pol + '_late'):.3f}" for b in budgets) + ' |')

sg = group(served, 'theta', 'clients', 'budget_kib')
cols = ('qps', 'p50_us', 'cpu_s_per_kop', 'hit', 'gated_hit', 'lru_hit', 'byte_hit', 'gated_byte_hit', 'entries', 'evictions', 'declined', 'blocks_per_req')
worst = {}
for th in thetas:
    some = next(v for k, v in sg.items() if k[0] == th)
    print(f'\ntheta {th}: median over seeds (per-seed qps in brackets); {med(some, "distinct"):.0f} distinct ranges, mean answer {med(some, "mean_answer_bytes") / 1024:.1f} KiB')
    print('| clients | budget KiB | ' + ' | '.join(cols) + ' | max abs(hit - gated_hit) |')
    print('|---|---|' + '---|' * (len(cols) + 1))
    for (t, clients, kib), rs in sorted(sg.items(), key=lambda kv: (int(kv[0][1]), int(kv[0][2]))):
        if t != th:
            continue
        gap = max(abs(float(r['hit']) - float(r['gated_hit'])) for r in rs)
        if kib != '0' and int(clients) <= 8 and th != 'shift':  # shift's clients split the list by phase
            worst[th] = max(worst.get(th, 0), gap)
        qps = ' / '.join(r['qps'] for r in sorted(rs, key=lambda r: int(r['seed'])))
        print(f'| {clients} | {kib} | {med(rs, "qps"):.0f} [{qps}] | ' + ' | '.join(f'{med(rs, c):.3g}' for c in cols[1:]) + f' | {gap:.3f} |')
print('\nlargest |observed - gated replay| per seed cell at 1-8 clients: ' + ', '.join(f'{t} {g:.3f}' for t, g in worst.items()))

if os.path.exists(f'{out}/distinct.txt'):
    dg = group(rows(f'{out}/distinct.txt', 'cachesweep'), 'budget_kib', 'side')
    print('\nAll-distinct list, 32 clients, BASE vs this tree (every column a median over seeds and rounds):')
    print('| budget KiB | base qps | change qps | change / base | base evictions | change evictions | change declined |')
    print('|---|---|---|---|---|---|---|')
    for kib in sorted({k[0] for k in dg}, key=int):
        b, c = dg[(kib, 'base')], dg[(kib, 'change')]
        print(f'| {kib} | {med(b, "qps"):.0f} | {med(c, "qps"):.0f} | {med(c, "qps") / med(b, "qps"):.3f} | {med(b, "evictions"):.0f} | {med(c, "evictions"):.0f} | {med(c, "declined"):.0f} |')
PY

# --- Optional: end-to-end pairs against the base commit. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    bench() { # side workload seed trace
        if [ "$1" = base ]; then dir="$OUT/base"; else dir="$PWD"; fi
        echo "$3 $1 $(bash "$dir/benchmark/bench.sh" --workload "$2" --seed "$3" --seconds 20 --trace "$4" 2>/dev/null | tail -1)" >>"$OUT/pairs-$2-$4.txt"
    }
    rm -f "$OUT"/pairs-*.txt
    for i in $(seq 1 "$PAIRS"); do
        if ((i % 2)); then two="base change"; else two="change base"; fi
        for side in $two; do bench "$side" serve-overlap $((SEED0 + i - 1)) 0; done
        if [ "$i" -le "$TRACED" ]; then
            for side in $two; do bench "$side" serve-overlap $((SEED0 + 20 + i - 1)) 1; done
        fi
        if [ "$i" -le "$OTHER_PAIRS" ]; then
            for wl in point-pread scan-wide; do
                for side in $two; do bench "$side" "$wl" $((SEED0 + 40 + i - 1)) 0; done
            done
        fi
    done
    python3 - "$OUT" <<'PY'
import glob, json, statistics, sys
for path in sorted(glob.glob(f'{sys.argv[1]}/pairs-*.txt')):
    runs = {}
    for line in open(path):
        seed, side, js = line.split(' ', 2)
        runs.setdefault(side, {})[seed] = json.loads(js)
    base, change = runs['base'], runs['change']
    traced = path.endswith('-1.txt')  # a traced run reports the layer metrics
    print(f'\n{path.split("/")[-1]}: {len(base)} pairs; failed {sum(r["failed"] for r in base.values())} / {sum(r["failed"] for r in change.values())}; correct {all(r["correct"] for s in runs.values() for r in s.values())}')
    metrics = (['process.cpu_s_per_kop', 'serve.blocks_per_request', 'iomodel.block_reads', 'process.alloc_bytes_per_op', 'process.query_p99_us']
               if traced else ['query_per_s', 'query_p50_us', 'setup_s', 'blocks_per_query', 'read_amp', 'bits_per_row'])
    for m in metrics:
        b = [base[s]['metrics'][m]['value'] for s in sorted(base)]
        c = [change[s]['metrics'][m]['value'] for s in sorted(base)]
        q = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
        ahead = sum((y > x) if m == 'query_per_s' else (y < x) for x, y in zip(b, c))
        print(f'  {m}: base {statistics.median(b):.6g} (q1-q3 {q[0]:.6g}-{q[2]:.6g}) change {statistics.median(c):.6g} '
              f'{100 * (statistics.median(c) / statistics.median(b) - 1):+.1f} % [change ahead {ahead}/{len(b)}, equal {sum(x == y for x, y in zip(b, c))}]')
        if m in ('query_per_s', 'process.cpu_s_per_kop', 'serve.blocks_per_request'):
            print('    ' + ', '.join(f'{x:.4g} -> {y:.4g}' for x, y in zip(b, c)))
PY
fi
echo "raw output: $OUT" >&2
