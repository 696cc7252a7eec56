#!/usr/bin/env bash
# Hypothesis validate-once: a point query's ordered concatenation copies each
# member's bits verbatim, but it used to run the validating scan over them
# (cbitmap.Stream.scan) on every query first, only to prove bits that a
# read-only file-backed device serves unchanged every time. Remembering, per
# member of a read-only handle, that its bits validated and where they end
# (core matLevel.memo) lets later queries open the member as a replay view and
# skip the scan: scan's share of a warm point query should go to about 0, and
# point-pread query_per_s should rise by at least 20 %.
#
# Three measurements, one varied dimension each (ED-1):
#   micro    BenchmarkPointQueryFile (memo_test.go) on this tree, and on BASE
#            with that test file copied in: point queries over every key of a
#            point-pread-shaped column (n = 2^19, sigma = 1024, zipf 1) on a
#            pread handle, cold (a fresh handle per pass over the keys), warm
#            (every key answered once) and flipped (a warm handle with every
#            block corrupting, so every session validates). The vanishing
#            points (ED-2): cold and flipped must read BASE's time; only warm
#            may move.
#   profile  a CPU profile of the warm sub-benchmark on both trees: the share
#            of Index.Query spent in Stream.scan, beside the merge, CopyBits
#            and the pread syscall.
#   pairs    BASE=<commit> PAIRS=n: alternating benchmark/bench.sh runs of BASE
#            and this tree on point-pread, OTHER_PAIRS=m on scan-wide and
#            serve-overlap.
# The memo's size per handle (8 bytes per exact member) is read off
# cmd/secidx -inspect for the same column shape.
#
# Usage: hypotheses/validate-once/run.sh [outdir]   (default: a fresh temp dir)
#   about 2 min without BASE (micro and profile on this tree only).
#   BASE=<commit> adds the BASE side of micro and profile (+1 min);
#   PAIRS=10 OTHER_PAIRS=10 SECONDS_PER_RUN=20 SEED0=3001 adds the pairs
#   (20-40 s per run here; pair i uses seed SEED0+i-1 on point-pread,
#   SEED0+20+i-1 on the others).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
PAIRS="${PAIRS:-0}"
OTHER_PAIRS="${OTHER_PAIRS:-0}"
SECONDS_PER_RUN="${SECONDS_PER_RUN:-20}"
SEED0="${SEED0:-3001}"
mkdir -p "$OUT"

# --- Preconditions (ED-3). ---
# The memo fills with true lasts, is replayed, stays off on writable disks and
# in flipped sessions, and changes no answer or count (fuzzed, cold and warm).
go test -count=1 -run 'TestValidationMemo|TestValidatedLast|FuzzQueryBatchPlanner' . ./internal/core ./internal/cbitmap >/dev/null

if [ -n "${BASE:-}" ]; then
    rm -rf "$OUT/base"
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    cp memo_test.go "$OUT/base/"
fi

# --- Memo size per handle. ---
go run ./cmd/secidx -n 524288 -sigma 1024 -dist zipf -theta 1.0 -write "$OUT/point.secidx" >/dev/null
go run ./cmd/secidx -inspect "$OUT/point.secidx" | awk '
    $1 ~ /^[0-9]+$/ && NF >= 3 { members += $2 }
    END { printf "memo: %d exact members, %d bytes per handle\n", members, 8 * members }'

# --- Micro and profile: five alternating rounds, then one profile each. ---
sides="change"
[ -z "${BASE:-}" ] || sides="base change"
dirof() { if [ "$1" = base ]; then echo "$OUT/base"; else echo "$PWD"; fi; }
for side in $sides; do
    (cd "$(dirof "$side")" && go test -c -o "$OUT/bench-$side.test" .)
    : >"$OUT/micro-$side.txt"
done
for i in 1 2 3 4 5; do
    order="$sides"
    ((i % 2)) || order="$(echo "$sides" | awk '{ for (i = NF; i > 0; i--) printf "%s ", $i }')"
    for side in $order; do
        (cd "$(dirof "$side")" && "$OUT/bench-$side.test" -test.run '^$' -test.bench 'BenchmarkPointQueryFile' \
            -test.benchtime 20000x) >>"$OUT/micro-$side.txt"
    done
done
for side in $sides; do
    (cd "$(dirof "$side")" && "$OUT/bench-$side.test" -test.run '^$' -test.bench 'BenchmarkPointQueryFile/warm' \
        -test.benchtime 400000x -test.cpuprofile "$OUT/cpu-$side.prof") >/dev/null
    go tool pprof -top -nodecount 400 "$OUT/bench-$side.test" "$OUT/cpu-$side.prof" 2>/dev/null >"$OUT/top-$side.txt"
done

python3 - "$OUT" <<'PY'
import os, re, statistics, sys
out = sys.argv[1]
sides = [s for s in ('base', 'change') if os.path.exists(f'{out}/micro-{s}.txt')]
print('\nBenchmarkPointQueryFile, ns per point query (median of 5 alternating runs of 20000 queries; failed/op in brackets):')
print('| sub-benchmark | ' + ' | '.join(sides) + ' |')
print('|---|' + '---|' * len(sides))
rows = {}
for s in sides:
    for line in open(f'{out}/micro-{s}.txt'):
        m = re.match(r'BenchmarkPointQueryFile/(\w+)-\d+\s+\d+\s+([\d.]+) ns/op\s+([\d.]+) failed/op', line)
        if m:
            rows.setdefault(m.group(1), {}).setdefault(s, []).append((float(m.group(2)), float(m.group(3))))
for sub in ('cold', 'warm', 'flipped'):
    cells = []
    for s in sides:
        v = rows.get(sub, {}).get(s, [])
        cells.append(f'{statistics.median(x for x, _ in v):.0f} [{v[0][1]:.3f}]' if v else '-')
    print(f'| {sub} | ' + ' | '.join(cells) + ' |')
print('\nCPU profile of the warm sub-benchmark (400000 point queries), cumulative seconds and share of Index.Query:')
print('| function | ' + ' | '.join(sides) + ' |')
print('|---|' + '---|' * len(sides))
keys = ['repro.(*Index).Query', 'cbitmap.mergeStreams', 'cbitmap.(*Stream).scan', 'bitio.(*Writer).CopyBits', 'syscall.pread']
cum = {}
for s in sides:
    for line in open(f'{out}/top-{s}.txt'):
        f = line.split()
        if len(f) == 6 and f[-1].startswith(('repro', 'syscall.')):
            sec = lambda v: float(v[:-2]) / 1000 if v.endswith('ms') else float(v[:-1])
            cum.setdefault(s, {})[f[-1].split('/')[-1]] = sec(f[3])
for k in keys:
    cells = []
    for s in sides:
        c, q = cum.get(s, {}).get(k), cum.get(s, {}).get(keys[0])
        cells.append(f'{c:.2f} s ({100 * c / q:.0f} %)' if c and q else 'below the cut-off')
    print(f'| {k} | ' + ' | '.join(cells) + ' |')
PY

# --- Optional: end-to-end pairs against BASE. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    bench() { # side workload seed
        if [ "$1" = base ]; then dir="$OUT/base"; else dir="$PWD"; fi
        echo "$3 $1 $(bash "$dir/benchmark/bench.sh" --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" 2>/dev/null | tail -1)" >>"$OUT/pairs-$2.txt"
    }
    : >"$OUT/pairs-point-pread.txt"; : >"$OUT/pairs-scan-wide.txt"; : >"$OUT/pairs-serve-overlap.txt"
    for i in $(seq 1 "$PAIRS"); do
        if ((i % 2)); then two="base change"; else two="change base"; fi
        for side in $two; do bench "$side" point-pread $((SEED0 + i - 1)); done
    done
    for i in $(seq 1 "$OTHER_PAIRS"); do
        if ((i % 2)); then two="base change"; else two="change base"; fi
        for wl in scan-wide serve-overlap; do
            for side in $two; do bench "$side" "$wl" $((SEED0 + 20 + i - 1)); done
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
    base, change = runs['base'], runs['change']
    print(f'\n{wl}: {len(base)} pairs; failed base {sum(r["failed"] for r in base.values())} / change {sum(r["failed"] for r in change.values())}; correct {all(r["correct"] for s in runs.values() for r in s.values())}')
    for metric in ['query_per_s', 'query_p50_us', 'setup_s', 'blocks_per_query', 'read_amp', 'bits_per_row']:
        val = lambda side, seed: runs[side][seed]['metrics'][metric]['value']
        b, c = q([val('base', s) for s in base]), q([val('change', s) for s in base])
        higher = metric == 'query_per_s'
        ahead = sum((val('change', s) > val('base', s)) == higher and val('change', s) != val('base', s) for s in base)
        equal = sum(val('change', s) == val('base', s) for s in base)
        print(f'  {metric}: base {b[0]:.6g} (q1-q3 {b[1]:.6g}-{b[2]:.6g}) change {c[0]:.6g} (q1-q3 {c[1]:.6g}-{c[2]:.6g}) ratio {c[0] / b[0]:.3f} [change ahead {ahead}/{len(base)}, equal {equal}]')
    for s in sorted(base):
        print(f'    seed {s}: ' + '  '.join(f'{side} {runs[side][s]["metrics"]["query_per_s"]["value"]:.0f}/s p50 {runs[side][s]["metrics"]["query_p50_us"]["value"]:.2f}us setup {runs[side][s]["metrics"]["setup_s"]["value"]:.3f}s' for side in ('base', 'change')))
PY
fi
echo "raw output: $OUT" >&2
