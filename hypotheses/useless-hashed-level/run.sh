#!/usr/bin/env bash
# Hypothesis useless-hashed-level: a hashed level h_j whose universe 2^(2^j) is
# not smaller than the position universe [n] cannot save a read — its sets are
# a second copy of the exact ones — so dropping it (k = the greatest j with
# 2^(2^j) < n, instead of the least with 2^(2^j) >= n) loses no query a single
# bit and takes about a third off every container.
#
# One dimension varies — the column length n, 2^8 … 2^19 — over three column
# shapes (uniform, zipf 1.0, runs of 20), sigma = min(1024, n/8), hash seed 42.
# Both arms are priced on one index in one process: TestDroppedLevelSavesNothing
# lays down the level maxJ used to keep (the test-only reference builder with
# legacyMaxJ) and reads, from the in-memory directory, the bits the frontier of
# 800 random ranges costs at the dropped level, at the deepest kept level and
# exactly. No timing is involved: every figure is a count and repeats exactly.
#
# Usage: hypotheses/useless-hashed-level/run.sh [outdir]   (default: a fresh temp dir)
#   BASE=<commit> PAIRS=10 SECONDS_PER_RUN=20 additionally runs alternating
#   benchmark pairs of BASE (a `git archive` copy under outdir) against this
#   tree for point-pread, scan-wide and serve-overlap (about 25 s per run).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
PAIRS="${PAIRS:-0}"
SECONDS_PER_RUN="${SECONDS_PER_RUN:-20}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. The rule under test is the one in the source, and what it leaves behind
#    still opens: files written with the dropped level answer like a fresh build.
go test -count=1 -run 'TestMaxJ$|TestOpenApproxStoredLevels|TestApproxNeverReadsUselessLevel' ./internal/core >/dev/null
go test -count=1 -run 'TestReadCompatPR15|TestFormatGoldens' . >/dev/null
# 2. The sweep really lays the dropped level down: an old file's ledger shows it.
go run ./cmd/secidx -inspect testdata/pr15_static.secidx >"$OUT/ledger-old-file.txt"
grep -q 'h_5' "$OUT/ledger-old-file.txt" || { echo "precondition: testdata/pr15_static.secidx stores no level 5" >&2; exit 1; }

# --- The sweep: dropped level, deepest kept level and exact, range by range. ---
go test -count=1 -run 'TestDroppedLevelSavesNothing' -v ./internal/core -args -dropped.sweep >"$OUT/sweep.txt"
echo "Frontier bits by level, 800 random ranges per cell (lengths 1, 2, 8, 64):"
sed -n 's/^ *approx_test.go:[0-9]*: \(n=2.*\)$/  \1/p' "$OUT/sweep.txt"
echo
echo "Space ledger with the dropped level (per materialised depth: exact, then h_1 … h_k+1), bits/row:"
sed -n 's/^ *approx_test.go:[0-9]*: \(ledger .*\)$/  \1/p' "$OUT/sweep.txt"

# --- The same ledger on real files, and the E5 row. ---
for lg in 18 19; do
    go run ./cmd/secidx -n $((1 << lg)) -sigma 1024 -dist zipf -theta 1.0 -write "$OUT/n$lg.secidx"
    go run ./cmd/secidx -inspect "$OUT/n$lg.secidx" >"$OUT/ledger-n$lg.txt"
    echo
    echo "A container written by this tree, n = 2^$lg:"
    sed -n '/^shard 0/,$p' "$OUT/ledger-n$lg.txt"
    rm -f "$OUT/n$lg.secidx"
done
echo
go run ./cmd/experiments -only E5 | sed -n '1,9p'

# --- Optional: end-to-end pairs against a base commit. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    for wl in point-pread scan-wide serve-overlap; do
        : >"$OUT/pairs-$wl.txt"
        for i in $(seq 1 "$PAIRS"); do
            if ((i % 2)); then order="base change"; else order="change base"; fi
            for side in $order; do
                if [ "$side" = base ]; then dir="$OUT/base"; else dir="$PWD"; fi
                echo "$i $side $(bash "$dir/benchmark/bench.sh" --workload "$wl" --seed "${SEED:-42}" --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -1)" >>"$OUT/pairs-$wl.txt"
            done
        done
    done
    python3 - "$OUT" <<'PY'
import json, statistics, sys
out = sys.argv[1]
for wl in ('point-pread', 'scan-wide', 'serve-overlap'):
    runs = {'base': [], 'change': []}
    for line in open(f'{out}/pairs-{wl}.txt'):
        i, side, js = line.split(' ', 2)
        runs[side].append(json.loads(js))
    print(f'\n{wl}: {len(runs["base"])} pairs, failed {sum(r["failed"] for r in runs["base"])} / {sum(r["failed"] for r in runs["change"])}')
    for m in ('bits_per_row', 'blocks_per_query', 'read_amp', 'setup_s', 'query_p50_us', 'query_per_s'):
        b = [r['metrics'][m]['value'] for r in runs['base']]
        c = [r['metrics'][m]['value'] for r in runs['change']]
        lower = m != 'query_per_s'
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        ties = sum(x == y for x, y in zip(b, c))
        q = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
        print(f'  {m:17} base {statistics.median(b):12.4f} (q1-q3 {q[0]:.4f}-{q[2]:.4f})  change {statistics.median(c):12.4f}  '
              f'{100 * (statistics.median(c) / statistics.median(b) - 1):+6.1f} %  change ahead in {wins}/{len(b)}, ties {ties}')
PY
fi
echo "raw output: $OUT" >&2
