#!/usr/bin/env bash
# Hypothesis point-plan: a static handle's point query Query(c, c) has a plan
# that depends only on c, so planning it once per character (Optimal.planPoint)
# and copying the kept plan afterwards changes no answer, block or bit and
# takes planning off every later point query; the concatenation's order vote
# (cbitmap.dominantOrder) in one pass takes the rest of its bookkeeping off.
#
# Counts first (they repeat exactly): the kept plans against PlanQuery's and
# the answers with cold and warm slots, then the one-pass vote against the
# quadratic oracle. Then a CPU profile of the warm point query on a pread
# handle (BenchmarkPointQueryFile/warm) with the cumulative share of the
# planner and of the vote, here and, with BASE=<commit>, in a `git archive`
# copy of BASE.
#
# Usage: hypotheses/point-plan/run.sh [outdir]   (default: a fresh temp dir)
#   BASE=<commit> adds the base's profile;
#   PAIRS=10 (with BASE) adds scripts/ab.sh BASE point-pread PAIRS 20;
#   OTHER_PAIRS=5 (with BASE) adds scan-wide and serve-overlap, the
#   vanishing point (no point queries).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
PAIRS="${PAIRS:-0}"
OTHER_PAIRS="${OTHER_PAIRS:-0}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)" # profile runs in another tree

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. Kept plans are PlanQuery's, cold and warm answers equal, racing fills safe.
go test -count=1 -race -run 'TestPointPlans' ./internal/core >/dev/null
# 2. The one-pass vote picks the quadratic oracle's order, ties included.
go test -count=1 -run 'TestDominantOrderVote|TestBuilderOrders' ./internal/cbitmap >/dev/null
# 3. The planners and the executor agree as before.
go test -count=1 -run 'FuzzPlanRuns|QueryBatch|Fused|Plan|TestPointQueryConcatDifferential' ./internal/core >/dev/null

# --- The warm point query, profiled. ---
profile() { # tree outdir
    (cd "$1" && BENCHTIME=3s scripts/profile.sh 'BenchmarkPointQueryFile$/^warm$' "$2") >/dev/null
    echo "$1:"
    grep 'BenchmarkPointQueryFile' "$2/bench.txt" | sed 's/^/  /'
    go tool pprof -top -cum -nodecount 300 "$2/bench.test" "$2/cpu.pprof" 2>/dev/null >"$2/top.txt"
    for fn in '(*static).Query' '(*Optimal).answer' '(*Optimal).planPoint' '(*Optimal).planInto' \
        '(*Optimal).coverChunks' '(*Tree).descend' '(*Tree).charOf' 'cbitmap.dominantOrder'; do
        share="$(awk -v fn="$fn" 'substr($6, length($6) - length(fn) + 1) == fn { print $5; exit }' "$2/top.txt")"
        printf '  %-24s %s of all samples (cum)\n' "$fn" "${share:-0%}"
    done
}
profile . "$OUT/change"
if [ -n "${BASE:-}" ]; then
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    profile "$OUT/base" "$OUT/base-profile"
fi

# --- Optional: end-to-end pairs against the base. ---
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
