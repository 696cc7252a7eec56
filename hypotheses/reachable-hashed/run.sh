#!/usr/bin/env bash
# Hypothesis reachable-hashed: a query selects the hashed level j only when
# 2^(2^j) > z/ε, and a range whose cover holds member S counts z >= minz(S),
# every row of S's characters; so no query reads h_j(S) when
# 2^(2^j) <= minz(S). Storing only the other sets changes no answer and no
# bit read, and takes the unreachable sets' bits and their directory varints
# off the container and their hashing off the build.
#
# Counts first (they repeat exactly): per column shape, the sets kept and
# omitted at each j, and what the omitted ones cost when stored, image and
# directory, per row (TestReachableCensus, against the reference builder that
# stores every set). Then BuildApprox's wall clock per shape
# (BenchmarkBuildShapes, -count 5), here and, with BASE=<commit>, in a
# `git archive` copy of BASE into which buildshapes_test.go is copied.
#
# Usage: hypotheses/reachable-hashed/run.sh [outdir]   (default: a fresh temp dir)
#   BASE=<commit> adds the base side of the build timing;
#   PAIRS=10 (with BASE) adds scripts/ab.sh BASE point-pread PAIRS 20.
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
PAIRS="${PAIRS:-0}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. The rule is the one the build and the reader follow, and answers and bits
#    read equal the reference's that stores every set.
go test -count=1 -run 'TestHashedSetsReachable|TestHashedDirectoryFollowsRule|TestApproxNeverReadsUselessLevel|TestApproxFalsePositiveRate' ./internal/core >/dev/null
# 2. Files written before, which list every set, still open and answer.
go test -count=1 -run 'TestReadCompat|TestManifestRevision|TestFormatGoldens' . >/dev/null

# --- The census. ---
go test -count=1 -run 'TestReachableCensus$' -v ./internal/core -args -core.reachable >"$OUT/census.txt"
echo "Sets kept/omitted at each j (h_j=kept/omitted:omitted bits per row), and the omitted bits per row, image and directory:"
sed -n 's/^reachable /  /p' "$OUT/census.txt"

# --- Build wall clock per shape. ---
bench() { (cd "$1" && go test -count=5 -run '^$' -bench 'BenchmarkBuildShapes' ./internal/core); }
bench . >"$OUT/build-change.txt"
if [ -n "${BASE:-}" ]; then
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    cp internal/core/buildshapes_test.go "$OUT/base/internal/core/"
    bench "$OUT/base" >"$OUT/build-base.txt"
fi
python3 - "$OUT" <<'PY'
import os, re, statistics, sys
out = sys.argv[1]
def medians(path):
    runs = {}
    for line in open(path):
        m = re.match(r'BenchmarkBuildShapes/(\S+?)(-\d+)?\s.*?([\d.]+) ms/build', line)
        if m:
            runs.setdefault(m.group(1), []).append(float(m.group(3)))
    return {k: statistics.median(v) for k, v in runs.items()}
change = medians(f'{out}/build-change.txt')
base = medians(f'{out}/build-base.txt') if os.path.exists(f'{out}/build-base.txt') else {}
print('\nBuildApprox ms, median of 5 (base, change):')
for shape, c in change.items():
    b = base.get(shape)
    print(f'  {shape:11} ' + (f'{b:8.1f} {c:8.1f}  {100 * (c / b - 1):+6.1f} %' if b else f'       - {c:8.1f}'))
PY

# --- Optional: end-to-end pairs against the base. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    scripts/ab.sh "$BASE" point-pread "$PAIRS" 20 | tee "$OUT/pairs-point-pread.txt"
fi
echo "raw output: $OUT" >&2
