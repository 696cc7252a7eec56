#!/usr/bin/env bash
# Hypothesis hashed-earn: a hashed set h_j(S) earns its bits only where it is
# shorter than its member's exact set S. Where it is not, storing S alone and
# hashing it at query time, with the set's length kept in the directory so
# that the exact-or-hashed choice prices it as before, changes no answer,
# reads no more bits, and takes the set's bits off the image.
#
# Counts only (they repeat exactly): per column shape, the sets stored and
# dropped at each j with their bits per row, the container's SizeBits per
# row before (the reference that stores every reachable set, revision 2's
# image and directory) and after, and per ε the answers, the hashed ones,
# those whose cover holds a dropped set, and the bits all of them read
# before and after (TestHashedEarnCensus).
#
# Usage: hypotheses/hashed-earn/run.sh [outdir]   (default: a fresh temp dir)
#   BASE=<commit> PAIRS=10 adds scripts/ab.sh BASE point-pread PAIRS 20.
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
PAIRS="${PAIRS:-0}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. The build stores exactly the shorter sets, every answer is the
#    reference's and reads no more bits, and revision 3 refuses a directory
#    that breaks the rule.
go test -count=1 -run 'TestHashedSetsReachable|TestBuildApproxDifferential|TestDirectoryStreamCorrupt|TestOpenApproxStoredLevels' ./internal/core >/dev/null
# 2. Files of every earlier revision still open and answer as they did.
go test -count=1 -run 'TestReadCompat|TestFormatGoldens' . >/dev/null

# --- The census. ---
go test -count=1 -run 'TestHashedEarnCensus$' -v ./internal/core -args -core.earn >"$OUT/census.txt"
sed -n 's/^earn /  /p' "$OUT/census.txt"

# --- Optional: end-to-end pairs against the base. ---
if [ "$PAIRS" -gt 0 ]; then
    [ -n "${BASE:-}" ] || { echo "PAIRS needs BASE=<commit>" >&2; exit 1; }
    scripts/ab.sh "$BASE" point-pread "$PAIRS" 20 | tee "$OUT/pairs-point-pread.txt" || true
fi
echo "raw output: $OUT" >&2
