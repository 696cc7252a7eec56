#!/usr/bin/env bash
# Hypothesis gap-order: gamma spends about 2 lg g + 1 bits on a gap g, the
# exp-Golomb code of order k about lg g + 2 at k ≈ lg g - 1. An internal
# member (a set of more than one character) has gaps that cluster around its
# mean, so coding each internal member at the order that prices its own gaps
# least should shrink the payload a wide query reads by about a fifth, while
# pruned leaves stay gamma-coded (answers concatenate them verbatim) and a
# point query, which reads only leaves, reads what it read.
#
# Two measurements:
#   census   TestGapOrderCensus (internal/core/gaporder_test.go): per
#            generator, one scan-wide-sized shard (2^18 rows, sigma 1024):
#            internal and leaf payload bits per row, stored and gamma-coded,
#            internal members left at order 0, and the member bits read per
#            query, stored and gamma-coded, for 400 scan-wide ranges and every
#            point key. runs-64 and markov-0.99 are the vanishing point (ED-2):
#            their gaps are mostly 1, best order 0, nothing may move.
#   A5       cmd/experiments -quick -only A5: gamma, delta and best-order
#            payload of the Theorem 2 members, internal and leaves apart.
#
# Usage: hypotheses/gap-order/run.sh [outdir]   (default: a fresh temp dir;
#   about 30 s)
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
mkdir -p "$OUT"

# --- Preconditions: answers are the canonical gamma bitmaps whatever the
# members' orders; the build picks each order by exact cost; orders survive a
# round trip and old files read as order 0.
go test -count=1 -run 'TestAnswersCanonical|TestReadCompat' . >/dev/null
go test -count=1 -run 'TestStreamingBuildBitIdentical|TestOpenApproxMemberOrders|TestFusedQueryDifferential' ./internal/core >/dev/null
go test -count=1 -run 'TestCostsExact|TestOrderKnownCodes' ./internal/gamma >/dev/null

go test ./internal/core -count=1 -run 'TestGapOrderCensus$' -core.gaporder -v | grep '^gaporder' >"$OUT/census.txt"
go run ./cmd/experiments -quick -only A5 >"$OUT/a5.txt"

python3 - "$OUT" <<'PY'
import re, sys
out = sys.argv[1]
print('Census: one shard of 2^18 rows, sigma = 1024, bits per row and member bits read per query:')
print('| generator | internal, gamma | internal, stored | leaves | internal at k = 0 | wide query, gamma | wide query, stored | saved | point query, gamma | point query, stored |')
print('|---|---|---|---|---|---|---|---|---|---|')
for line in open(f'{out}/census.txt'):
    r = dict(re.findall(r'(\w+)=([\w./-]+)', line))
    print(f"| {r['gen']} | {r['internal_gamma']} | {r['internal_stored']} | {r['leaves']} | {r['internal_k0']} | "
          f"{r['wide_gamma']} | {r['wide_stored']} | {100 * float(r['wide_saved']):.1f} % | {r['point_gamma']} | {r['point_stored']} |")
print()
print(open(f'{out}/a5.txt').read())
PY
echo "raw output: $OUT" >&2
