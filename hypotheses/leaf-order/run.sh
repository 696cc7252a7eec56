#!/usr/bin/env bash
# Hypothesis leaf-order: pruned leaves and hashed sets are the gamma-coded
# two thirds of a point-pread image. Coding each leaf at its best exp-Golomb
# order, and each hashed set at an order derived from its directory entry
# (no field stored; the rule kept adds one bit for a gamma fallback), should
# shrink leaves and hashed sets by about a third, while a one-member answer,
# carrying its member's order, is still a verbatim copy.
#
# One measurement:
#   census   TestLeafOrderCensus (internal/core/leaforder_test.go): per
#            generator, one point-pread-sized index (2^19 rows, sigma 1024):
#            leaf and hashed-set bits per row, gamma-coded and stored, the
#            hashed sets also at the spread order alone and at each set's
#            best order, the exact bits a point query reads, and how many
#            approximate point queries at eps = 1/16 answer from a hashed
#            level. runs-64 and markov-0.99 are the vanishing point (ED-2).
#
# Usage: hypotheses/leaf-order/run.sh [outdir]   (default: a fresh temp dir;
#   about 3 min)
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
mkdir -p "$OUT"

# --- Preconditions: every operation holds at mixed orders; members and hashed
# sets are coded as their oracles code them; old files answer as they did.
go test -count=1 -run 'FuzzMixedOrders|TestBuilderOrders' ./internal/cbitmap >/dev/null
go test -count=1 -run 'TestStreamingBuildBitIdentical|TestBuildApproxDifferential|FuzzHashedSetEncode|TestOpenApproxMemberOrders' ./internal/core >/dev/null
go test -count=1 -run 'TestReadCompat|TestFormatGoldens' . >/dev/null

go test ./internal/core -count=1 -run 'TestLeafOrderCensus$' -core.leaforder -v | grep '^leaforder' >"$OUT/census.txt"

python3 - "$OUT" <<'PY'
import re, sys
out = sys.argv[1]
print('Census: 2^19 rows, sigma = 1024, bits per row; point-query bits read per key:')
print('| generator | leaves, gamma | leaves, stored | leaves at k = 0 | hashed, gamma | hashed, stored | hashed, spread order | hashed, best | point query, gamma | point query, stored | approx point queries hashed |')
print('|---|---|---|---|---|---|---|---|---|---|---|')
for line in open(f'{out}/census.txt'):
    r = dict(re.findall(r'(\w+)=([\w./-]+)', line))
    print(f"| {r['gen']} | {r['leaves_gamma']} | {r['leaves_stored']} | {r['leaves_k0']} | {r['hashed_gamma']} | "
          f"{r['hashed_stored']} | {r['hashed_spread']} | {r['hashed_best']} | {r['point_gamma']} | {r['point_stored']} | {r['approx_hashed']} |")
PY
echo "raw output: $OUT" >&2
