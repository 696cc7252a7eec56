#!/usr/bin/env bash
# Hypothesis flat-directory: writing the member directory as one gap-coded
# stream in the static metadata, in place of the blocked tree layout's
# fixed-width node records at the head of the image, stores the same lengths
# and orders in fewer bits and moves no answer, bit read or block read.
#
# Counts first (they repeat exactly): per column shape, cmd/secidx -write,
# then -inspect, whose ledger prints the image's parts and, for a file of
# revision 2, the stream's exact lengths, orders and hashed directory, in
# bits per row. With BASE=<commit> the same shapes are written and inspected
# by a `git archive` copy of BASE, whose files carry the tree layout.
# Then the open time (BenchmarkOpenFile in openbench_test.go, a static
# point-pread-shaped and a sharded scan-wide-shaped container) in six
# alternating runs of each side's test binary, when BASE is set.
#
# Usage: hypotheses/flat-directory/run.sh [outdir]   (default: a fresh temp dir)
#   BASE=<commit> adds the base side;
#   PAIRS=10 (with BASE) adds scripts/ab.sh BASE all PAIRS 20.
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
PAIRS="${PAIRS:-0}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. The stream round-trips, corrupt streams fail, and files of every older
#    revision open and answer as their writers pinned.
go test -count=1 -run 'TestDirectoryStream|TestLayoutRecords|TestOpenApprox|TestTheoremConformance' ./internal/core >/dev/null
go test -count=1 -run 'TestReadCompat|TestManifestRevision|TestOpenCorruptDirectory|TestPersistReadDifferentialStatic' . >/dev/null

# --- The ledgers. ---
shapes=(
	"scan-wide|-n 1048576 -sigma 1024 -dist zipf -theta 1.0 -block 32768 -shards 4"
	"point-pread|-n 524288 -sigma 1024 -dist zipf -theta 1.0 -block 32768"
	"uniform-4096|-n 131072 -sigma 4096 -dist uniform -shards 2"
	"uniform-256|-n 131072 -sigma 256 -dist uniform -shards 2"
	"vanishing|-n 1048576 -sigma 16 -dist uniform -block 32768 -shards 1"
)
ledger() { # side bin
	for s in "${shapes[@]}"; do
		name="${s%%|*}"
		# shellcheck disable=SC2086
		"$2" ${s#*|} -write "$OUT/$1-$name.secidx" >/dev/null
		"$2" -inspect "$OUT/$1-$name.secidx" >"$OUT/$1-$name.txt"
		awk -v side="$1" -v name="$name" '
			/^  (tree layout|metadata section|  exact lengths|  orders|  hashed directory) / { sub(/^ +/, ""); part[$0 ~ /^tree/ ? "layout" : $1] += $(NF-3) }
			/^file:/ { file = $2; rows = $5 }
			END { printf "  %-7s %-13s file %7.2f  layout %5.2f  metadata %5.2f  (lengths %5.2f  orders %5.2f  hashed %5.2f) bits/row\n",
				side, name, file, part["layout"] / rows, part["metadata"] / rows, part["exact"] / rows, part["orders"] / rows, part["hashed"] / rows }' "$OUT/$1-$name.txt"
	done
}
go build -o "$OUT/secidx-change" ./cmd/secidx
if [ -n "${BASE:-}" ]; then
	mkdir -p "$OUT/base"
	git archive "$BASE" | tar -x -C "$OUT/base"
	(cd "$OUT/base" && go build -o "$OUT/secidx-base" ./cmd/secidx)
fi
echo "Bits per row by shape, over all rows (the file's figure includes framing):"
[ -n "${BASE:-}" ] && ledger base "$OUT/secidx-base"
ledger change "$OUT/secidx-change"

# --- Open time: alternating runs of BenchmarkOpenFile, the base's test
# binary built with openbench_test.go copied in (its own tests use names this
# tree changed). ---
if [ -n "${BASE:-}" ]; then
	cp openbench_test.go "$OUT/base/"
	(cd "$OUT/base" && go test -c -o "$OUT/open-base.test" .)
	go test -c -o "$OUT/open-change.test" .
	: >"$OUT/open.txt"
	for i in 1 2 3 4 5 6; do
		order="base change"
		[ $((i % 2)) -eq 0 ] && order="change base"
		for side in $order; do
			dir=.
			[ "$side" = base ] && dir="$OUT/base"
			(cd "$dir" && "$OUT/open-$side.test" -test.run '^$' -test.bench 'BenchmarkOpenFile' -test.benchtime 20x -test.timeout 10m) |
				sed -n "s/^BenchmarkOpenFile\/\([a-z]*\)-[0-9]* .* \([0-9.]*\) ns\/op.*/$side \1 \2/p" >>"$OUT/open.txt"
		done
	done
	python3 - "$OUT/open.txt" <<'PY'
import statistics, sys
runs = {}
for line in open(sys.argv[1]):
    side, shape, ns = line.split()
    runs.setdefault((shape, side), []).append(float(ns) / 1e6)
print('OpenFile+Close ms, median of 6 (base, change):')
for shape in ('static', 'sharded'):
    b, c = statistics.median(runs[(shape, 'base')]), statistics.median(runs[(shape, 'change')])
    print(f'  {shape:8} {b:8.2f} {c:8.2f}  {100 * (c / b - 1):+6.1f} %')
PY
	if [ "$PAIRS" -gt 0 ]; then
		scripts/ab.sh "$BASE" all "$PAIRS" 20 | tee "$OUT/pairs.txt"
	fi
fi
echo "raw output: $OUT" >&2
