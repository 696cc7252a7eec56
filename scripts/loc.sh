#!/usr/bin/env bash
# Print non-test Go lines per package, then the two totals ROADMAP aim 2 is
# judged on: the root package, and the repository excluding benchmark/.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir)
		lines[dir] += $1
		if (dir == ".") root += $1
		if (dir != "./benchmark") repo += $1
	}
	END {
		for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  root package\n", root
		printf "%7d  repository excluding benchmark/\n", repo
	}'
