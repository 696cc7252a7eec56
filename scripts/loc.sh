#!/usr/bin/env bash
# Print non-test Go lines per package, then the two totals ROADMAP aim 2 is
# judged on: the root package, and the repository excluding benchmark/.
# Then count the public options, aim 2's other measure: the exported fields of
# the public option structs (an embedded struct is not counted again) and the
# SyncPolicy values, as `go doc -all .` lists them.
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

go doc -all . |
	awk -v structs='Options ShardOptions OpenOptions WALOptions QueryOptions ServerConfig' '
	BEGIN { n = split(structs, order, " "); for (i = 1; i <= n; i++) want[order[i]] = 1 }
	/^type [A-Za-z]+ struct \{$/ { cur = want[$2] ? $2 : ""; next }
	/^type SyncPolicy / { policy = 1; next }
	policy && /^const \($/ { inconst = 1; next }
	inconst && /^\)/ { inconst = policy = 0; next }
	inconst && /^\t[A-Z][A-Za-z0-9_]*( |$)/ { consts++; next }
	/^\}/ { cur = ""; next }
	cur != "" && /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)* +[^ \/]/ {
		line = $0; sub(/^\t/, "", line); sub(/ +[^,]*$/, "", line)
		fields[cur] += split(line, names, ", ")
	}
	END {
		for (i = 1; i <= n; i++) { printf "%7d  %s fields\n", fields[order[i]], order[i]; total += fields[order[i]] }
		printf "%7d  SyncPolicy values\n", consts
		printf "%7d  public options\n", total + consts
	}'
