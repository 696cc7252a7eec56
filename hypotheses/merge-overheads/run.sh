#!/usr/bin/env bash
# Hypothesis merge-overheads: beside the codec, which is at its pure-Go floor
# (hypotheses/kernel-floor), a wide sharded query's merges pay for two things
# no reader uses: skip samples that every shard's answer recorded as it was
# encoded (a shard's answer is read once by the union over the shards, then
# dropped), and an answer buffer allocated about three times (a presize that
# left out the re-encoded head gaps, then Builder.Bitmap's quarter-slack
# copy). Removing either alone makes the wide query faster; the two add up.
#
# Four arms, each a `git archive` of BASE (default aaaef37, the parent of the
# change) under outdir: base; samples (+ samples.patch: no merge records skip
# samples); buffers (+ buffers.patch: the pooled builder keeps its buffer and
# every answer is one exact-size copy); both (+ both patches: the change's
# code on this benchmark, where every merge is a shard's part). Every arm runs this
# checkout's root-package _test.go files, so all four run the same
# benchmark: BenchmarkShardedQuery/wide (scan-wide's shape at 2^18 rows) in
# ROUNDS alternating rounds of one CPU-profiled run per arm, the arm order
# rotating by one each round; then TestWideShardedQueryAllocs' bytes allocated
# per answer byte, per arm.
#
# Usage: hypotheses/merge-overheads/run.sh [outdir]   (default: a fresh temp dir)
#   ROUNDS=4 BENCHTIME=4000x: about 2 minutes. A fixed count keeps the
#   profiles comparable: a run is one warm-up query plus the count, and the
#   index build is ignored in the profile.
#   SCAN=n adds n rounds of traced scan-wide runs per arm (benchmark/bench.sh
#   --seconds 20 --trace 1, seed 3100+round, same rotation), about 15 s a run:
#   CPU seconds and bytes allocated per 1000 queries, GC pause, p99.
set -euo pipefail
cd "$(dirname "$0")/../.."

HERE=hypotheses/merge-overheads
OUT="${1:-$(mktemp -d)}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)" # the arms' test binaries run inside the arms
BASE="${BASE:-aaaef37}"
ROUNDS="${ROUNDS:-4}"
BENCHTIME="${BENCHTIME:-4000x}"
SCAN="${SCAN:-0}"
ARMS="base samples buffers both"

# rotated <r>: the arms, rotated left by r-1.
rotated() {
	local r="$1"
	set -- $ARMS
	for _ in $(seq 2 "$r"); do set -- "${@:2}" "$1"; done
	echo "$@"
}

for arm in $ARMS; do
	rm -rf "${OUT:?}/$arm"
	mkdir -p "$OUT/$arm"
	git archive "$BASE" | tar -x -C "$OUT/$arm"
	case $arm in samples | both) patch -s -p1 -d "$OUT/$arm" <"$HERE/samples.patch" ;; esac
	case $arm in buffers | both) patch -s -p1 -d "$OUT/$arm" <"$HERE/buffers.patch" ;; esac
	# --- Preconditions (ED-3): each arm passes its own cbitmap tests, and its
	# sharded answers equal an unsharded index's and its containers the goldens.
	(cd "$OUT/$arm" && go test -count=1 ./internal/cbitmap >/dev/null)
	rm -f "$OUT/$arm"/*_test.go
	cp ./*_test.go "$OUT/$arm/"
	(cd "$OUT/$arm" && go test -c -o "$OUT/$arm.test" . &&
		"$OUT/$arm.test" -test.run 'TestShardedDifferential|TestFormatGoldens' >/dev/null)
done

# --- The benchmark, alternating, each run CPU-profiled. ---
: >"$OUT/bench.txt"
for r in $(seq 1 "$ROUNDS"); do
	for arm in $(rotated "$r"); do
		(cd "$OUT/$arm" && "$OUT/$arm.test" -test.run '^$' -test.bench 'BenchmarkShardedQuery/wide$' \
			-test.benchmem -test.benchtime "$BENCHTIME" -test.cpuprofile "$OUT/$arm-$r.cpu") |
			sed -n "s/^Benchmark/$arm $r Benchmark/p" >>"$OUT/bench.txt"
		go tool pprof -top -nodecount 1000 -nodefraction 0 -ignore 'shard\.Build|wideSharded' "$OUT/$arm.test" "$OUT/$arm-$r.cpu" 2>/dev/null >"$OUT/$arm-$r.top"
	done
done

# --- Bytes allocated per answer byte. ---
: >"$OUT/ratio.txt"
for arm in $ARMS; do
	(cd "$OUT/$arm" && "$OUT/$arm.test" -test.run 'TestWideShardedQueryAllocs' -test.v || true) |
		sed -n "s/.*allocated \([0-9.]*\) bytes per answer byte.*/$arm \1/p" >>"$OUT/ratio.txt"
done

# --- Optional: traced scan-wide runs. ---
: >"$OUT/scan.txt"
for r in $(seq 1 "$SCAN"); do
	for arm in $(rotated "$r"); do
		echo "$arm $(bash "$OUT/$arm/benchmark/bench.sh" --workload scan-wide --seed $((3100 + r)) \
			--seconds 20 --trace 1 2>/dev/null | tail -1)" >>"$OUT/scan.txt"
	done
done

python3 - "$OUT" $ARMS <<'PY'
import json, re, statistics, sys
out, arms = sys.argv[1], sys.argv[2:]
med = statistics.median
spread = lambda v, s=1: f'{med(v) / s:.4g} ({min(v) / s:.4g}-{max(v) / s:.4g})'
bench, cpu = {a: [] for a in arms}, {a: [] for a in arms}
sec = lambda v, u: float(v) / (1000 if u == 'ms' else 1)
# CPU microseconds per query: flat for the two kernels, cum for the rest.
funcs = (('denseEmitter).word', 0), ('Stream).fillWindow', 0), ('cbitmap.mergeWindows', 1),
         ('runtime.gcBgMarkWorker', 1), ('runtime.mallocgc', 1))
for line in open(f'{out}/bench.txt'):
    f = line.split()
    arm, r, n = f[0], f[1], int(f[3]) + 1  # + the warm-up query
    bench[arm].append({u: float(v) for v, u in zip(f[4::2], f[5::2])})
    row, total = {}, 0.0
    for t in open(f'{out}/{arm}-{r}.top'):
        m = re.search(r'Showing nodes accounting for ([\d.]+)(m?s)', t)
        if m:
            total = sec(*m.groups())
        m = re.match(r'\s*([\d.]+)(m?s)?\s+[\d.]+%\s+\S+\s+([\d.]+)(m?s)?\s+[\d.]+%\s+(\S+)', t)
        for name, c in funcs:
            if m and m.group(5).endswith(name):
                row[name] = sec(*m.group(1 + 2 * c, 2 + 2 * c)) / n * 1e6
    row['total'] = total / n * 1e6
    cpu[arm].append(row)
print('BenchmarkShardedQuery/wide, median of rounds (min-max)')
print('| arm | us/op | B/op | allocs/op | blockIO/op | bytes per answer byte |')
print('|---|---|---|---|---|---|')
ratio = dict(line.split() for line in open(f'{out}/ratio.txt'))
for a in arms:
    col = lambda u, s=1: spread([r[u] for r in bench[a]], s)
    print(f'| {a} | {col("ns/op", 1000)} | {col("B/op")} | {col("allocs/op")} | {col("blockIO/op")} | {ratio.get(a, "-")} |')
print('\nCPU microseconds per query from the same runs (both shards\' goroutines), median (min-max);')
print('flat for the two kernels, cum for the merge, the collector and malloc')
print('| arm | ' + ' | '.join(n for n, _ in funcs) + ' | all |')
print('|---|' + '---|' * (len(funcs) + 1))
for a in arms:
    print(f'| {a} | ' + ' | '.join(spread([r.get(n, 0) for r in cpu[a]]) for n, _ in funcs) + f' | {spread([r["total"] for r in cpu[a]])} |')
scan = {a: [] for a in arms}
for line in open(f'{out}/scan.txt'):
    a, js = line.split(' ', 1)
    m = json.loads(js.strip() or '{}').get('metrics', {})
    if m:
        scan[a].append({k: v['value'] for k, v in m.items()})
keys = ('process.cpu_s_per_kop', 'process.alloc_bytes_per_op', 'process.gc_pause_ms', 'process.query_p99_us')
if any(scan.values()):
    print('\nscan-wide, traced (a traced run reports no query_per_s), median of rounds (min-max)')
    print('| arm | ' + ' | '.join(keys) + ' |')
    print('|---|---|---|---|---|')
    for a in arms:
        if scan[a]:
            print(f'| {a} | ' + ' | '.join(spread([r[k] for r in scan[a]]) for k in keys) + ' |')
PY
echo "raw output: $OUT" >&2
