#!/usr/bin/env bash
# A/B protocol for end-to-end claims: alternating benchmark runs of a base
# commit and of this checkout's working tree, one seed per pair.
#
#   scripts/ab.sh <base-ref> [workload] [pairs] [seconds]
#   scripts/ab.sh --bench <regex> <base-ref> [pairs] [benchtime]
#
#   base-ref  the commit to compare against (anything git rev-parse accepts)
#   workload  a BENCHMARK.json workload (default point-pread), or "all" for
#             each of them in turn
#   pairs     pairs per workload (default 10); pair i runs seed 3100+i on
#             both sides, base first on odd pairs and change first on even
#   seconds   --seconds of each run (default 20)
#
# With --bench a pair is one run of `-test.bench <regex> -test.benchmem
# -test.benchtime <benchtime>` (default 1s) per side of the test binary of
# every package with benchmarks, built once per side, in the same alternating
# order. Both sides compile this checkout's _test.go files, so a benchmark the
# change adds or edits measures the base's code too; a package whose tests do
# not compile against the base runs the base's own there. Every unit a benchmark
# reports (ns/op, B/op, allocs/op, custom metrics) is a metric,
# higher-is-better when it ends in "/s", with a bound of 0.10.
#
# The base tree is a `git archive` of base-ref in a temporary directory
# outside the checkout, removed on exit; each side builds benchmark/ from its
# own source (benchmark/bench.sh). Per workload the script prints both sides'
# container_bytes (the distinct values their runs reported); for every
# end-to-end metric, both sides' medians and q1-q3, the number of pairs the
# change won (by the metric's "better" direction in BENCHMARK.json) and a
# verdict; then every pair's query_per_s and query_p50_us, with each side's
# counted metrics (blocks_per_query, read_amp, bits_per_row) in brackets.
# The verdict, with the metric's BENCHMARK.json bound taken relative to the
# base's median:
#   regression     the change's median is worse than the base's by more than
#                  the bound;
#   gain           the change won at least 9/10 of the pairs and its median is
#                  better by more than the base's q1-q3 spread;
#   unresolved     the base's q1-q3 spread is wider than the bound and not
#                  every change run beats every base run;
#   no regression  otherwise.
# It exits 1 on a regression, when a counted metric (blocks_per_query,
# read_amp, bits_per_row) differs between the two runs of any pair, when the
# change fails more operations than the base or when a run answers wrongly,
# and 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH=""
if [ "${1:-}" = --bench ]; then
	[ $# -ge 3 ] && [ $# -le 5 ] || { sed -n '5,6p' "$0" >&2; exit 2; }
	BENCH="$2"
	shift 2
fi
if [ $# -lt 1 ] || [ $# -gt 4 ]; then
	sed -n '5,13p' "$0" >&2
	exit 2
fi
BASE="$1"
WORKLOAD="${2:-point-pread}"
PAIRS="${3:-10}"
SECS="${4:-20}"
if [ -n "$BENCH" ]; then
	WORKLOAD=bench PAIRS="${2:-10}" SECS="${3:-1s}"
fi
git rev-parse --verify --quiet "$BASE^{commit}" >/dev/null || { echo "ab.sh: unknown ref $BASE" >&2; exit 2; }
if [ "$WORKLOAD" = all ]; then
	WORKLOADS="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
else
	WORKLOADS="$WORKLOAD"
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base"
git archive "$BASE" | tar -x -C "$TMP/base"
if [ -n "$BENCH" ]; then
	find "$TMP/base" -name '*_test.go' -delete
	git ls-files -z -co --exclude-standard -- '*_test.go' | tar --null -T - -cf - | tar -x -C "$TMP/base"
	PKGS="$(git ls-files -co --exclude-standard -- '*_test.go' | xargs grep -l '^func Benchmark' | xargs -n1 dirname | sort -u)"
	for side in base change; do
		if [ "$side" = base ]; then dir="$TMP/base"; else dir="$PWD"; fi
		for p in $PKGS; do
			out="$TMP/$side-${p//\//_}.test"
			[ "$side" = base ] || { (cd "$dir/$p" && go test -c -o "$out" .); continue; }
			(cd "$dir/$p" && go test -c -o "$out" . 2>/dev/null) && continue
			echo "ab.sh: $p: this checkout's tests do not compile against the base; the base runs its own" >&2
			find "$dir/$p" -maxdepth 1 -name '*_test.go' -delete
			if [ "$p" = . ]; then spec=':(glob)*_test.go'; else spec=":(glob)$p/*_test.go"; fi
			git archive "$BASE" -- "$spec" | tar -x -C "$dir"
			(cd "$dir/$p" && go test -c -o "$out" .)
		done
	done
fi

status=0
for wl in $WORKLOADS; do
	: >"$TMP/runs-$wl.txt"
	for i in $(seq 1 "$PAIRS"); do
		seed=$((3100 + i))
		if ((i % 2)); then order="base change"; else order="change base"; fi
		for side in $order; do
			if [ "$side" = base ]; then dir="$TMP/base"; else dir="$PWD"; fi
			if [ -n "$BENCH" ]; then
				for p in $PKGS; do
					(cd "$dir/$p" && "$TMP/$side-${p//\//_}.test" -test.run '^$' -test.bench "$BENCH" -test.benchmem \
						-test.benchtime "$SECS" -test.timeout 30m) 2>&1 | sed -n "s/^/$((3100 + i)) $side /p" >>"$TMP/runs-$wl.txt"
				done
				echo "bench pair $i/$PAIRS: $side done" >&2
				continue
			fi
			out="$(bash "$dir/benchmark/bench.sh" --workload "$wl" --seed "$seed" --seconds "$SECS" --trace 0 2>/dev/null)" || true
			line="$(tail -1 <<<"$out")"
			[[ "$line" == "{"* ]] || line='{}'
			bytes="$(awk '$1 == "container_bytes" { print $2 }' <<<"$out")"
			echo "$seed $side ${bytes:--} $line" >>"$TMP/runs-$wl.txt"
			echo "$wl pair $i/$PAIRS seed $seed: $side done" >&2
		done
	done
	python3 - "$wl" "$TMP/runs-$wl.txt" <<'PY' || status=1
import json, re, statistics, sys

wl, path = sys.argv[1], sys.argv[2]
e2e = json.load(open('BENCHMARK.json'))['end_to_end']
better = {m['name']: m['better'] for m in e2e}
bound = {m['name']: m['bound'] for m in e2e}
counted = ('blocks_per_query', 'read_amp', 'bits_per_row')
runs = {'base': {}, 'change': {}}
container = {'base': set(), 'change': set()}
pkg = {}
for line in open(path):
    seed, side, js = line.rstrip('\n').split(' ', 2)
    if wl != 'bench':
        size, js = js.split(' ', 1)
        container[side].add(size)
        runs[side][seed] = json.loads(js)
        continue
    # go test -bench output: "pkg: <path>" heads each package's lines.
    f = js.split() or ['']
    if f[0] == 'pkg:':
        pkg[side] = f[1].split('/')[-1]
    elif f[0].startswith('Benchmark') and len(f) > 3:
        got = runs[side].setdefault(seed, {'correct': True, 'metrics': {}})['metrics']
        for v, unit in zip(f[2::2], f[3::2]):
            m = f'{pkg[side]}.{re.sub(r"-[0-9]+$", "", f[0])} {unit}'
            got[m] = {'value': float(v)}
            better[m], bound[m] = ('higher' if unit.endswith('/s') else 'lower'), 0.10
seeds = sorted(runs['base'])
bad = [] if seeds else ['no run of the base (with --bench: do the tests compile against it?)']
bad += [f'{side} seed {s} did not answer correctly' for side in runs for s in seeds
       if not runs[side].get(s, {}).get('correct')]

def quart(v):
    v = sorted(v)
    return statistics.median(v), v[len(v) // 4], v[(3 * len(v)) // 4]

def val(side, seed, metric):
    return runs[side][seed].get('metrics', {}).get(metric, {}).get('value')

fb = sum(runs['base'][s].get('failed', 0) for s in seeds)
fc = sum(runs['change'].get(s, {}).get('failed', 0) for s in seeds)
print(f'\n{wl}: {len(seeds)} pairs; failed operations base {fb}, change {fc}')
if wl != 'bench':
    print('  container_bytes   ' + '  '.join(f'{side} {" ".join(sorted(container[side]))}' for side in container))
if fc > fb:
    bad.append(f'the change failed {fc} operations, the base {fb}')
for metric, way in better.items():
    ok = [s for s in seeds if val('base', s, metric) is not None and val('change', s, metric) is not None]
    if not ok:
        continue
    bv, cv = [val('base', s, metric) for s in ok], [val('change', s, metric) for s in ok]
    b, c = quart(bv), quart(cv)
    sign = 1 if way == 'lower' else -1  # sign * (x - y) > 0: x is worse than y
    won = sum(sign * (val('base', s, metric) - val('change', s, metric)) > 0 for s in ok)
    # The simplicity-review verdict, bounds relative to the base's median.
    if sign * (c[0] - b[0]) > bound[metric] * abs(b[0]):
        verdict = 'regression'
        bad.append(f'{metric} regressed by more than its bound {bound[metric]}')
    elif won >= 0.9 * len(ok) and sign * (b[0] - c[0]) > b[2] - b[1]:
        verdict = 'gain'
    elif b[2] - b[1] > bound[metric] * abs(b[0]) and not (
            max(cv) < min(bv) if way == 'lower' else min(cv) > max(bv)):
        verdict = 'unresolved'
    else:
        verdict = 'no regression'
    print(f'  {metric:17s} base {b[0]:.6g} (q1-q3 {b[1]:.6g}-{b[2]:.6g})  '
          f'change {c[0]:.6g} (q1-q3 {c[1]:.6g}-{c[2]:.6g})  change won {won}/{len(ok)}  {verdict}')
    if metric in counted:
        bad += [f'{metric} differs on seed {s}' for s in ok if val('base', s, metric) != val('change', s, metric)]
for s in seeds if wl != 'bench' else []:
    print(f'    seed {s}: ' + '   '.join(
        f'{side} {val(side, s, "query_per_s") or 0:.0f}/s p50 {val(side, s, "query_p50_us") or 0:.2f} us '
        + '[' + ' '.join(f'{val(side, s, m) or 0:.6g}' for m in counted) + ']'
        for side in ('base', 'change')))
for msg in bad:
    print(f'  FAIL: {msg}')
sys.exit(1 if bad else 0)
PY
done
exit "$status"
