#!/usr/bin/env bash
# Hypothesis parallel-build: the materialised levels of the Theorem 2/3
# structure are independent, so building them side by side from one scatter
# each — instead of one after another through a k-way heap merge — cuts a
# build's wall time by the encoders' share of it on a second core, bytes
# unchanged; what is left serial (tree, placement) bounds the gain as Amdahl
# says, unless something the cores share (memory bandwidth) bounds it first.
#
# Sweep 1 varies one dimension per table — GOMAXPROCS ∈ {1, 2} at each
# n = 2^16 … 2^20, σ = 1024 zipf(1.1) — on one binary
# (BenchmarkBuildApproxPaths/sortfree = core.BuildApprox).
# Sweep 2 is the Amdahl split. At this tree, timers around the phases run
# apart on one goroutine (BenchmarkBuildPhases: tree, scatter, encode, rest,
# and the slowest level's share of the level time). With BASE=<commit>, both
# trees are also split the same way — CPU profile of a one-core
# BenchmarkBuild/public/n=524288, samples classed by function — and the
# benchmark's traced point-pread set-up gives build, write and open of each.
# Sweep 3 is the devil's-advocate arm: two whole one-worker builds side by
# side (BenchmarkBuildIndependent), which serialise nothing against each
# other; if they cost more per build than one alone, the cores do not scale
# on this work and placement is not what caps the gain.
#
# Usage: hypotheses/parallel-build/run.sh [outdir]   (default: a fresh temp dir)
#   COUNT=3 BUILDTIME=1s SEEDS="42 123 456" override the defaults;
#   BASE=<commit> adds the before side (a `git archive` copy under outdir).
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${1:-$(mktemp -d)}"
COUNT="${COUNT:-3}"
BUILDTIME="${BUILDTIME:-1s}"
SEEDS="${SEEDS:-42 123 456}"
mkdir -p "$OUT"

# --- Preconditions (ED-3): checked here, not assumed. ---
# 1. The worker count cannot change a byte, a failed level task surfaces as
#    the sequential build's error, and the bulk encoder is Add.
go test -count=1 -run 'TestBuildParallelDeterministic|TestBuildLevelFailure|TestBuildApproxDifferential' -short ./internal/core >/dev/null
go test -count=1 -run 'TestAddSortedMatchesAdd' ./internal/cbitmap >/dev/null
go test -count=1 -run 'TestBuildParallelDeterministic|TestFormatGoldens' . >/dev/null
# 2. There is a second core to run on.
[ "$(nproc)" -ge 2 ] || { echo "precondition: one CPU; GOMAXPROCS=2 would measure nothing" >&2; exit 1; }
# 3. One binary serves every seed, arm and worker count of a tree.
go test -c -o "$OUT/core.test" ./internal/core
go test -c -o "$OUT/root.test" .
if [ -n "${BASE:-}" ]; then
    mkdir -p "$OUT/base"
    git archive "$BASE" | tar -x -C "$OUT/base"
    (cd "$OUT/base" && go test -c -o "$OUT/core.base.test" ./internal/core && go test -c -o "$OUT/root.base.test" .)
fi

sides="change"
[ -n "${BASE:-}" ] && sides="base change"
for side in $sides; do
    suffix=""; [ "$side" = base ] && suffix=".base"
    for seed in $SEEDS; do
        echo "== $side, seed $seed" >&2
        "$OUT/core$suffix.test" -test.run '^$' -test.bench 'BenchmarkBuildApproxPaths/n=2\^(16|17|18|19|20)/sortfree' -test.benchmem \
            -test.cpu 1,2 -test.benchtime "$BUILDTIME" -test.count "$COUNT" -test.timeout 2h -hashed.seed "$seed" >"$OUT/sweep-$side-$seed.txt"
    done
    # The one-core profile behind the function-class split.
    "$OUT/root$suffix.test" -test.run '^$' -test.bench 'BenchmarkBuild$/public/n=524288' -test.cpu 1 -test.benchtime 3s \
        -test.cpuprofile "$OUT/cpu-$side.prof" >"$OUT/profile-$side.txt"
    go tool pprof -top -cum -nodecount 2000 "$OUT/root$suffix.test" "$OUT/cpu-$side.prof" >"$OUT/top-$side.txt" 2>/dev/null
    dir="$PWD"; [ "$side" = base ] && dir="$OUT/base"
    bash "$dir/benchmark/bench.sh" --workload point-pread --seed 42 --seconds 5 --trace 1 2>/dev/null | tail -1 >"$OUT/setup-$side.json"
done
for seed in $SEEDS; do
    "$OUT/core.test" -test.run '^$' -test.bench 'BenchmarkBuildPhases' -test.cpu 1 \
        -test.benchtime "$BUILDTIME" -test.count "$COUNT" -test.timeout 2h -hashed.seed "$seed" >"$OUT/phases-$seed.txt"
    "$OUT/core.test" -test.run '^$' -test.bench 'BenchmarkBuildIndependent' -test.cpu 2 \
        -test.benchtime "$BUILDTIME" -test.count "$COUNT" -test.timeout 2h -hashed.seed "$seed" >"$OUT/independent-$seed.txt"
done

python3 - "$OUT" "$sides" $SEEDS <<'PY'
import collections, json, re, statistics, sys

out, sides, seeds = sys.argv[1], sys.argv[2].split(), sys.argv[3:]

def rows(path, pattern):
    row, runs = re.compile(pattern), collections.defaultdict(list)
    for line in open(path):
        if m := row.match(line):
            *key, val = m.groups()
            runs[tuple(key)].append(float(val))
    return {k: statistics.median(v) for k, v in runs.items()}

print('Sweep 1 — ns per row of a whole BuildApprox, median of each seed\'s runs: GOMAXPROCS=1 / =2 / ratio')
sweep = {}
for side in sides:
    for s in seeds:
        for (lg, cpu), v in rows(f'{out}/sweep-{side}-{s}.txt',
                r'BenchmarkBuildApproxPaths/n=2\^(\d+)/sortfree(-\d+)?\s+\d+\s+[\d.]+ ns/op\s+([\d.]+) ns/row').items():
            sweep[side, s, int(lg), cpu or '-1'] = v
for side in sides:
    print(f'  {side}')
    print('  n       ' + '   '.join(f'seed {s:<18}' for s in seeds))
    for lg in range(16, 21):
        cells = []
        for s in seeds:
            one, two = sweep[side, s, lg, '-1'], sweep[side, s, lg, '-2']
            cells.append(f'{one:7.0f} {two:7.0f} {two / one:5.2f}   ')
        print(f'  2^{lg:<5} ' + '   '.join(cells))
if 'base' in sides:
    print('  change / base at the same GOMAXPROCS (median over seeds):')
    for lg in range(16, 21):
        r = [statistics.median(sweep['change', s, lg, c] / sweep['base', s, lg, c] for s in seeds) for c in ('-1', '-2')]
        print(f'  2^{lg:<5} GOMAXPROCS=1 {r[0]:.2f}   GOMAXPROCS=2 {r[1]:.2f}')

print('\nSweep 2a — phases of one sequential build at this tree, ns per row (tree / scatter / encode / rest / whole), the')
print('slowest level\'s share of the level time, and the two-worker time Amdahl predicts from them against the one measured')
for s in seeds:
    ph = {}
    for line in open(f'{out}/phases-{s}.txt'):
        if m := re.match(r'BenchmarkBuildPhases/n=2\^(\d+)\s+\d+\s+[\d.]+ ns/op(.*)', line):
            for val, unit in re.findall(r'([\d.]+) ([\w/-]+)', m.group(2)):
                ph.setdefault((int(m.group(1)), unit), []).append(float(val))
    for lg in range(16, 21):
        g = lambda u: statistics.median(ph[lg, u])
        tree, sc, enc, rest, whole, longest = (g(u) for u in ('tree-ns/row', 'scatter-ns/row', 'encode-ns/row', 'rest-ns/row', 'build-ns/row', 'longest-level'))
        par = sc + enc
        predicted = tree + rest + par * max(0.5, longest)
        one, two = sweep['change', s, lg, '-1'], sweep['change', s, lg, '-2']
        print(f'  seed {s} 2^{lg}: {tree:5.1f} / {sc:5.1f} / {enc:5.1f} / {rest:5.1f} / {whole:6.1f}   longest level {longest:.2f}   '
              f'serial share {(tree + rest) / whole:.2f}   predicted x{whole / predicted:.2f}   measured x{one / two:.2f}')

def classify(name):
    for cls, pat in (('tree', r'core\.BuildTree$|core\.newLevelTasks$'),
                     ('scatter', r'\)\.scatter$'),
                     ('encode', r'core\.runLevel\[|StreamEncoder\)\.MergeSortedSlices$|core\.\(\*hashedSet\)\.encode$|Tree\)\.PositionSlices$'),
                     ('place', r'Disk\)\.AllocStream$|core\.newTreeLayout$|Disk\)\.Reserve$')):
        if re.search(pat, name):
            return cls

if 'base' in sides:
    print('\nSweep 2b — one-core CPU profile of BenchmarkBuild/public/n=524288 classed by function, ns per row')
    for side in sides:
        nsrow = rows(f'{out}/profile-{side}.txt', r'(BenchmarkBuild)/public/n=524288\s+\d+\s+[\d.]+ ns/op\s+([\d.]+) ns/row')[('BenchmarkBuild',)]
        cum, total = collections.Counter(), None
        for line in open(f'{out}/top-{side}.txt'):
            f = line.split()
            if len(f) >= 6 and f[3].endswith('s') and f[4].endswith('%'):
                secs = float(f[3][:-2]) / 1000 if f[3].endswith('ms') else float(f[3][:-1])
                if f[5].endswith('BenchmarkBuild.func2'):
                    total = secs
                elif cls := classify(f[5]):
                    cum[cls] += secs
        cum['encode'] -= cum['scatter'] if side == 'change' else 0  # runLevel's samples include its scatter
        cum['rest'] = total - sum(cum.values())
        print(f'  {side:6} {nsrow:6.1f} ns/row: ' + '   '.join(f'{c} {nsrow * cum[c] / total:5.1f}' for c in ('tree', 'scatter', 'encode', 'place', 'rest')))
    print('\n  the benchmark\'s traced point-pread set-up (one cold build): build / write / open, ms')
    for side in sides:
        m = json.load(open(f'{out}/setup-{side}.json'))['metrics']
        rows_n = 1 << 19
        print(f'  {side:6} {m["core.build_ns_per_row"]["value"] * rows_n / 1e6:6.1f} / '
              f'{m["container.bytes"]["value"] / 1e6 / m["container.write_mb_per_s"]["value"] * 1e3:5.1f} / {m["container.open_ms"]["value"]:5.1f}')

print('\nSweep 3 — devil\'s advocate: whole one-worker builds side by side at GOMAXPROCS=2, wall ns per row of one build')
for s in seeds:
    ind = rows(f'{out}/independent-{s}.txt', r'BenchmarkBuildIndependent/builds=(\d)-2\s+\d+\s+[\d.]+ ns/op\s+([\d.]+) ns/row')
    one, two = ind['1',], ind['2',]
    print(f'  seed {s}: one build {one:6.1f}   two side by side {two:6.1f}   x{two / one:.2f} (1.00 = the cores scale; 2.00 = they do not)')
PY
echo "raw runs: $OUT/{sweep,phases,independent,profile,top,setup}-*" >&2
