// Command secidx builds a secondary index over a synthetic column and runs
// range queries against it, printing space usage and I/O-model costs. It is
// the quickest way to compare the paper's structure against the baselines on
// a workload of your choosing.
//
// Usage:
//
//	secidx -n 100000 -sigma 1024 -dist zipf -theta 1.1 \
//	       -index optimal -queries 100 -range 16 -block 8192
//
// Indexes: optimal (Theorem 2), warmup (Theorem 1), approx (Theorem 3, with
// -eps), bitmap, bitmap-plain, range, wah, mrbi (with -binwidth), btree,
// dynamic (Theorem 7).
//
// Files:
//
//	secidx -n 500000 -sigma 1024 -dist zipf -write col.secidx   (add -shards 4 for a sharded one)
//	secidx -inspect col.secidx
//
// -write builds the static index of the public API over the column and
// writes its container; -inspect prints a container's sections and each
// shard's space ledger — where the bits go, level by level, beside H0 — and
// exits 1 if the ledger does not account for every bit of the image.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bitmapidx"
	"repro/internal/btreeidx"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/mrbi"
	"repro/internal/rangeenc"
	"repro/internal/wah"
	"repro/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 100000, "column length")
		sigma    = flag.Int("sigma", 256, "alphabet size")
		dist     = flag.String("dist", "uniform", "distribution: uniform|zipf|runs|markov|sorted")
		theta    = flag.Float64("theta", 1.0, "zipf exponent")
		param    = flag.Float64("param", 20, "runs mean length / markov stay probability")
		seed     = flag.Int64("seed", 1, "workload seed")
		indexKnd = flag.String("index", "optimal", "index: optimal|warmup|approx|bitmap|bitmap-plain|range|wah|mrbi|btree|dynamic")
		binwidth = flag.Int("binwidth", 4, "mrbi bin width multiplier")
		queries  = flag.Int("queries", 100, "number of random range queries")
		rangeLen = flag.Int("range", 16, "query range length ℓ")
		block    = flag.Int("block", 8192, "block size B in bits")
		eps      = flag.Float64("eps", 0.0625, "false-positive rate for -index approx")
		write    = flag.String("write", "", "build the public static index over the column (sharded with an explicit -shards > 1), write its container to this path and exit")
		inspectF = flag.String("inspect", "", "print the sections and per-shard space ledger of this container and exit")

		loadgen  = flag.Bool("loadgen", false, "run the serving-layer load generator instead of the query benchmark")
		shards   = flag.Int("shards", 4, "loadgen: shard count")
		requests = flag.Int("requests", 5000, "loadgen: arrivals per load level")
		rate     = flag.Float64("rate", 20000, "loadgen: base offered load (arrivals/s; the sweep runs 0.5x-4x)")
		arrivals = flag.String("arrivals", "poisson", "loadgen: arrival process: poisson|mmpp")
		burst    = flag.Float64("burst", 8, "loadgen: mmpp high-phase rate multiplier")
		faults   = flag.Int("faults", 0, "loadgen: transient faults per 10k blocks (armed mid-run)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "loadgen: concurrent batch executors")
		maxQueue = flag.Int("maxqueue", 256, "loadgen: admission queue bound")
		maxBatch = flag.Int("maxbatch", 32, "loadgen: micro-batch distinct-range bound")
		budget   = flag.Duration("budget", 0, "loadgen: per-request deadline budget (0 = none)")
		ansCache = flag.Int64("answercache", 0, "loadgen: answer-cache budget in bytes (0 = none)")
	)
	flag.Parse()

	if *inspectF != "" {
		if err := inspect(*inspectF); err != nil {
			fmt.Fprintln(os.Stderr, "inspect:", err)
			os.Exit(1)
		}
		return
	}
	col := makeColumn(*dist, *n, *sigma, *theta, *param, *seed)
	if *write != "" {
		nshards := 1 // -shards defaults to the load generator's 4
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				nshards = *shards
			}
		})
		if err := writeContainer(*write, col.X, col.Sigma, *block, nshards); err != nil {
			fmt.Fprintln(os.Stderr, "write:", err)
			os.Exit(1)
		}
		return
	}
	if *loadgen {
		runLoadgen(col, *rangeLen, *seed, loadgenFlags{
			shards: *shards, requests: *requests, rate: *rate, arrivals: *arrivals,
			burst: *burst, faults: *faults, workers: *workers,
			maxQueue: *maxQueue, maxBatch: *maxBatch, budget: *budget, ansCache: *ansCache,
		})
		return
	}
	h0 := entropy.H0String(col.X, col.Sigma)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: *block})

	t0 := time.Now()
	ix, err := makeIndex(*indexKnd, d, col, *binwidth)
	if err != nil {
		fmt.Fprintln(os.Stderr, "build:", err)
		os.Exit(1)
	}
	buildTime := time.Since(t0)

	fmt.Printf("column: n=%d sigma=%d dist=%s H0=%.3f bits/char\n", *n, *sigma, *dist, h0)
	fmt.Printf("index:  %s  space=%d bits (%.1f bits/char)  built in %v\n",
		ix.Name(), ix.SizeBits(), float64(ix.SizeBits())/float64(*n), buildTime.Round(time.Millisecond))

	qs := workload.RandomRanges(*queries, *sigma, *rangeLen, *seed+1)
	if ax, ok := ix.(*core.Approx); ok && *indexKnd == "approx" {
		runApprox(ax, qs, *eps, int64(*n))
		return
	}
	var reads, bits, z float64
	t0 = time.Now()
	for _, q := range qs {
		bm, st, err := ix.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
		if err != nil {
			fmt.Fprintln(os.Stderr, "query:", err)
			os.Exit(1)
		}
		reads += float64(st.Reads)
		bits += float64(st.BitsRead)
		z += float64(bm.Card())
	}
	wall := time.Since(t0)
	nq := float64(len(qs))
	bound := entropy.AnswerBound(int64(*n), int64(z/nq))
	if bound < 1 {
		bound = 1
	}
	fmt.Printf("queries: %d random ranges of length %d\n", *queries, *rangeLen)
	fmt.Printf("  avg answer size z=%.0f rows (answer bound %.0f bits)\n", z/nq, bound)
	fmt.Printf("  avg block reads=%.1f  avg bits read=%.0f (%.1fx the bound)\n",
		reads/nq, bits/nq, bits/nq/bound)
	fmt.Printf("  wall time %v total (%v/query)\n", wall.Round(time.Millisecond),
		(wall / time.Duration(len(qs))).Round(time.Microsecond))
}

func makeColumn(dist string, n, sigma int, theta, param float64, seed int64) workload.Column {
	switch dist {
	case "zipf":
		return workload.Zipf(n, sigma, theta, seed)
	case "runs":
		return workload.Runs(n, sigma, param, seed)
	case "markov":
		return workload.Markov(n, sigma, param, seed)
	case "sorted":
		return workload.Sorted(n, sigma)
	default:
		return workload.Uniform(n, sigma, seed)
	}
}

func makeIndex(kind string, d *iomodel.Disk, col workload.Column, binwidth int) (index.Index, error) {
	switch kind {
	case "optimal":
		return core.BuildOptimalDefault(d, col)
	case "warmup":
		return core.BuildWarmup(d, col)
	case "approx":
		return core.BuildApprox(d, col, core.ApproxOptions{Seed: 42})
	case "bitmap":
		return bitmapidx.Build(d, col, true)
	case "bitmap-plain":
		return bitmapidx.Build(d, col, false)
	case "wah":
		return wah.BuildIndex(d, col)
	case "mrbi":
		return mrbi.Build(d, col, binwidth)
	case "range":
		return rangeenc.Build(d, col)
	case "btree":
		return btreeidx.Build(d, col)
	case "dynamic":
		return core.BuildDynamic(d, col, core.DynamicOptions{})
	default:
		return nil, fmt.Errorf("unknown index kind %q", kind)
	}
}

func runApprox(ax *core.Approx, qs []workload.RangeQuery, eps float64, n int64) {
	var bits, cand, exact float64
	for _, q := range qs {
		res, st, err := ax.ApproxQuery(index.Range{Lo: q.Lo, Hi: q.Hi}, eps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "approx query:", err)
			os.Exit(1)
		}
		bits += float64(st.BitsRead)
		cand += float64(res.CandidateCount())
		if res.IsExact() {
			exact++
		}
	}
	nq := float64(len(qs))
	fmt.Printf("approx queries: eps=%v\n", eps)
	fmt.Printf("  avg bits read=%.0f  avg candidates=%.0f (of %d rows)  exact fallbacks=%.0f%%\n",
		bits/nq, cand/nq, n, 100*exact/nq)
}
