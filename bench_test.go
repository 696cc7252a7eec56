// Benchmarks regenerating every experiment in DESIGN.md's per-experiment
// index (one per theorem / analytical claim of the paper), plus wall-clock
// micro-benchmarks of the core operations.
//
// The experiment benchmarks report their headline measurements through
// b.ReportMetric, so `go test -bench . -benchmem` prints, next to the usual
// ns/op, the I/O-model quantities the theorems bound (the deterministic
// primary metric — wall-clock numbers include GC noise, the I/O counts do
// not).
package secidx

import (
	"context"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/experiments"
	"repro/internal/gamma"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/serve"
	"repro/internal/workload"
)

// benchExperiment runs one DESIGN.md experiment per benchmark iteration.
func benchExperiment(b *testing.B, run func(experiments.Scale) (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1SpaceVsSigma(b *testing.B)    { benchExperiment(b, experiments.E1SpaceVsSigma) }
func BenchmarkE2QueryVsRange(b *testing.B)    { benchExperiment(b, experiments.E2QueryVsRange) }
func BenchmarkE3EntropySweep(b *testing.B)    { benchExperiment(b, experiments.E3EntropySweep) }
func BenchmarkE4TradeOff(b *testing.B)        { benchExperiment(b, experiments.E4TradeOff) }
func BenchmarkE5ApproxEps(b *testing.B)       { benchExperiment(b, experiments.E5ApproxEps) }
func BenchmarkE6Append(b *testing.B)          { benchExperiment(b, experiments.E6Append) }
func BenchmarkE7PointIndex(b *testing.B)      { benchExperiment(b, experiments.E7PointIndex) }
func BenchmarkE8Dynamic(b *testing.B)         { benchExperiment(b, experiments.E8Dynamic) }
func BenchmarkE9RIDIntersection(b *testing.B) { benchExperiment(b, experiments.E9RIDIntersection) }
func BenchmarkE10OutputOptimality(b *testing.B) {
	benchExperiment(b, experiments.E10OutputOptimality)
}
func BenchmarkA1Stride(b *testing.B)         { benchExperiment(b, experiments.A1Stride) }
func BenchmarkA2Branching(b *testing.B)      { benchExperiment(b, experiments.A2Branching) }
func BenchmarkA3PointBranching(b *testing.B) { benchExperiment(b, experiments.A3PointBranching) }

// --- Wall-clock micro-benchmarks with I/O-model metrics attached. ---

func benchColumn(n, sigma int) workload.Column {
	return workload.Uniform(n, sigma, 1)
}

func BenchmarkBuildOptimal(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			col := benchColumn(n, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
				ix, err := core.BuildOptimalDefault(d, col)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(ix.SizeBits())/float64(n), "bits/char")
				}
			}
		})
	}
}

// BenchmarkBuild times the whole construction the public API runs — the
// Theorem 2 structure plus the Theorem 3 hashed levels — at the internal
// entry point, through Build, and through a 4-shard BuildSharded, on a
// σ = 1024 zipf column. ns/row is the figure to compare across n.
func BenchmarkBuild(b *testing.B) {
	const sigma = 1024
	builds := []struct {
		name string
		run  func(col workload.Column) error
	}{
		{"approx", func(col workload.Column) error {
			_, err := core.BuildApprox(iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), col, core.ApproxOptions{Seed: 42})
			return err
		}},
		{"public", func(col workload.Column) error {
			_, err := Build(col.X, sigma, Options{Seed: 42})
			return err
		}},
		{"sharded=4", func(col workload.Column) error {
			_, err := BuildSharded(col.X, sigma, ShardOptions{Options: Options{Seed: 42}, Shards: 4})
			return err
		}},
	}
	for _, bl := range builds {
		for _, n := range []int{1 << 16, 1 << 19} {
			b.Run(bl.name+"/n="+strconv.Itoa(n), func(b *testing.B) {
				col := workload.Zipf(n, sigma, 1.1, 42)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := bl.run(col); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
	}
}

func BenchmarkQueryOptimal(b *testing.B) {
	for _, ell := range []int{1, 16, 128} {
		b.Run("ell="+strconv.Itoa(ell), func(b *testing.B) {
			n := 1 << 17
			col := benchColumn(n, 1024)
			d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
			ix, err := core.BuildOptimalDefault(d, col)
			if err != nil {
				b.Fatal(err)
			}
			qs := workload.RandomRanges(64, 1024, ell, 7)
			var reads, bits, z float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				bm, st, err := ix.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
				if err != nil {
					b.Fatal(err)
				}
				reads += float64(st.Reads)
				bits += float64(st.BitsRead)
				z += float64(bm.Card())
			}
			nIters := float64(b.N)
			b.ReportMetric(reads/nIters, "blockIO/op")
			bound := entropy.AnswerBound(int64(n), int64(z/nIters))
			if bound >= 1 {
				b.ReportMetric(bits/nIters/bound, "bits-vs-bound")
			}
		})
	}
}

func BenchmarkQueryPublicAPI(b *testing.B) {
	n := 1 << 16
	rng := rand.New(rand.NewSource(2))
	col := make([]uint32, n)
	for i := range col {
		col[i] = uint32(rng.Intn(512))
	}
	ix, err := Build(col, 512, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint32(rng.Intn(500))
		if _, _, err := ix.Query(lo, lo+8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedQuery sweeps the shard count on one column: per-query
// wall time plus the total and critical-path (max single device) block
// reads of the fan-out + offset-merge pipeline.
func BenchmarkShardedQuery(b *testing.B) {
	n := 1 << 16
	rng := rand.New(rand.NewSource(21))
	col := make([]uint32, n)
	for i := range col {
		col[i] = uint32(rng.Intn(512))
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run("shards="+strconv.Itoa(shards), func(b *testing.B) {
			ix, err := BuildSharded(col, 512, ShardOptions{Shards: shards, Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			ix.ResetDeviceStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := uint32(rng.Intn(500))
				if _, _, err := ix.Query(lo, lo+8); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ix.DeviceStats().BlockReads)/float64(b.N), "blockIO/op")
		})
	}
	b.Run("wide", func(b *testing.B) {
		ix, qs := wideSharded(b)
		ix.ResetDeviceStats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			if _, _, err := ix.Query(q.Lo, q.Hi); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ix.DeviceStats().BlockReads)/float64(b.N), "blockIO/op")
	})
}

// wideSharded is the scan-wide workload's shape at a quarter of its rows: 4
// shards over 2^18 zipf-1.0 rows with sigma 1024, and 256 ranges of 64-192
// keys, so the window kernel and the union of the shards' answers do the
// work. BenchmarkShardedQuery/wide and TestWideShardedQueryAllocs run it.
func wideSharded(tb testing.TB) (*ShardedIndex, []Range) {
	const sigma = 1024
	col := workload.Zipf(1<<18, sigma, 1.0, 31)
	ix, err := BuildSharded(col.X, sigma, ShardOptions{Shards: 4})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	qs := make([]Range, 256)
	for i := range qs {
		l := 64 + rng.Intn(129)
		lo := rng.Intn(sigma - l + 1)
		qs[i] = Range{Lo: uint32(lo), Hi: uint32(lo + l - 1)}
	}
	return ix, qs
}

// BenchmarkShardedQueryBatch runs 32-query batches through the shared-scan
// batch planner. The original random batch (moderate overlap) is kept with
// and without the per-shard block cache; the overlap-zipf variants draw
// zipf-clustered ranges — the production shape where many concurrent queries
// hit the same hot key ranges — and pair the planner against a looped
// per-query baseline, so the blockIO/batch ratio between the two is the
// shared-scan win.
func BenchmarkShardedQueryBatch(b *testing.B) {
	n := 1 << 16
	rng := rand.New(rand.NewSource(22))
	col := make([]uint32, n)
	for i := range col {
		col[i] = uint32(rng.Intn(512))
	}
	batch := make([]Range, 32)
	for i := range batch {
		lo := uint32(rng.Intn(500))
		batch[i] = Range{Lo: lo, Hi: lo + 8}
	}
	batch[7], batch[19] = batch[0], batch[4] // hot repeats
	zrng := rand.New(rand.NewSource(24))
	zipf := rand.NewZipf(zrng, 1.4, 8, 495)
	zbatch := make([]Range, 32)
	for i := range zbatch {
		lo := uint32(zipf.Uint64())
		zbatch[i] = Range{Lo: lo, Hi: lo + 16}
	}
	for _, bc := range []struct {
		name   string
		batch  []Range
		cache  int
		looped bool
	}{
		{"cache=off", batch, 0, false},
		{"cache=128", batch, 128, false},
		{"overlap-zipf", zbatch, 0, false},
		{"overlap-zipf-looped", zbatch, 0, true},
		{"overlap-zipf-cache=128", zbatch, 128, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ix, err := BuildSharded(col, 512, ShardOptions{Shards: 4, Workers: 4, CacheBlocks: bc.cache})
			if err != nil {
				b.Fatal(err)
			}
			ix.ResetDeviceStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.looped {
					for _, r := range bc.batch {
						if _, _, err := ix.Query(r.Lo, r.Hi); err != nil {
							b.Fatal(err)
						}
					}
				} else if _, _, err := ix.QueryBatch(bc.batch); err != nil {
					b.Fatal(err)
				}
			}
			st := ix.DeviceStats()
			b.ReportMetric(float64(st.BlockReads)/float64(b.N), "blockIO/batch")
			if st.SharedSaved > 0 {
				b.ReportMetric(float64(st.SharedSaved)/float64(b.N), "sharedSaved/batch")
			}
			if tot := st.CacheHits + st.CacheMisses; tot > 0 {
				b.ReportMetric(100*float64(st.CacheHits)/float64(tot), "cache-hit-pct")
			}
		})
	}
}

// BenchmarkIndexQuery measures the end-to-end fused streaming query
// pipeline through the public API — exact, approximate, and sharded. Run
// with -benchmem: allocs/op and blockIO/op are what scripts/bench.sh gates.
func BenchmarkIndexQuery(b *testing.B) {
	n := 1 << 16
	rng := rand.New(rand.NewSource(23))
	col := make([]uint32, n)
	for i := range col {
		col[i] = uint32(rng.Intn(512))
	}
	queries := make([]uint32, 256)
	for i := range queries {
		queries[i] = uint32(rng.Intn(500))
	}

	// ranges times 9-key range queries and reports their block reads.
	ranges := func(b *testing.B, query func(lo, hi uint32) (*Result, Stats, error)) {
		var reads int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := queries[i%len(queries)]
			_, st, err := query(lo, lo+8)
			if err != nil {
				b.Fatal(err)
			}
			reads += int64(st.Reads)
		}
		b.ReportMetric(float64(reads)/float64(b.N), "blockIO/op")
	}

	b.Run("exact", func(b *testing.B) {
		ix, err := Build(col, 512, Options{})
		if err != nil {
			b.Fatal(err)
		}
		ranges(b, ix.Query)
	})

	// point is Query(c, c) over a zipf column: every plan is ordered, so every
	// merge is a concatenation.
	b.Run("point", func(b *testing.B) {
		ix, err := Build(workload.Zipf(n, 512, 1.0, 23).X, 512, Options{})
		if err != nil {
			b.Fatal(err)
		}
		var reads int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := queries[i%len(queries)]
			_, st, err := ix.Query(c, c)
			if err != nil {
				b.Fatal(err)
			}
			reads += int64(st.Reads)
		}
		b.ReportMetric(float64(reads)/float64(b.N), "blockIO/op")
	})

	// wide-contains is a caller's read of a wide static answer: Query over
	// 128 keys (a quarter of the rows), whose one-shard merge goes through the
	// window kernel recording skip samples, then one Contains through them.
	b.Run("wide-contains", func(b *testing.B) {
		ix, err := Build(col, 512, Options{})
		if err != nil {
			b.Fatal(err)
		}
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := queries[i%len(queries)] % 384
			res, _, err := ix.Query(lo, lo+127)
			if err != nil {
				b.Fatal(err)
			}
			if res.Contains(int64(queries[(i+1)%len(queries)]) * 127) {
				hits++
			}
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	})

	b.Run("approx", func(b *testing.B) {
		ix, err := Build(col, 512, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := queries[i%len(queries)]
			if _, _, err := ix.ApproxQuery(lo, lo+8, 0.25); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, shards := range []int{4, 8} {
		b.Run("sharded="+strconv.Itoa(shards), func(b *testing.B) {
			ix, err := BuildSharded(col, 512, ShardOptions{Shards: shards, Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			ix.ResetDeviceStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := queries[i%len(queries)]
				if _, _, err := ix.Query(lo, lo+8); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ix.DeviceStats().BlockReads)/float64(b.N), "blockIO/op")
		})
	}

	// The updatable kinds' read path: the same 9-key ranges over a quarter of
	// the column after 4096 skewed updates, so the queries run over rebuilt
	// subtrees and pending buffers, not over a fresh build.
	small := col[:n/4]
	for _, kind := range []struct {
		name     string
		buffered bool
	}{{"append", false}, {"append-buffered", true}} {
		b.Run(kind.name, func(b *testing.B) {
			ix, err := BuildAppend(small, 512, Options{Buffered: kind.buffered})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4096; i++ {
				if _, err := ix.Append(queries[i%7]); err != nil {
					b.Fatal(err)
				}
			}
			ranges(b, ix.Query)
		})
	}
	b.Run("dynamic", func(b *testing.B) {
		ix, err := BuildDynamic(small, 512, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4096; i++ {
			switch i % 3 { // row i is changed or deleted once, never both
			case 0:
				_, err = ix.Append(queries[i%7])
			case 1:
				_, err = ix.Change(int64(i), queries[i%7])
			case 2:
				_, err = ix.Delete(int64(i))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		ranges(b, ix.Query)
	})
}

func BenchmarkAppendDirect(b *testing.B)   { benchAppend(b, false) }
func BenchmarkAppendBuffered(b *testing.B) { benchAppend(b, true) }

// BenchmarkRebuild measures the full build/rebuild pipeline of the
// semi-dynamic index: every iteration re-runs the global rebuild (skeleton +
// one encoded member chain per node per materialised level) on a fresh
// device. Run with -benchmem: allocs/op is the headline number for the fused
// streaming write path.
func BenchmarkRebuild(b *testing.B) {
	for _, variant := range []struct {
		name     string
		buffered bool
	}{{"direct", false}, {"buffered", true}} {
		b.Run(variant.name, func(b *testing.B) {
			col := benchColumn(1<<14, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
				ax, err := core.BuildAppendIndex(d, col, core.AppendOptions{Buffered: variant.buffered})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(ax.SizeBits())/float64(col.Len()), "bits/char")
				}
			}
		})
	}
}

func benchAppend(b *testing.B, buffered bool) {
	col := benchColumn(1024, 64)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	ax, err := core.BuildAppendIndex(d, col, core.AppendOptions{Buffered: buffered})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var ios int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ax.Append(uint32(rng.Intn(64)))
		if err != nil {
			b.Fatal(err)
		}
		ios += int64(st.Reads + st.Writes)
	}
	b.ReportMetric(float64(ios)/float64(b.N), "blockIO/op")
}

func BenchmarkDynamicChange(b *testing.B) {
	col := benchColumn(1<<14, 64)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	dx, err := core.BuildDynamic(d, col, core.DynamicOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var ios int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := dx.Change(rng.Int63n(dx.Len()), uint32(rng.Intn(64)))
		if err != nil {
			b.Fatal(err)
		}
		ios += int64(st.Reads + st.Writes)
	}
	b.ReportMetric(float64(ios)/float64(b.N), "blockIO/op")
}

func BenchmarkApproxQuery(b *testing.B) {
	col := benchColumn(1<<15, 2048)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	ax, err := core.BuildApprox(d, col, core.ApproxOptions{Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var bits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint32(rng.Intn(2040))
		res, st, err := ax.ApproxQuery(index.Range{Lo: lo, Hi: lo + 1}, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
		bits += st.BitsRead
	}
	b.ReportMetric(float64(bits)/float64(b.N), "bitsRead/op")
}

func BenchmarkA4LevelBuffering(b *testing.B) { benchExperiment(b, experiments.A4LevelBuffering) }

func BenchmarkA5CodeChoice(b *testing.B) { benchExperiment(b, experiments.A5CodeChoice) }

// --- Decode-path micro-benchmarks (the bitio → gamma → cbitmap stack). ---

// gammaBenchStream encodes count values drawn from a seeded distribution and
// returns the encoded stream plus the values for verification.
func gammaBenchStream(count int, seed int64) (*bitio.Writer, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	w := bitio.NewWriter(0)
	vals := make([]uint64, count)
	for i := range vals {
		// Mix of small gaps (the common case in dense bitmaps) and large ones.
		v := uint64(rng.Intn(8) + 1)
		if rng.Intn(16) == 0 {
			v = uint64(rng.Int63n(1<<30) + 1)
		}
		vals[i] = v
		gamma.Write(w, v)
	}
	return w, vals
}

func BenchmarkGammaDecode(b *testing.B) {
	const count = 1 << 16
	w, vals := gammaBenchStream(count, 11)
	b.SetBytes(int64(count))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(w.Bytes(), w.Len())
		var sum uint64
		for j := 0; j < count; j++ {
			v, err := gamma.Read(r)
			if err != nil {
				b.Fatal(err)
			}
			sum += v
		}
		if i == 0 {
			var want uint64
			for _, v := range vals {
				want += v
			}
			if sum != want {
				b.Fatalf("decode checksum %d want %d", sum, want)
			}
		}
	}
}

func BenchmarkBitioReadUnary(b *testing.B) {
	const count = 1 << 16
	rng := rand.New(rand.NewSource(12))
	w := bitio.NewWriter(0)
	for i := 0; i < count; i++ {
		w.WriteUnary(rng.Intn(40))
	}
	b.SetBytes(count)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(w.Bytes(), w.Len())
		for j := 0; j < count; j++ {
			if _, err := r.ReadUnary(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchBitmaps builds k bitmaps over a shared universe with density m ones
// each.
func benchBitmaps(k, m int, n int64, seed int64) []*cbitmap.Bitmap {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cbitmap.Bitmap, k)
	for i := range out {
		pos := make([]int64, 0, m)
		for j := 0; j < m; j++ {
			pos = append(pos, rng.Int63n(n))
		}
		bm, err := cbitmap.FromUnsorted(n, pos)
		if err != nil {
			panic(err)
		}
		out[i] = bm
	}
	return out
}

func BenchmarkBitmapUnion(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			ms := benchBitmaps(k, 1<<15, 1<<22, 13)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cbitmap.Union(ms...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeStreams times the fused decode-merge through its public
// dispatch over k disk-backed streams that together hold one position per D
// of a 2^20 universe: D < 256 takes the window kernel; D = 256 sits on the
// crossover (deduplication leaves it just under) and, like the sparser points,
// takes the per-row loop. ordered is the point-query shape: one set of 4096
// positions cut into k consecutive members, concatenated by cbitmap.Concat,
// each member validated. ns/row is per input position.
func BenchmarkMergeStreams(b *testing.B) {
	const n = 1 << 20
	encode := func(ms []*cbitmap.Bitmap) (rd *bitio.Reader, starts []int, rows int) {
		w := bitio.NewWriter(0)
		starts = make([]int, len(ms))
		for i, m := range ms {
			starts[i] = w.Len()
			m.EncodeTo(w)
			rows += int(m.Card())
		}
		return bitio.NewReader(w.Bytes(), w.Len()), starts, rows
	}
	run := func(b *testing.B, merge func(int64, ...*cbitmap.Stream) (*cbitmap.Bitmap, error), ms []*cbitmap.Bitmap) {
		rd, starts, rows := encode(ms)
		streams := make([]*cbitmap.Stream, len(ms))
		for i := range streams {
			streams[i] = new(cbitmap.Stream)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, m := range ms {
				if err := streams[j].InitDecode(rd, starts[j], m.SizeBits(), m.Card(), n, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := merge(n, streams...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	}
	for _, op := range []string{"union", "complement"} {
		merge := cbitmap.MergeStreams
		if op == "complement" {
			merge = cbitmap.MergeStreamsComplement
		}
		b.Run(op, func(b *testing.B) {
			// Nested levels: a single "density=1/4" name would confuse -bench,
			// which splits its pattern at slashes.
			b.Run("density=1", func(b *testing.B) {
				for _, d := range []int{4, 16, 64, 256, 1024, 4096} {
					b.Run(strconv.Itoa(d), func(b *testing.B) {
						for _, k := range []int{4, 16, 64} {
							b.Run("k="+strconv.Itoa(k), func(b *testing.B) { run(b, merge, benchBitmaps(k, n/d/k, n, 17)) })
						}
					})
				}
			})
		})
	}
	b.Run("ordered", func(b *testing.B) {
		pos := benchBitmaps(1, 4096, n, 17)[0].Positions()
		for _, k := range []int{4, 16, 64} {
			b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
				ms := make([]*cbitmap.Bitmap, k)
				for i := range ms {
					ms[i] = cbitmap.MustFromPositions(n, pos[i*len(pos)/k:(i+1)*len(pos)/k])
				}
				rd, starts, rows := encode(ms)
				members := make([]cbitmap.Member, len(ms))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j, m := range ms {
						if err := members[j].Init(rd, starts[j], m.SizeBits(), m.Card(), -1, 0); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := cbitmap.Concat(n, members); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			})
		}
	})
}

func BenchmarkBitmapIntersect(b *testing.B) {
	ms := benchBitmaps(2, 1<<15, 1<<20, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cbitmap.Intersect(ms[0], ms[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContains probes random membership on a 1M-position bitmap — the
// acceptance target for the skip-sample fast path.
func BenchmarkContains(b *testing.B) {
	const m = 1 << 20
	n := int64(1) << 24
	rng := rand.New(rand.NewSource(15))
	pos := make([]int64, 0, m)
	for j := 0; j < m; j++ {
		pos = append(pos, rng.Int63n(n))
	}
	bm, err := cbitmap.FromUnsorted(n, pos)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Contains(rng.Int63n(n))
	}
	b.ReportMetric(float64(bm.SampleBits())/float64(bm.SizeBits())*100, "sample-overhead-pct")
}

func BenchmarkBitmapDecode(b *testing.B) {
	ms := benchBitmaps(1, 1<<17, 1<<24, 16)
	bm := ms[0]
	w := bitio.NewWriter(bm.SizeBits())
	bm.EncodeTo(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReader(w.Bytes(), w.Len())
		if _, err := cbitmap.Decode(r, bm.Card(), bm.Universe()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSim is the served-throughput benchmark: the serving layer's
// discrete-event simulator replays a deterministic open-loop arrival stream
// through admission control, micro-batching and the shared-scan planner.
// The reported metrics are virtual-clock and therefore deterministic:
// served/s and p99 from the simulated timeline, blockIO/batch from the I/O
// model. Wall ns/op measures the simulator+engine itself.
func BenchmarkServeSim(b *testing.B) {
	n := 1 << 15
	rng := rand.New(rand.NewSource(29))
	col := make([]uint32, n)
	for i := range col {
		col[i] = uint32(rng.Intn(512))
	}
	ix, err := BuildSharded(col, 512, ShardOptions{Shards: 4, Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.ArrivalSpec{Sigma: 512, RangeLen: 16, Theta: 1.1}
	cfg := serve.Config{MaxQueue: 128, MaxBatch: 16, Workers: 2, AllowPartial: true}
	for _, bc := range []struct {
		name string
		arr  []workload.Arrival
	}{
		{"poisson-1x", workload.PoissonArrivals(2000, 20000, spec, 33)},
		{"poisson-4x", workload.PoissonArrivals(2000, 80000, spec, 33)},
		{"mmpp-burst", workload.MMPPArrivals(2000, 30000, 240000, 20*time.Millisecond, spec, 33)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var last serve.SimResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last = serve.Simulate(serve.ShardBackend{Ix: ix.sx}, nil, bc.arr, serve.SimConfig{Config: cfg})
			}
			st := last.Stats
			// An op is one whole simulation, whose served and batch counts
			// follow the simulated service time: scripts/bench.sh gates
			// allocations per served request and per batch from these two.
			b.ReportMetric(float64(st.Completed), "served/op")
			b.ReportMetric(float64(st.Batches), "batches/op")
			b.ReportMetric(float64(st.Completed)/last.Makespan.Seconds(), "served/s")
			b.ReportMetric(100*float64(st.Shed)/float64(len(bc.arr)), "shed-pct")
			if st.Batches > 0 {
				b.ReportMetric(float64(st.Reads)/float64(st.Batches), "blockIO/batch")
				b.ReportMetric(float64(st.Admitted)/float64(st.Batches), "batch-size")
			}
			b.ReportMetric(float64(st.LatencyP99.Microseconds()), "p99-us")
		})
	}
}

// BenchmarkServerHit measures a request the answer cache answers: Submit's
// closed and ctx checks, one cache lookup, and the one allocation that holds
// the ServedResult and its Result.
func BenchmarkServerHit(b *testing.B) {
	col := workload.Zipf(1<<16, 256, 1.0, 7)
	ix, err := BuildSharded(col.X, 256, ShardOptions{Shards: 4, CacheBlocks: 64})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := ix.Serve(ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	if _, err := srv.Query(ctx, 16, 31); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err := srv.Query(ctx, 16, 31); err != nil || res.Trigger != "cache" {
			b.Fatalf("err=%v res=%+v", err, res)
		}
	}
}
