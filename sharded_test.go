package secidx

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/workload"
)

// TestShardedDifferential is the differential property test: on random
// columns and workloads, ShardedIndex answers — rows, cardinality, Contains —
// must be identical to a single unsharded Index, for every shard count.
func TestShardedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		n := 2000 + rng.Intn(8000)
		sigma := []int{16, 64, 256, 1000}[trial%4]
		x := randColumn(n, sigma, int64(100+trial))
		ref, err := Build(x, sigma, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 7, 16} {
			ix, err := BuildSharded(x, sigma, ShardOptions{
				Options: Options{Seed: 5},
				Shards:  shards,
			})
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			if got := ix.Shards(); got != shards {
				t.Fatalf("built %d shards, want %d", got, shards)
			}
			for q := 0; q < 25; q++ {
				lo := uint32(rng.Intn(sigma))
				hi := lo + uint32(rng.Intn(sigma-int(lo)))
				want, _, err := ref.Query(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := ix.Query(lo, hi)
				if err != nil {
					t.Fatalf("shards=%d [%d,%d]: %v", shards, lo, hi, err)
				}
				assertSameResult(t, got, want, x, lo, hi, shards)
			}
		}
	}
}

func assertSameResult(t *testing.T, got, want *Result, x []uint32, lo, hi uint32, shards int) {
	t.Helper()
	if got.Card() != want.Card() {
		t.Fatalf("shards=%d [%d,%d]: card %d, unsharded %d", shards, lo, hi, got.Card(), want.Card())
	}
	// The gap encoding is canonical, so equality must hold bit for bit.
	if got.SizeBits() != want.SizeBits() {
		t.Fatalf("shards=%d [%d,%d]: %d encoded bits, unsharded %d", shards, lo, hi, got.SizeBits(), want.SizeBits())
	}
	gr, wr := got.Rows(), want.Rows()
	for i := range wr {
		if gr[i] != wr[i] {
			t.Fatalf("shards=%d [%d,%d]: row[%d] = %d, unsharded %d", shards, lo, hi, i, gr[i], wr[i])
		}
	}
	// Contains must agree on members and a sample of non-members.
	for i := 0; i < 20 && i < len(wr); i++ {
		if !got.Contains(wr[i]) {
			t.Fatalf("shards=%d [%d,%d]: Contains(%d) = false for a member", shards, lo, hi, wr[i])
		}
	}
	for i := int64(0); i < 50; i++ {
		p := (i * 997) % int64(len(x))
		if got.Contains(p) != want.Contains(p) {
			t.Fatalf("shards=%d [%d,%d]: Contains(%d) disagrees", shards, lo, hi, p)
		}
	}
}

// TestShardedFusedVsUnfusedOracle pins the whole fused pipeline end to end:
// the sharded answer (per-shard fused streaming queries, merged with row-id
// offsetting) must be bit-identical to the canonical encoding of a column
// scan (workload.BruteForce), including ranges dense enough to take the
// complement path.
func TestShardedFusedVsUnfusedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 3; trial++ {
		n := 1500 + rng.Intn(4000)
		sigma := []int{8, 128, 700}[trial]
		x := randColumn(n, sigma, int64(200+trial))
		col := workload.Column{X: x, Sigma: sigma}
		for _, shards := range []int{1, 3, 5} {
			ix, err := BuildSharded(x, sigma, ShardOptions{Options: Options{Seed: 5}, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 20; q++ {
				lo := uint32(rng.Intn(sigma))
				hi := lo + uint32(rng.Intn(sigma-int(lo)))
				if q == 0 {
					lo, hi = 0, uint32(sigma-1) // densest possible: complement path
				}
				want := cbitmap.MustFromPositions(int64(n), workload.BruteForce(col, workload.RangeQuery{Lo: lo, Hi: hi}))
				got, _, err := ix.Query(lo, hi)
				if err != nil {
					t.Fatalf("shards=%d [%d,%d]: %v", shards, lo, hi, err)
				}
				assertSameResult(t, got, &Result{bm: want}, x, lo, hi, shards)
			}
		}
	}
}

// TestShardedQueryBatch checks batch answers against singleton queries,
// including deduplication of repeated ranges.
func TestShardedQueryBatch(t *testing.T) {
	x := randColumn(12000, 128, 23)
	ix, err := BuildSharded(x, 128, ShardOptions{Shards: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ranges := []Range{{Lo: 0, Hi: 7}, {Lo: 100, Hi: 120}, {Lo: 0, Hi: 7}, {Lo: 64, Hi: 64}, {Lo: 0, Hi: 127}, {Lo: 100, Hi: 120}}
	results, _, err := ix.QueryBatch(ranges)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ranges) {
		t.Fatalf("%d results for %d ranges", len(results), len(ranges))
	}
	for i, r := range ranges {
		want := bruteRange(x, r.Lo, r.Hi)
		if results[i].Card() != int64(len(want)) {
			t.Fatalf("range %d [%d,%d]: card %d, brute force %d", i, r.Lo, r.Hi, results[i].Card(), len(want))
		}
		rows := results[i].Rows()
		for j, p := range want {
			if rows[j] != p {
				t.Fatalf("range %d: row[%d] = %d, want %d", i, j, rows[j], p)
			}
		}
	}
	// Dedup: identical ranges share one underlying answer.
	if results[0].bm != results[2].bm || results[1].bm != results[5].bm {
		t.Fatal("duplicate ranges did not share their answer")
	}
	if results[0].bm == results[3].bm {
		t.Fatal("distinct ranges share an answer")
	}
}

// TestShardedQueryBatchStress hammers QueryBatch from many goroutines (run
// under -race in CI): the shards are immutable after Build and all merge
// state is per-batch, so concurrent batches must be safe and correct.
func TestShardedQueryBatchStress(t *testing.T) {
	x := randColumn(20000, 256, 29)
	ix, err := BuildSharded(x, 256, ShardOptions{
		Shards:      7,
		Workers:     4,
		CacheBlocks: 64, // cache on: its lock discipline is part of the test
	})
	if err != nil {
		t.Fatal(err)
	}
	goroutines := 8
	if testing.Short() {
		goroutines = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(31 + g)))
			for iter := 0; iter < 10; iter++ {
				batch := make([]Range, 6)
				for i := range batch {
					lo := uint32(rng.Intn(256))
					batch[i] = Range{Lo: lo, Hi: lo + uint32(rng.Intn(256-int(lo)))}
				}
				batch[3] = batch[0] // force a duplicate
				results, _, err := ix.QueryBatch(batch)
				if err != nil {
					errs <- err
					return
				}
				for i, r := range batch {
					want := bruteRange(x, r.Lo, r.Hi)
					if results[i].Card() != int64(len(want)) {
						errs <- errMismatch{}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestShardedCacheCorrectness: with the block cache enabled, query results
// are byte-identical to the uncached run and the device pays strictly fewer
// block reads on a repeated workload.
func TestShardedCacheCorrectness(t *testing.T) {
	x := randColumn(15000, 128, 37)
	batch := []Range{{Lo: 0, Hi: 15}, {Lo: 32, Hi: 47}, {Lo: 0, Hi: 15}, {Lo: 90, Hi: 127}, {Lo: 32, Hi: 47}, {Lo: 5, Hi: 5}}
	cold, err := BuildSharded(x, 128, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := BuildSharded(x, 128, ShardOptions{Shards: 4, CacheBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	cold.ResetDeviceStats()
	warm.ResetDeviceStats()
	// Two passes over the same workload: the second pass is where the cache
	// must pay off.
	for pass := 0; pass < 2; pass++ {
		rc, _, err := cold.QueryBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		rw, _, err := warm.QueryBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if rc[i].Card() != rw[i].Card() || rc[i].SizeBits() != rw[i].SizeBits() {
				t.Fatalf("pass %d range %d: cached result differs from uncached", pass, i)
			}
			cr, wr := rc[i].Rows(), rw[i].Rows()
			for j := range cr {
				if cr[j] != wr[j] {
					t.Fatalf("pass %d range %d row %d: %d != %d", pass, i, j, cr[j], wr[j])
				}
			}
		}
	}
	cs, ws := cold.DeviceStats(), warm.DeviceStats()
	if ws.BlockReads >= cs.BlockReads {
		t.Fatalf("cache did not reduce block reads: %d cached vs %d uncached", ws.BlockReads, cs.BlockReads)
	}
	if ws.CacheHits == 0 {
		t.Fatal("no cache hits on a repeated workload")
	}
	if cs.CacheHits != 0 || cs.CacheMisses != 0 {
		t.Fatalf("uncached run reported cache traffic: %+v", cs)
	}
	if ws.CacheHits+ws.CacheMisses != cs.BlockReads {
		t.Fatalf("cache traffic %d+%d should equal uncached reads %d",
			ws.CacheHits, ws.CacheMisses, cs.BlockReads)
	}
}

// TestShardedEdgeCases covers degenerate shapes: more shards than rows,
// single-row columns, and empty batches.
func TestShardedEdgeCases(t *testing.T) {
	ix, err := BuildSharded([]uint32{3}, 8, ShardOptions{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shards() != 1 {
		t.Fatalf("1-row column built %d shards", ix.Shards())
	}
	res, _, err := ix.Query(0, 7)
	if err != nil || res.Card() != 1 || !res.Contains(0) {
		t.Fatalf("1-row query: %v card=%d", err, res.Card())
	}
	results, _, err := ix.QueryBatch(nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v len=%d", err, len(results))
	}
	if _, _, err := ix.Query(5, 99); err == nil {
		t.Fatal("out-of-alphabet range accepted")
	}
	if _, _, err := ix.QueryBatch([]Range{{Lo: 2, Hi: 1}}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestWideShardedQueryAllocs pins what a wide sharded query allocates per
// byte of the answer it returns (wideSharded's queries; bytes from
// runtime.MemStats.TotalAlloc). Each shard's answer and their union are one
// exact-size buffer each, and a shard's answer, which the union reads once,
// records no skip samples, so the query allocates about two answers' worth of
// buffers plus the per-shard plans and reads. Buffers copied again on their way out, or sample slices grown for
// answers a union reads once, push the ratio up.
func TestWideShardedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random; the ratio only holds without it")
	}
	ix, qs := wideSharded(t)
	for _, q := range qs[:32] { // warm the pools
		if _, _, err := ix.Query(q.Lo, q.Hi); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	var answer uint64
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, q := range qs {
		res, _, err := ix.Query(q.Lo, q.Hi)
		if err != nil {
			t.Fatal(err)
		}
		answer += uint64(res.SizeBits()+7) / 8
	}
	runtime.ReadMemStats(&after)
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(answer)
	t.Logf("%d queries allocated %.2f bytes per answer byte (%d answer bytes per query)", len(qs), ratio, answer/uint64(len(qs)))
	// Measured 2.24-2.54 at GOMAXPROCS 1, 2 and 4; the margin absorbs what
	// the pools lose to a collection mid-run.
	const measured, margin = 2.4, 0.6
	if ratio > measured+margin {
		t.Fatalf("a wide query allocates %.2f bytes per answer byte, want <= %.1f + %.1f", ratio, measured, margin)
	}
}
