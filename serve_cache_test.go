package secidx

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// serveBudget starts a Server over ix whose answer cache holds budget bytes
// whatever ix's block cache does (none at 0), so a fault-injected handle —
// where a block cache would hide the faults — can still be served cache-on.
func serveBudget(ix *ShardedIndex, cfg ServerConfig, budget int64) (*Server, error) {
	c := cfg.toInternal()
	c.AnswerCacheBytes = budget
	s, err := serve.NewServer(serve.ShardBackend{Ix: ix.sx}, c)
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

// TestServeChaosAnswerCache is TestServeChaos with the answer cache on: the
// same storm against the same fault-injected index, where a served answer may
// now come from the cache. Every non-degraded answer, hits included, must
// equal the fault-free oracle; a hit is a completion that was never admitted;
// and a cached range is still answered while every breaker is open.
func TestServeChaosAnswerCache(t *testing.T) {
	before := runtime.NumGoroutine()
	ref, chaos := servePair(t, 8000, 64, 4, FaultConfig{Seed: 5, TransientPer10k: 3000, TransientCount: 3, ReadLatency: 20 * time.Microsecond})
	chaos.ArmFaults()
	defer chaos.DisarmFaults()
	srv, err := serveBudget(chaos, ServerConfig{
		MaxQueue: 32, MaxBatch: 8, MaxWait: 200 * time.Microsecond, Workers: 2,
		AllowPartial:     true,
		Retry:            RetryPolicy{MaxAttempts: 5, Backoff: 50 * time.Microsecond, JitterSeed: 7},
		BreakerThreshold: 6, BreakerCooldown: 5 * time.Millisecond,
	}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 16, 40
	var served, hits, shed, failed [clients]int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				lo := uint32((c*13 + q*5) % 56)
				res, err := srv.Query(context.Background(), lo, lo+7)
				switch {
				case errors.Is(err, ErrOverloaded):
					shed[c]++
				case err != nil:
					failed[c]++
				default:
					served[c]++
					if res.Trigger == "cache" {
						hits[c]++
					}
					if len(res.Report) > 0 {
						if res.Trigger == "cache" {
							t.Errorf("[%d,%d]: degraded answer served from the cache", lo, lo+7)
						}
						continue
					}
					want, _, err := ref.Query(lo, lo+7)
					if err != nil {
						t.Error(err)
					} else if !slices.Equal(res.Result.Rows(), want.Rows()) {
						t.Errorf("[%d,%d] (trigger %s) differs from the fault-free oracle", lo, lo+7, res.Trigger)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	sum := func(a [clients]int) (n uint64) {
		for _, v := range a {
			n += uint64(v)
		}
		return n
	}
	st := srv.Stats()
	if sum(hits) == 0 || sum(hits) != st.CacheHits {
		t.Fatalf("%d hits seen, stats say %d", sum(hits), st.CacheHits)
	}
	if sum(served) != st.Completed || st.Admitted+st.CacheHits != st.Completed+st.Failed {
		t.Fatalf("served=%d failed=%d vs stats %+v: answers lost", sum(served), sum(failed), st)
	}
	if st.Admitted+st.Shed+st.CacheHits != clients*perClient || st.Shed != sum(shed) {
		t.Fatalf("admitted %d + shed %d + hits %d != %d submits", st.Admitted, st.Shed, st.CacheHits, clients*perClient)
	}
	if st.QueueMax > 32 {
		t.Fatalf("queue high-water %d exceeded MaxQueue 32", st.QueueMax)
	}
	if st.CacheBytes > 1<<20 || st.CacheEntries == 0 || st.CacheEntries > 56 {
		t.Fatalf("cache holds %d entries, %d bytes", st.CacheEntries, st.CacheBytes)
	}
	assertNoLeaks(t, before)
}

// TestServeCacheHitWithEveryBreakerOpen: once every shard's breaker is open
// an uncached range fails fast with ErrNoHealthyShards, and a range cached
// while the shards were healthy is still answered, correctly.
func TestServeCacheHitWithEveryBreakerOpen(t *testing.T) {
	ref, chaos := servePair(t, 8000, 64, 2, FaultConfig{Seed: 1, TransientPer10k: 10000, TransientCount: 1 << 20})
	srv, err := serveBudget(chaos, ServerConfig{AllowPartial: true, BreakerThreshold: 1, BreakerCooldown: time.Hour}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	if _, err := srv.Query(ctx, 8, 15); err != nil {
		t.Fatal(err)
	}
	chaos.ArmFaults()
	defer chaos.DisarmFaults()
	for lo := uint32(20); ; lo++ {
		if _, err := srv.Query(ctx, lo, lo+7); errors.Is(err, ErrNoHealthyShards) {
			break
		} else if lo > 40 {
			t.Fatalf("breakers still closed after %d failing batches (last err %v)", lo-20, err)
		}
	}
	if open := srv.Stats().BreakerOpen; slices.Contains(open, false) {
		t.Fatalf("breakers %v, want every one open", open)
	}
	res, err := srv.Query(ctx, 8, 15)
	if err != nil || res.Trigger != "cache" {
		t.Fatalf("cached range with every breaker open: err=%v res=%+v", err, res)
	}
	want, _, err := ref.Query(8, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Result.Rows(), want.Rows()) {
		t.Fatal("hit differs from the fault-free oracle")
	}
}

// TestServeAnswerCacheBudget: Serve budgets the answer cache at what the
// handle's block cache holds — CacheBlocks × block bytes × shards — so a
// handle without a block cache is served without an answer cache.
func TestServeAnswerCacheBudget(t *testing.T) {
	data := randColumn(20000, 64, 3)
	const cacheBlocks, shards = 2, 3
	for _, tc := range []struct {
		name   string
		blocks int
		want   int64 // 0: the cache must be off
	}{
		{"block cache", cacheBlocks, cacheBlocks * shards * 4096},
		{"no block cache", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := BuildSharded(data, 64, ShardOptions{Shards: shards, CacheBlocks: tc.blocks})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := ix.Serve(ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var bytes int64
			for pass := 0; pass < 2; pass++ {
				for lo := uint32(0); lo < 56; lo++ {
					res, err := srv.Query(context.Background(), lo, lo+7)
					if err != nil {
						t.Fatal(err)
					}
					bytes += int64(res.Result.SizeBits()) / 8
				}
			}
			st := srv.Stats()
			if tc.want == 0 {
				if st.CacheHits != 0 || st.CacheEntries != 0 {
					t.Fatalf("cache is on: %d hits, %d entries", st.CacheHits, st.CacheEntries)
				}
				return
			}
			// 112 answers of far more than the budget in all went through, so
			// the budget bound: answers were evicted or declined.
			if bytes < 4*tc.want {
				t.Fatalf("test too small: %d answer bytes against a budget of %d", bytes, tc.want)
			}
			if st.CacheEntries == 0 || st.CacheEvictions+st.CacheDeclined == 0 || st.CacheBytes > tc.want || st.CacheBytes < tc.want/2 {
				t.Fatalf("budget %d: %d entries, %d bytes, %d evictions, %d declined", tc.want, st.CacheEntries, st.CacheBytes, st.CacheEvictions, st.CacheDeclined)
			}
		})
	}
}

// TestServeCachedResultConcurrentReaders: the callers that hit one entry
// share its bitmap, whose skip samples are built lazily on the first point
// query. Eight goroutines reading it at once must agree with the oracle
// (run under -race: the lazy build sits behind a sync.Once).
func TestServeCachedResultConcurrentReaders(t *testing.T) {
	data := randColumn(40000, 64, 9)
	ix, err := BuildSharded(data, 64, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serveBudget(ix, ServerConfig{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first, err := srv.Query(context.Background(), 8, 23)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Result.Rows() // Positions: decodes the stream, builds no samples
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := srv.Query(context.Background(), 8, 23)
			if err != nil || res.Trigger != "cache" {
				t.Errorf("reader %d: err=%v res=%+v", g, err, res)
				return
			}
			for i := g; i < len(want); i += 97 {
				if !res.Result.Contains(want[i]) || res.Result.Contains(want[i]+1) != (i+1 < len(want) && want[i+1] == want[i]+1) {
					t.Errorf("reader %d: Contains disagrees at row %d", g, want[i])
				}
				if r := res.Result.bm.Rank(want[i]); r != int64(i) {
					t.Errorf("reader %d: Rank(%d) = %d, want %d", g, want[i], r, i)
				}
			}
			i := 0
			for it := res.Result.bm.Iter(); ; i++ {
				p, ok := it.Next()
				if !ok {
					break
				}
				if p != want[i] {
					t.Errorf("reader %d: row %d is %d, want %d", g, i, p, want[i])
					return
				}
			}
			if i != len(want) {
				t.Errorf("reader %d: iterated %d rows of %d", g, i, len(want))
			}
		}()
	}
	wg.Wait()
}
