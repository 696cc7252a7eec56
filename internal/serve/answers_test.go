package serve

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/shard"
	"repro/internal/workload"
)

// answerOf is the bitmap bitmapStub answers a range with: a function of the
// range, so a served answer can be checked against the range it was asked for.
func answerOf(r index.Range) *cbitmap.Bitmap {
	return cbitmap.MustFromPositions(1<<20, []int64{int64(r.Lo), int64(r.Hi) + 1})
}

// bitmapStub is stubBackend answering with real bitmaps (the stub's own are
// nil, which the answer cache does not retain).
type bitmapStub struct{ *stubBackend }

func (b bitmapStub) QueryBatch(ctx context.Context, rs []index.Range, eo shard.ExecOptions) ([]*cbitmap.Bitmap, index.QueryStats, []shard.ShardError, error) {
	bms, st, report, err := b.stubBackend.QueryBatch(ctx, rs, eo)
	for i := range bms {
		bms[i] = answerOf(rs[i])
	}
	return bms, st, report, err
}

func sameAnswer(t *testing.T, r Response, lo, hi uint32) {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("[%d,%d]: %v", lo, hi, r.Err)
	}
	if want := answerOf(index.Range{Lo: lo, Hi: hi}); !slices.Equal(r.Bm.Positions(), want.Positions()) {
		t.Fatalf("[%d,%d] answered with %v", lo, hi, r.Bm.Positions())
	}
}

// FuzzAnswerCache drives the cache with a byte-coded script of gets and puts
// and checks it against a model that is a plain map, a recency-ordered key
// slice and the sum of the entries' costs: every get hits or misses as the
// model says and returns the bitmap that was put, the budget is never
// exceeded, an answer larger than the budget is never admitted, and a get
// after an eviction misses.
func FuzzAnswerCache(f *testing.F) {
	f.Add(uint16(900), []byte{0x80, 0x81, 0x00, 0x82, 0x83, 0x01, 0x84, 0x80, 0x05})
	f.Add(uint16(250), []byte{0x87, 0x07, 0x80, 0x00})
	f.Add(uint16(0), []byte{0x80, 0x00})
	// Eight answers of 2 … 1024 positions: costs from about 200 to about 2000.
	bms := make([]*cbitmap.Bitmap, 8)
	for i := range bms {
		pos := make([]int64, 2<<i)
		for j := range pos {
			pos[j] = int64(j) * 37
		}
		bms[i] = cbitmap.MustFromPositions(1<<20, pos)
	}
	f.Fuzz(func(t *testing.T, budget uint16, script []byte) {
		c := newAnswerCache(int64(budget))
		if budget == 0 && c != nil {
			t.Fatal("a zero budget built a cache")
		}
		var order []index.Range // model: most recent first
		model := map[index.Range]int64{}
		var sum int64
		var hits, evictions uint64
		touch := func(r index.Range) {
			order = slices.Insert(slices.DeleteFunc(order, func(o index.Range) bool { return o == r }), 0, r)
		}
		for _, op := range script {
			// Low bits: the key, which also picks the answer; top bit: put.
			r := index.Range{Lo: uint32(op & 0x3f), Hi: uint32(op&0x3f) + 16}
			bm := bms[op&7]
			if op&0x80 == 0 {
				got, ok := c.get(r)
				if _, want := model[r]; ok != want {
					t.Fatalf("get %v: hit=%v, model says %v", r, ok, want)
				}
				if ok {
					if got != bm {
						t.Fatalf("get %v returned another range's answer", r)
					}
					hits++
					touch(r)
				}
				continue
			}
			c.put(r, bm)
			cost := answerCost(bm)
			if _, held := model[r]; held {
				touch(r)
			} else if cost <= int64(budget) {
				for sum+cost > int64(budget) {
					old := order[len(order)-1]
					order = order[:len(order)-1]
					sum -= model[old]
					delete(model, old)
					evictions++
				}
				model[r] = cost
				sum += cost
				touch(r)
			}
			var st Stats
			c.fill(&st)
			if st.CacheBytes > int64(budget) {
				t.Fatalf("%d bytes held against a budget of %d", st.CacheBytes, budget)
			}
			if st.CacheBytes != sum || st.CacheEntries != len(model) || st.CacheHits != hits || st.CacheEvictions != evictions {
				t.Fatalf("cache %d bytes / %d entries / %d hits / %d evictions, model %d / %d / %d / %d",
					st.CacheBytes, st.CacheEntries, st.CacheHits, st.CacheEvictions, sum, len(model), hits, evictions)
			}
		}
	})
}

// TestServerCacheNeverHoldsDegraded: an answer missing a shard, a failed
// batch and the answer of a member whose caller went away while the batch ran
// are not retained; the next fault-free answer to the same range is, and the
// one after that is a hit.
func TestServerCacheNeverHoldsDegraded(t *testing.T) {
	be := &stubBackend{shards: 2, block: make(chan struct{}, 16)}
	s, err := NewServer(bitmapStub{be}, Config{Workers: 1, AllowPartial: true, Breaker: BreakerConfig{Disabled: true}, AnswerCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	held := func() int { return s.Stats().CacheEntries }

	be.setFail(1, errShardDown)
	be.block <- struct{}{}
	if r := s.Submit(ctx, 0, 16); r.Err != nil || len(r.Report) != 1 {
		t.Fatalf("degraded answer: err=%v report=%v", r.Err, r.Report)
	}
	be.setFail(0, errShardDown)
	be.block <- struct{}{}
	if r := s.Submit(ctx, 0, 16); !errors.Is(r.Err, errShardDown) {
		t.Fatalf("failed batch: err=%v", r.Err)
	}
	be.setFail(0, nil)
	be.setFail(1, nil)
	if held() != 0 {
		t.Fatal("a degraded or failed answer was retained")
	}

	// The caller leaves while the backend holds its batch.
	cctx, cancel := context.WithCancel(ctx)
	gone := make(chan Response)
	go func() { gone <- s.Submit(cctx, 0, 16) }()
	waitFor(t, "the batch to reach the backend", func() bool { calls, _, _ := be.stats(); return calls == 3 })
	cancel()
	if r := <-gone; !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("cancelled submit: err=%v", r.Err)
	}
	be.block <- struct{}{}
	waitFor(t, "the abandoned batch to complete", func() bool { return s.Stats().Completed == 2 })
	if held() != 0 {
		t.Fatal("a cancelled member's answer was retained")
	}

	be.block <- struct{}{}
	if r := s.Submit(ctx, 0, 16); r.Trigger == "cache" {
		t.Fatal("hit on a range no fault-free answer was ever given for")
	} else {
		sameAnswer(t, r, 0, 16)
	}
	if held() != 1 {
		t.Fatalf("fault-free answer not retained: %d entries", held())
	}
	r := s.Submit(ctx, 0, 16)
	sameAnswer(t, r, 0, 16)
	if r.Trigger != "cache" || r.BatchSize != 0 || r.Wait != 0 || r.Service != 0 || r.Stats != (index.QueryStats{}) {
		t.Fatalf("hit carries batch metadata: %+v", r)
	}
	if calls, _, _ := be.stats(); calls != 4 {
		t.Fatalf("%d backend calls, want 4: the hit reached the backend", calls)
	}
}

// TestServerCacheHitBypassesQueue: with the backend held and the queue full,
// a cached range is still answered and an uncached one is shed; hits count in
// Completed and CacheHits, not in Admitted, and open no batch. After Close a
// cached range gets ErrClosed like any other.
func TestServerCacheHitBypassesQueue(t *testing.T) {
	be := &stubBackend{shards: 1, block: make(chan struct{}, 1)}
	const maxQueue = 2
	s, err := NewServer(bitmapStub{be}, Config{MaxQueue: maxQueue, MaxBatch: 1, Workers: 1, AnswerCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	be.block <- struct{}{}
	sameAnswer(t, s.Submit(ctx, 100, 116), 100, 116) // the miss that fills the cache

	// One request in the backend, maxQueue behind it.
	resps := make(chan Response, 1+maxQueue)
	for i := uint32(0); i < 1+maxQueue; i++ {
		go func() { resps <- s.Submit(ctx, i, i+16) }()
		waitFor(t, "admission", func() bool { return s.Stats().Admitted == uint64(2+i) })
		if i == 0 {
			waitFor(t, "the executor to take the first", func() bool { return s.Stats().QueueDepth == 0 })
		}
	}
	if r := s.Submit(ctx, 50, 66); !errors.Is(r.Err, ErrOverloaded) {
		t.Fatalf("uncached range on a full queue: err=%v, want ErrOverloaded", r.Err)
	}
	const hits = 5
	for i := 0; i < hits; i++ {
		r := s.Submit(ctx, 100, 116)
		sameAnswer(t, r, 100, 116)
		if r.Trigger != "cache" {
			t.Fatalf("cached range on a full queue served by %q", r.Trigger)
		}
	}
	// A caller that has already given up is not answered from the cache.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if r := s.Submit(cctx, 100, 116); r.Err == nil {
		t.Fatal("cancelled caller answered")
	}

	close(be.block)
	for i := 0; i < 1+maxQueue; i++ {
		if r := <-resps; r.Err != nil {
			t.Fatalf("held request: %v", r.Err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheHits != hits || st.Admitted != 2+maxQueue || st.Shed != 2 || st.Completed != st.Admitted+st.CacheHits || st.Failed != 0 {
		t.Fatalf("hits=%d admitted=%d shed=%d completed=%d failed=%d, want %d/%d/2/%d/0",
			st.CacheHits, st.Admitted, st.Shed, st.Completed, st.Failed, hits, 2+maxQueue, 2+maxQueue+hits)
	}
	if st.Batches != st.Admitted || flushSum(st) != st.Batches {
		t.Fatalf("%d batches (flush sum %d) for %d admitted singletons: a hit opened a batch", st.Batches, flushSum(st), st.Admitted)
	}
	if st.CacheEntries != 2+maxQueue || st.CacheBytes <= 0 || st.CacheBytes > 1<<20 {
		t.Fatalf("cache holds %d entries, %d bytes", st.CacheEntries, st.CacheBytes)
	}
	if r := s.Submit(ctx, 100, 116); !errors.Is(r.Err, ErrClosed) {
		t.Fatalf("cached range after Close: err=%v, want ErrClosed", r.Err)
	}
}

// TestSimulateAnswerCache: the simulator fronts admission with the same
// cache. Under a load that sheds without it, the cached run answers the hot
// ranges at their arrival instant: hits are completions that were never
// admitted, every served answer equals the uncached run's answer to the same
// range, and the run stays deterministic.
func TestSimulateAnswerCache(t *testing.T) {
	ref, _ := simPair(t, 6000, 64, 4, iomodel.FaultConfig{})
	cfg := Config{MaxQueue: 64, MaxBatch: 8, MaxWait: 300 * time.Microsecond, Workers: 2}
	arrivals := workload.PoissonArrivals(4000, 60000, workload.ArrivalSpec{Sigma: 64, RangeLen: 8, Theta: 0.9}, 21)
	off := Simulate(ShardBackend{Ix: ref}, nil, arrivals, saturatingSim(cfg))
	cfg.AnswerCacheBytes = 1 << 20
	on := Simulate(ShardBackend{Ix: ref}, nil, arrivals, saturatingSim(cfg))
	again := Simulate(ShardBackend{Ix: ref}, nil, arrivals, saturatingSim(cfg))

	if off.Stats.CacheHits != 0 || off.Stats.Shed == 0 {
		t.Fatalf("uncached run: %d hits, %d shed", off.Stats.CacheHits, off.Stats.Shed)
	}
	st := on.Stats
	if st.CacheHits == 0 || st.Completed != st.Admitted+st.CacheHits || st.Admitted+st.Shed+st.CacheHits != uint64(len(arrivals)) {
		t.Fatalf("hits=%d admitted=%d shed=%d completed=%d of %d arrivals", st.CacheHits, st.Admitted, st.Shed, st.Completed, len(arrivals))
	}
	if st.Completed <= off.Stats.Completed || st.Batches >= off.Stats.Batches {
		t.Fatalf("cache on: %d completed in %d batches; off: %d in %d", st.Completed, st.Batches, off.Stats.Completed, off.Stats.Batches)
	}
	if !reflect.DeepEqual(on.Stats, again.Stats) {
		t.Fatalf("stats differ across identical cached runs:\n%+v\n%+v", on.Stats, again.Stats)
	}
	answers := map[index.Range][]int64{}
	for i, o := range off.Outcomes {
		if o.Err == nil {
			answers[indexRange(arrivals[i])] = o.Bm.Positions()
		}
	}
	var hits uint64
	for i, o := range on.Outcomes {
		if want, ok := answers[indexRange(arrivals[i])]; o.Err == nil && ok && !slices.Equal(o.Bm.Positions(), want) {
			t.Fatalf("arrival %d: cached run's answer differs from the uncached run's", i)
		}
		// A hit looks as Server.Submit's does: trigger "cache", no batch, no wait.
		if o.Trigger == "cache" {
			hits++
			if o.Batch != 0 || o.Latency != 0 || o.Bm == nil || o.Degraded {
				t.Fatalf("arrival %d: hit with %+v", i, o)
			}
		} else if o.Err == nil && (o.Batch == 0 || o.Trigger == "") {
			t.Fatalf("arrival %d: served by no batch and no cache: %+v", i, o)
		}
	}
	if hits != st.CacheHits {
		t.Fatalf("%d outcomes with trigger cache, %d CacheHits", hits, st.CacheHits)
	}
}
