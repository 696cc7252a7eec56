package serve

import (
	"context"
	"errors"
	"math/rand"
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

// cacheModel is FuzzAnswerCache's model of the admission policy: held ranges
// with their cost and count in recency order, the sightings of ranges not
// held, and the sum of all counts that drives aging.
type cacheModel struct {
	budget                    int64
	order                     []index.Range // most recent first
	cost, count, seen         map[index.Range]int64
	counted                   int64
	bytes                     int64
	hits, evictions, declined uint64
}

func (m *cacheModel) touch(r index.Range) {
	m.order = slices.Insert(slices.DeleteFunc(m.order, func(o index.Range) bool { return o == r }), 0, r)
}

func (m *cacheModel) get(r index.Range) bool {
	if m.counted >= max(minWindow, windowPerEntry*int64(len(m.order))) {
		m.counted = 0
		for k, n := range m.seen {
			m.seen[k] = n / 2
			if n/2 == 0 {
				delete(m.seen, k)
			}
			m.counted += n / 2
		}
		for k, n := range m.count {
			m.count[k] = (n + 1) / 2
			m.counted += (n + 1) / 2
		}
	}
	m.counted++
	if _, ok := m.count[r]; !ok {
		m.seen[r]++
		return false
	}
	m.count[r]++
	m.hits++
	m.touch(r)
	return true
}

func (m *cacheModel) put(r index.Range, cost int64) {
	if _, held := m.count[r]; held {
		m.touch(r)
		return
	}
	if cost > m.budget {
		return
	}
	n := len(m.order) // the entries from n on are evicted
	for free := m.budget - m.bytes; free < cost; {
		n--
		if m.count[m.order[n]] >= m.seen[r] {
			m.declined++
			return
		}
		free += m.cost[m.order[n]]
	}
	for _, old := range m.order[n:] {
		m.bytes -= m.cost[old]
		m.counted -= m.count[old]
		delete(m.cost, old)
		delete(m.count, old)
		m.evictions++
	}
	m.order = m.order[:n]
	m.cost[r], m.count[r] = cost, m.seen[r]
	delete(m.seen, r)
	m.bytes += cost
	m.touch(r)
}

// FuzzAnswerCache drives the cache with a byte-coded script of gets and puts
// and checks it against cacheModel: every get hits or misses as the model
// says and returns the bitmap that was put, every count, sighting and
// counter agrees, the budget is never exceeded, an admission evicts only
// entries with a strictly lower count than the candidate's sightings, and the
// sighting table never holds more ranges than the aging window.
func FuzzAnswerCache(f *testing.F) {
	f.Add(uint16(900), []byte{0x80, 0x81, 0x00, 0x82, 0x83, 0x01, 0x84, 0x80, 0x05})
	f.Add(uint16(250), []byte{0x87, 0x07, 0x80, 0x00})
	f.Add(uint16(0), []byte{0x80, 0x00})
	// Fill, then a range sighted twice displaces one sighted once, and a
	// range sighted once is declined.
	f.Add(uint16(700), []byte{0x00, 0x80, 0x01, 0x81, 0x02, 0x82, 0x09, 0x09, 0x89, 0x01, 0x0c, 0x8c})
	// Bursts past the aging window, then a one-off against the aged entries.
	burst := []byte{0x00, 0x80, 0x01, 0x81}
	for i := 0; i < 40; i++ {
		burst = append(burst, 0x40|byte(i%3))
	}
	f.Add(uint16(500), append(burst, 0x0a, 0x8a, 0x0b, 0x0b, 0x8b))
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
		if budget == 0 {
			if c != nil {
				t.Fatal("a zero budget built a cache")
			}
			for _, op := range script {
				r := index.Range{Lo: uint32(op & 0x3f), Hi: uint32(op&0x3f) + 16}
				c.put(r, bms[op&7])
				if _, ok := c.get(r); ok {
					t.Fatal("the disabled cache hit")
				}
			}
			return
		}
		m := &cacheModel{budget: int64(budget), cost: map[index.Range]int64{}, count: map[index.Range]int64{}, seen: map[index.Range]int64{}}
		for _, op := range script {
			// Low six bits: the key, which also picks the answer; top bit: put;
			// bit 6 of a get: 64 of them, to reach the aging window.
			r := index.Range{Lo: uint32(op & 0x3f), Hi: uint32(op&0x3f) + 16}
			bm := bms[op&7]
			if op&0x80 == 0 {
				for i := 0; i < 1+63*int(op>>6); i++ {
					got, ok := c.get(r)
					if want := m.get(r); ok != want {
						t.Fatalf("get %v: hit=%v, model says %v", r, ok, want)
					}
					if ok && got != bm {
						t.Fatalf("get %v returned another range's answer", r)
					}
					if len(c.seen) > c.window() {
						t.Fatalf("%d ranges sighted against a window of %d", len(c.seen), c.window())
					}
				}
			} else {
				before := map[index.Range]int{}
				for k, e := range c.entries {
					before[k] = e.Value.(*answer).count
				}
				sighted := c.seen[r]
				c.put(r, bm)
				m.put(r, answerCost(bm))
				for k, n := range before {
					if _, ok := c.entries[k]; !ok && n >= sighted {
						t.Fatalf("admitting %v (%d sightings) evicted %v with count %d", r, sighted, k, n)
					}
				}
			}
			var st Stats
			c.fill(&st)
			if st.CacheBytes > int64(budget) {
				t.Fatalf("%d bytes held against a budget of %d", st.CacheBytes, budget)
			}
			if st.CacheBytes != m.bytes || st.CacheEntries != len(m.order) || st.CacheHits != m.hits || st.CacheEvictions != m.evictions || st.CacheDeclined != m.declined {
				t.Fatalf("cache %d bytes / %d entries / %d hits / %d evictions / %d declined, model %d / %d / %d / %d / %d",
					st.CacheBytes, st.CacheEntries, st.CacheHits, st.CacheEvictions, st.CacheDeclined, m.bytes, len(m.order), m.hits, m.evictions, m.declined)
			}
			for k, n := range m.count {
				if e, ok := c.entries[k]; !ok || int64(e.Value.(*answer).count) != n {
					t.Fatalf("entry %v: held=%v, model count %d", k, ok, n)
				}
			}
			if len(c.seen) != len(m.seen) || int64(c.counted) != m.counted {
				t.Fatalf("%d ranges sighted, counted %d; model %d, %d", len(c.seen), c.counted, len(m.seen), m.counted)
			}
			for k, n := range m.seen {
				if int64(c.seen[k]) != n {
					t.Fatalf("%v sighted %d times, model %d", k, c.seen[k], n)
				}
			}
		}
	})
}

// TestAnswerCacheStopsChurning: on a list with no range twice, once the cache
// is full every further answer is declined — nothing is evicted and the held
// set stays the same — through several aging windows.
func TestAnswerCacheStopsChurning(t *testing.T) {
	c := newAnswerCache(64 << 10)
	var full []index.Range
	for i := uint32(0); i < 3*minWindow; i++ {
		r := index.Range{Lo: i, Hi: i + 16}
		if _, ok := c.get(r); ok {
			t.Fatalf("%v hit on its first sighting", r)
		}
		c.put(r, answerOf(r))
		if full == nil && c.declined > 0 {
			for k := range c.entries {
				full = append(full, k)
			}
		}
	}
	var st Stats
	c.fill(&st)
	if full == nil || st.CacheEvictions != 0 || st.CacheEntries != len(full) || st.CacheDeclined != uint64(3*minWindow-len(full)) {
		t.Fatalf("%d evictions, %d entries, %d declined; %d held when full", st.CacheEvictions, st.CacheEntries, st.CacheDeclined, len(full))
	}
	for _, k := range full {
		if _, ok := c.entries[k]; !ok {
			t.Fatalf("%v was held when the cache filled and is not now", k)
		}
	}
}

// TestAnswerCacheAdmitsShiftedHotSet: a zipf-skewed hot set of 64 ranges, 32
// of which fit, moves to 64 other ranges after a long first phase. Aging must
// let the new set in within two aging windows of the move: the requests of
// the third window hit within 0.04 of the first phase's steady rate.
func TestAnswerCacheAdmitsShiftedHotSet(t *testing.T) {
	c := newAnswerCache(32 * answerCost(answerOf(index.Range{Hi: 16})))
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, 63)
	// hitRate runs n requests on the hot set at base and returns the hit
	// rate of the last m.
	hitRate := func(base uint32, n, m int) float64 {
		hits := 0
		for i := 0; i < n; i++ {
			lo := base + uint32(zipf.Uint64())
			r := index.Range{Lo: lo, Hi: lo + 16}
			if _, ok := c.get(r); !ok {
				c.put(r, answerOf(r))
			} else if i >= n-m {
				hits++
			}
		}
		return float64(hits) / float64(m)
	}
	steady := hitRate(0, 40000, 5000)
	if after := hitRate(1000, 3*minWindow, minWindow); after < steady-0.04 {
		t.Fatalf("steady hit rate %.3f; two aging windows after the move %.3f", steady, after)
	}
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
