package serve

import (
	"container/list"
	"sync"

	"repro/internal/cbitmap"
	"repro/internal/index"
)

// answerCache is a byte-budgeted LRU of complete answers, keyed by range. A
// Server fronts immutable indexes only, so an entry never goes stale; what may
// enter is the caller's decision (deliver: fault-free, non-degraded answers of
// live requests). Bitmaps are immutable, so the callers that hit one entry
// share it. A nil cache is the disabled one: it misses and retains nothing.
type answerCache struct {
	budget int64

	mu        sync.Mutex
	entries   map[index.Range]*list.Element // of *answer
	lru       list.List                     // front = most recently used
	bytes     int64
	hits      uint64
	evictions uint64
}

type answer struct {
	rng  index.Range
	bm   *cbitmap.Bitmap
	cost int64
}

// newAnswerCache returns a cache of budget bytes, nil unless it is positive.
func newAnswerCache(budget int64) *answerCache {
	if budget <= 0 {
		return nil
	}
	return &answerCache{budget: budget, entries: make(map[index.Range]*list.Element)}
}

// answerCost is what an entry is charged: the heap its bitmap retains (the
// stream buffer at its capacity, the skip samples at their bound — they may
// be built lazily, after admission) and 192 bytes for the map slot, list
// element and Bitmap header.
func answerCost(bm *cbitmap.Bitmap) int64 { return bm.FootprintBytes() + 192 }

// get returns the cached answer to r and marks it most recently used.
func (c *answerCache) get(r index.Range) (*cbitmap.Bitmap, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[r]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e)
	c.hits++
	return e.Value.(*answer).bm, true
}

// put retains bm as the answer to r, evicting from the cold end until the
// budget holds. An answer larger than the whole budget is not admitted; one
// already present only has its recency refreshed.
func (c *answerCache) put(r index.Range, bm *cbitmap.Bitmap) {
	if c == nil || bm == nil {
		return
	}
	cost := answerCost(bm)
	if cost > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[r]; ok {
		c.lru.MoveToFront(e)
		return
	}
	for c.bytes+cost > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*answer)
		delete(c.entries, old.rng)
		c.bytes -= old.cost
		c.evictions++
	}
	c.entries[r] = c.lru.PushFront(&answer{rng: r, bm: bm, cost: cost})
	c.bytes += cost
}

// fill copies the cache's counters into st.
func (c *answerCache) fill(st *Stats) {
	if c != nil {
		c.mu.Lock()
		st.CacheHits, st.CacheEvictions, st.CacheEntries, st.CacheBytes = c.hits, c.evictions, len(c.entries), c.bytes
		c.mu.Unlock()
	}
}
