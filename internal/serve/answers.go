package serve

import (
	"container/list"
	"sync"

	"repro/internal/cbitmap"
	"repro/internal/index"
)

// The aging window: every count is halved once the counts sum to
// max(minWindow, windowPerEntry × entries held).
const (
	minWindow      = 2048
	windowPerEntry = 8
)

// answerCache holds complete answers, keyed by range, within a byte budget,
// and admits by frequency (TinyLFU's rule: Einziger, Friedman & Manes, ACM
// TOS 2017). Every request is a sighting of its range: a hit adds it to the
// entry's count, a miss to a table of ranges not held. An answer that fits
// beside the entries is admitted; one that does not is admitted only if every
// entry it would displace, taken from the least recently used end, has a
// strictly lower count than its range has sightings — otherwise it is
// declined and nothing is evicted. So a range asked once cannot push out one
// asked twice, and on traffic that never repeats a full cache stops
// churning. Counts age (see age), which lets a new hot set in and bounds the
// table.
//
// A Server fronts immutable indexes only, so an entry never goes stale; what
// may be offered is the caller's decision (deliver: fault-free, non-degraded
// answers of live requests). Bitmaps are immutable, so the callers that hit
// one entry share it. A nil cache is the disabled one: it misses and retains
// nothing.
type answerCache struct {
	budget int64

	mu      sync.Mutex
	entries map[index.Range]*list.Element // of *answer
	lru     list.List                     // front = most recently used
	bytes   int64
	seen    map[index.Range]int // sightings of ranges not held
	counted int                 // Σ counts in seen and entries: the aging clock

	hits, evictions, declined uint64
}

type answer struct {
	rng   index.Range
	bm    *cbitmap.Bitmap
	cost  int64
	count int // sightings before admission, plus one per hit since
}

// newAnswerCache returns a cache of budget bytes, nil unless it is positive.
func newAnswerCache(budget int64) *answerCache {
	if budget <= 0 {
		return nil
	}
	return &answerCache{budget: budget, entries: make(map[index.Range]*list.Element), seen: make(map[index.Range]int)}
}

// answerCost is what an entry is charged: the heap its bitmap retains (the
// stream buffer at its capacity, the skip samples at their bound — they may
// be built lazily, after admission) and 192 bytes for the map slot, list
// element and Bitmap header.
func answerCost(bm *cbitmap.Bitmap) int64 { return bm.FootprintBytes() + 192 }

// get returns the cached answer to r and marks it most recently used. Hit or
// miss, it counts a sighting of r.
func (c *answerCache) get(r index.Range) (*cbitmap.Bitmap, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.counted >= c.window() {
		c.age()
	}
	c.counted++
	e, ok := c.entries[r]
	if !ok {
		c.seen[r]++
		return nil, false
	}
	c.lru.MoveToFront(e)
	c.hits++
	a := e.Value.(*answer)
	a.count++
	return a.bm, true
}

// put offers bm as the answer to r: admitted if it fits, or if every entry it
// would evict has been sighted strictly less often than r; declined
// otherwise. An answer larger than the whole budget is not admitted; one
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
	count := c.seen[r]
	need := c.bytes + cost - c.budget
	for e := c.lru.Back(); need > 0; e = e.Prev() {
		a := e.Value.(*answer)
		if a.count >= count {
			c.declined++
			return
		}
		need -= a.cost
	}
	for c.bytes+cost > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*answer)
		delete(c.entries, old.rng)
		c.bytes -= old.cost
		c.counted -= old.count
		c.evictions++
	}
	delete(c.seen, r)
	c.entries[r] = c.lru.PushFront(&answer{rng: r, bm: bm, cost: cost, count: count})
	c.bytes += cost
}

// window is the sum of counts at which they are halved.
func (c *answerCache) window() int { return max(minWindow, windowPerEntry*len(c.entries)) }

// age halves every count. A sighting halved to nothing leaves the table, so
// the table holds at most counted ranges, and get leaves counted at most
// window(). An entry's count rounds up: a held answer never counts for less
// than a range sighted once, so a one-off cannot displace it.
func (c *answerCache) age() {
	c.counted = 0
	for r, n := range c.seen {
		if n /= 2; n == 0 {
			delete(c.seen, r)
		} else {
			c.seen[r] = n
			c.counted += n
		}
	}
	for e := c.lru.Front(); e != nil; e = e.Next() {
		a := e.Value.(*answer)
		a.count -= a.count / 2
		c.counted += a.count
	}
}

// fill copies the cache's counters into st.
func (c *answerCache) fill(st *Stats) {
	if c != nil {
		c.mu.Lock()
		st.CacheHits, st.CacheEvictions, st.CacheDeclined = c.hits, c.evictions, c.declined
		st.CacheEntries, st.CacheBytes = len(c.entries), c.bytes
		c.mu.Unlock()
	}
}
