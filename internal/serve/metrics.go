package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latHist is a lock-free log₂-bucketed latency histogram: bucket i counts
// observations with ⌊log₂ ns⌋ = i, sub-divided 8 ways for ~9% quantile
// resolution. Quantile reads are approximate (bucket upper bound) but
// monotone and cheap, which is all a p99/p999 serving metric needs.
type latHist struct {
	buckets [64 * 8]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

func (h *latHist) bucket(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	exp := 63 - bits.LeadingZeros64(uint64(ns))
	sub := 0
	if exp >= 3 {
		sub = int((uint64(ns) >> uint(exp-3)) & 7) // top-3 mantissa bits
	}
	i := exp*8 + sub
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	return i
}

func (h *latHist) observe(d time.Duration) {
	ns := int64(d)
	h.buckets[h.bucket(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			return
		}
	}
}

// quantile returns an upper bound of the q-quantile (0 < q ≤ 1) of the
// observed latencies, or 0 with no observations.
func (h *latHist) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			exp := i / 8
			sub := i % 8
			// Upper bound of the bucket: (1 + (sub+1)/8) · 2^exp, clamped to max.
			ub := int64(1)<<uint(exp) + int64(sub+1)<<uint(exp)/8
			if m := h.max.Load(); ub > m {
				ub = m
			}
			return time.Duration(ub)
		}
	}
	return time.Duration(h.max.Load())
}

// mean returns the average observed latency.
func (h *latHist) mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Stats is a point-in-time snapshot of the server's serving metrics. All
// counters are cumulative since the server started.
type Stats struct {
	// Admission.
	Admitted uint64 // requests accepted into the queue
	Shed     uint64 // requests rejected with ErrOverloaded (queue full)
	Expired  uint64 // requests rejected at admission for hopeless deadlines
	// Completion. Completed = answered by the backend + CacheHits.
	Completed uint64 // requests answered (possibly degraded)
	Degraded  uint64 // answered requests missing ≥1 shard (breaker or fault)
	Failed    uint64 // requests that returned an error after admission
	// Batching. Batches is the sum of the six Flush* counts.
	Batches       uint64 // batches executed
	FlushIdle     uint64 // flushes taken by a free executor with intake empty
	FlushSize     uint64 // flushes triggered by distinct-range count
	FlushOverlap  uint64 // flushes triggered by total members (overlap-heavy)
	FlushWait     uint64 // flushes triggered by the oldest member's age
	FlushDeadline uint64 // flushes triggered by a member's deadline budget
	FlushClose    uint64 // flushes triggered by server shutdown
	// Answer cache (all zero without Config.AnswerCacheBytes).
	CacheHits      uint64 // requests answered from the cache, never admitted
	CacheEvictions uint64 // entries dropped to keep CacheBytes within budget
	CacheDeclined  uint64 // answers not admitted: each entry they would evict was asked for at least as often
	CacheEntries   int    // answers held now
	CacheBytes     int64  // their charged cost
	// Queue.
	QueueDepth int64 // current requests waiting to enter a batch
	QueueMax   int64 // high-water mark of QueueDepth
	// Backend I/O (batch-level, summed over batches).
	Reads        int64
	SharedSaved  int64
	FailedReads  int64
	RetriedReads int64
	// Breakers.
	BreakerOpen   []bool // per-shard: breaker currently open or half-open
	BreakerOpens  uint64
	BreakerProbes uint64
	BreakerCloses uint64
	// End-to-end latency of completed requests (queue wait + service).
	LatencyMean time.Duration
	LatencyP50  time.Duration
	LatencyP99  time.Duration
	LatencyP999 time.Duration
	LatencyMax  time.Duration
}

// metrics is the server's live counter bank; Stats is its snapshot.
type metrics struct {
	admitted, shed, expired     atomic.Uint64
	completed, degraded, failed atomic.Uint64
	batches                     atomic.Uint64
	flush                       [flushTriggers]atomic.Uint64
	depth, depthMax             atomic.Int64
	reads, sharedSaved          atomic.Int64
	failedReads, retriedReads   atomic.Int64
	lat                         latHist
}

// bumpDepthMax folds the current queue depth into the high-water mark.
func (m *metrics) bumpDepthMax() {
	d := m.depth.Load()
	for {
		hw := m.depthMax.Load()
		if d <= hw || m.depthMax.CompareAndSwap(hw, d) {
			return
		}
	}
}

func (m *metrics) snapshot(br *breakers) Stats {
	st := Stats{
		Admitted:     m.admitted.Load(),
		Shed:         m.shed.Load(),
		Expired:      m.expired.Load(),
		Completed:    m.completed.Load(),
		Degraded:     m.degraded.Load(),
		Failed:       m.failed.Load(),
		Batches:      m.batches.Load(),
		QueueDepth:   m.depth.Load(),
		QueueMax:     m.depthMax.Load(),
		Reads:        m.reads.Load(),
		SharedSaved:  m.sharedSaved.Load(),
		FailedReads:  m.failedReads.Load(),
		RetriedReads: m.retriedReads.Load(),
		LatencyMean:  m.lat.mean(),
		LatencyP50:   m.lat.quantile(0.50),
		LatencyP99:   m.lat.quantile(0.99),
		LatencyP999:  m.lat.quantile(0.999),
		LatencyMax:   time.Duration(m.lat.max.Load()),
	}
	st.FlushIdle = m.flush[flushIdle].Load()
	st.FlushSize = m.flush[flushSize].Load()
	st.FlushOverlap = m.flush[flushOverlap].Load()
	st.FlushWait = m.flush[flushWait].Load()
	st.FlushDeadline = m.flush[flushDeadline].Load()
	st.FlushClose = m.flush[flushClose].Load()
	st.BreakerOpen, st.BreakerOpens, st.BreakerProbes, st.BreakerCloses = br.snapshot()
	return st
}
