package secidx

import (
	"context"
	"sync"
	"time"

	"repro/internal/serve"
)

// Errors the serving layer returns. They are comparable with errors.Is.
var (
	// ErrOverloaded is the admission controller's shed: the server's intake
	// queue is at capacity and the request was rejected immediately rather
	// than queued without bound.
	ErrOverloaded = serve.ErrOverloaded
	// ErrServerClosed is returned by queries submitted after Close.
	ErrServerClosed = serve.ErrClosed
	// ErrNoHealthyShards is returned while every shard's circuit breaker is
	// open: with no healthy shard left to degrade to, requests fail fast
	// until a cooldown probe heals one.
	ErrNoHealthyShards = serve.ErrNoShards
)

// ServerConfig tunes the serving layer. The zero value is usable: every
// field defaults sensibly.
type ServerConfig struct {
	// MaxQueue bounds admitted-but-not-executing requests; beyond it the
	// server sheds with ErrOverloaded (default 256).
	MaxQueue int
	// MaxBatch seals the forming micro-batch at this many distinct ranges
	// (default 32). Batch forming is work-conserving: a free executor takes
	// the forming batch the moment the intake queue is empty (trigger
	// "idle"), so a batch only grows — and the triggers below only fire —
	// while every executor is busy.
	MaxBatch int
	// MaxTotal seals at this many total members — duplicates and overlaps
	// included — letting overlap-heavy traffic bank extra sharing past
	// MaxBatch (default 4×MaxBatch).
	MaxTotal int
	// MaxWait seals a batch the busy executors have not taken for this long,
	// bounding how far it grows behind a slow batch (default 500µs).
	MaxWait time.Duration
	// FlushSlack seals the batch as soon as a member's remaining deadline
	// budget drops this low (default 2×MaxWait).
	FlushSlack time.Duration
	// MinBudget rejects requests at admission when their remaining deadline
	// budget is at or below it (default FlushSlack/2).
	MinBudget time.Duration
	// Workers bounds concurrently executing batches (default
	// runtime.GOMAXPROCS(0); it was the constant 2, the same number on the
	// 2-core machines every committed figure comes from).
	Workers int
	// Retry is the per-shard transient-fault retry policy.
	Retry RetryPolicy
	// AllowPartial opts into degraded answers when shards fail, and is
	// required for the circuit breakers to act.
	AllowPartial bool
	// BreakerThreshold is the consecutive-failure count that opens a shard's
	// circuit breaker (default 5); BreakerCooldown is how long an open
	// breaker rejects before probing (default 100ms). DisableBreakers turns
	// the bank off.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	DisableBreakers  bool
}

func (c ServerConfig) toInternal() serve.Config {
	return serve.Config{
		MaxQueue:     c.MaxQueue,
		MaxBatch:     c.MaxBatch,
		MaxTotal:     c.MaxTotal,
		MaxWait:      c.MaxWait,
		FlushSlack:   c.FlushSlack,
		MinBudget:    c.MinBudget,
		Workers:      c.Workers,
		Retry:        c.Retry,
		AllowPartial: c.AllowPartial,
		Breaker: serve.BreakerConfig{
			Threshold: c.BreakerThreshold,
			Cooldown:  c.BreakerCooldown,
			Disabled:  c.DisableBreakers,
		},
	}
}

// ServerStats is a point-in-time snapshot of a Server's metrics; all
// counters are cumulative since the server started. It reports admission
// (Admitted, Shed, Expired), completion (Completed, Degraded, Failed),
// batching (Batches and one Flush* count per trigger, FlushIdle included;
// they sum to Batches), the answer cache (CacheHits — completions that were
// never admitted, so Completed = backend-answered + CacheHits —
// CacheEvictions, CacheDeclined, CacheEntries, CacheBytes), the intake queue's
// depth and high-water mark, batch-level backend I/O (Reads, SharedSaved,
// FailedReads, RetriedReads), per-shard breaker state and transition counts,
// and the end-to-end latency distribution of completed requests.
type ServerStats = serve.Stats

// ServedResult is the serving layer's answer to one query: the result plus
// how it was served — the batch it rode in, what flushed that batch, and how
// long it queued.
type ServedResult struct {
	// Result is the row set (nil when Err is non-nil).
	Result *Result
	// Stats is the I/O cost of the whole serving batch (shared across its
	// members, as in QueryBatch).
	Stats Stats
	// Report names shards missing from a degraded answer: faulted shards
	// and circuit-broken ones.
	Report []ShardError
	// BatchSize is the serving batch's member count; Trigger names the
	// flush trigger that released it (idle, size, overlap, deadline, wait,
	// close). An answer from the answer cache rode in no batch: Trigger is
	// "cache" and BatchSize, Stats, Wait and Service are zero.
	BatchSize int
	Trigger   string
	// Wait is time spent queued; Service the batch's execution time.
	Wait, Service time.Duration
	// Err is the per-request failure, if any (ErrOverloaded,
	// ErrServerClosed, ErrNoHealthyShards, a context error, or a device
	// fault that exhausted retries).
	Err error
}

func fromResponse(r serve.Response) *ServedResult {
	// One allocation holds the pair: it is all a cache hit costs.
	a := &struct {
		sr  ServedResult
		res Result
	}{sr: ServedResult{
		Stats:     r.Stats,
		Report:    r.Report,
		BatchSize: r.BatchSize,
		Trigger:   r.Trigger,
		Wait:      r.Wait,
		Service:   r.Service,
		Err:       r.Err,
	}}
	if r.Err == nil {
		a.res.bm = r.Bm
		a.sr.Result = &a.res
	}
	return &a.sr
}

// Server fronts an index with the overload-safe serving layer: bounded
// admission (shed, never block), adaptive micro-batching into the
// shared-scan planner, per-shard circuit breakers, and serving metrics. See
// ShardedIndex.Serve and Index.Serve.
//
// In front of admission it keeps a cache of complete answers (the handle is
// immutable, so one never goes stale; degraded, failed and cancelled answers
// are never kept). When the cache is full, an answer is admitted only if its
// range was asked for more often than each least recently used entry it
// would evict; otherwise it is declined (ServerStats.CacheDeclined), so
// ranges asked once do not push out hot ones. Its byte budget is what the
// handle's block cache holds — CacheBlocks × block bytes × shards — so a
// server over a cached handle retains up to twice the memory CacheBlocks
// asked for, and one over a handle without a block cache has no answer cache
// either. On traffic that never repeats a range the cache cannot hit; once
// full it stops admitting (hypotheses/answer-admission/FINDINGS.md).
type Server struct {
	s *serve.Server
}

// Serve starts a server over the index. Close releases it. An unsharded
// Index is served as a single shard: the same admission control and
// micro-batching, with retries applying batch-wide and a circuit breaker
// that can still fail fast while the device is down.
func (ix *static) Serve(cfg ServerConfig) (*Server, error) {
	c := cfg.toInternal()
	c.AnswerCacheBytes = ix.sx.CacheBytes()
	s, err := serve.NewServer(serve.ShardBackend{Ix: ix.sx}, c)
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

// Query submits one range query and blocks until it is answered, shed, or
// ctx is done (a query cancelled before its batch starts is dropped from the
// batch and costs no reads). Admission never blocks: an overloaded server fails fast with
// ErrOverloaded, and a request whose deadline budget is already hopeless is
// rejected with context.DeadlineExceeded without queuing.
func (s *Server) Query(ctx context.Context, lo, hi uint32) (*ServedResult, error) {
	r := fromResponse(s.s.Submit(ctx, lo, hi))
	if r.Err != nil {
		return nil, r.Err
	}
	return r, nil
}

// QueryBatch submits every range concurrently — each is one arrival, so the
// batcher may group them with each other and with unrelated traffic — and
// waits for all. out[i] answers ranges[i]; per-request failures are in each
// ServedResult.Err.
func (s *Server) QueryBatch(ctx context.Context, ranges []Range) []*ServedResult {
	out := make([]*ServedResult, len(ranges))
	var wg sync.WaitGroup
	for i, rg := range ranges {
		wg.Add(1)
		go func(i int, rg Range) {
			defer wg.Done()
			out[i] = fromResponse(s.s.Submit(ctx, rg.Lo, rg.Hi))
		}(i, rg)
	}
	wg.Wait()
	return out
}

// Stats snapshots the serving metrics.
func (s *Server) Stats() ServerStats { return s.s.Stats() }

// Close stops admission, answers every already-admitted request, and waits
// for the executors to drain. Idempotent; queries after Close return
// ErrServerClosed.
func (s *Server) Close() error { return s.s.Close() }
