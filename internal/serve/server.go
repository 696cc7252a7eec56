// Package serve is the overload-safe serving layer in front of the query
// engine: it accepts concurrent open-loop query arrivals, admission-controls
// them through a bounded queue (shedding with ErrOverloaded instead of ever
// blocking the caller or growing without bound), forms work-conserving
// micro-batches for the shared-scan batch planner — a free executor takes the
// forming batch at once, busy ones let it grow until a size, overlap, age or
// deadline-budget trigger seals it — and layers per-shard circuit breakers
// over the shard layer's retry/degrade machinery so a persistently failing
// shard stops costing every request its retry budget. In front of admission,
// and outside that policy, an optional byte-budgeted answer cache answers the
// ranges already answered fault-free (answers.go): the backend is immutable,
// and an answer is admitted only over entries asked for less often.
//
// The policy core (admission bound, flush triggers, breaker state machine) is
// clock-parameterised and shared between two drivers: Server runs it for real
// on goroutines and wall clocks, and Simulate runs the identical policy in a
// deterministic discrete-event simulation under a virtual clock — the
// inference-sim idiom of checking scheduler invariants and performance-regime
// hypotheses against a simulator before trusting them in production.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/shard"
)

// ErrOverloaded is the admission controller's shed error: the intake queue
// is at capacity, so the request is rejected immediately — the open-loop
// arrival process will not slow down, and queueing deeper would only convert
// overload into unbounded memory growth and metastable collapse.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrNoShards is returned when every shard's circuit breaker is open: there
// is no healthy backend left to degrade to, so requests fail fast until a
// cooldown elapses and a probe heals a shard.
var ErrNoShards = errors.New("serve: every shard's circuit breaker is open")

// Backend is the query engine the server fronts: the sharded index (via
// ShardBackend) or any single-device index wrapped to the same contract.
// QueryBatch must answer rs[i] in out[i], honour ctx, and degrade per
// shard.ExecOptions.
type Backend interface {
	// Shards returns the number of independently failing units the breaker
	// bank tracks (1 for an unsharded device).
	Shards() int
	QueryBatch(ctx context.Context, rs []index.Range, eo shard.ExecOptions) ([]*cbitmap.Bitmap, index.QueryStats, []shard.ShardError, error)
}

// ShardBackend adapts shard.Index to the Backend contract.
type ShardBackend struct{ Ix *shard.Index }

func (b ShardBackend) Shards() int { return b.Ix.Shards() }

func (b ShardBackend) QueryBatch(ctx context.Context, rs []index.Range, eo shard.ExecOptions) ([]*cbitmap.Bitmap, index.QueryStats, []shard.ShardError, error) {
	return b.Ix.QueryBatchExec(ctx, rs, eo)
}

// Config tunes the serving policy. The zero value is usable: every field
// has a default.
type Config struct {
	// MaxQueue bounds the requests admitted but not yet executing (the
	// intake queue plus the forming batch). Admission beyond it sheds with
	// ErrOverloaded (default 256).
	MaxQueue int
	// MaxBatch is the size flush trigger: a batch is sealed when it holds
	// this many distinct ranges (default 32, the shared-scan planner's sweet
	// spot). A sealed batch takes no more members; it runs on the next free
	// executor, and arrivals wait in the intake queue until it does.
	MaxBatch int
	// MaxTotal is the overlap flush trigger: duplicate and overlapping
	// arrivals do not add distinct planner work, so they ride along past
	// MaxBatch — up to this many total members, at which point the batch has
	// banked enough sharing and executes (default 4×MaxBatch).
	MaxTotal int
	// MaxWait is the age flush trigger. It only matters while every executor
	// is busy (a free one takes the forming batch at once, trigger "idle"):
	// a batch the executors have refused for this long is sealed, which
	// bounds how much one batch grows behind a slow one (default 500µs).
	MaxWait time.Duration
	// FlushSlack is the deadline-budget flush trigger: the batch is sealed as
	// soon as any member's remaining deadline budget drops to FlushSlack, so
	// a tight-deadline request never waits for the batch to grow (default
	// 2×MaxWait).
	FlushSlack time.Duration
	// MinBudget is the admission deadline floor: a request arriving with a
	// remaining budget at or below it is rejected immediately (its deadline
	// would expire in the queue or the batch) rather than admitted to fail
	// (default FlushSlack/2).
	MinBudget time.Duration
	// Workers bounds concurrently executing batches (default
	// runtime.GOMAXPROCS(0): a batch is CPU-bound in decode-merge). When
	// every worker is busy the forming batch grows, a sealed one holds the
	// dispatcher, the intake queue fills, and admission sheds — bounded end
	// to end.
	Workers int
	// Retry is the per-shard transient-fault retry policy passed through to
	// the shard executor.
	Retry shard.RetryPolicy
	// AllowPartial opts into degraded answers (shard.ExecOptions.AllowPartial)
	// and is required for the circuit breakers to act: an open breaker's
	// shard is skipped, which only a degraded answer can absorb.
	AllowPartial bool
	// Breaker configures the per-shard circuit breakers. Forced Disabled
	// when AllowPartial is false.
	Breaker BreakerConfig
	// AnswerCacheBytes is the byte budget of the cache of complete answers in
	// front of admission (0 or less: none). A hit is answered at once with
	// Trigger "cache" and is never queued, batched or shed; only fault-free,
	// non-degraded answers of live requests are offered to it, and one that
	// would evict is admitted only if its range was asked for more often
	// than each entry it evicts. The backend must be immutable for as long
	// as the server fronts it.
	AnswerCacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxTotal <= 0 {
		c.MaxTotal = 4 * c.MaxBatch
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 500 * time.Microsecond
	}
	if c.FlushSlack <= 0 {
		c.FlushSlack = 2 * c.MaxWait
	}
	if c.MinBudget <= 0 {
		c.MinBudget = c.FlushSlack / 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if !c.AllowPartial {
		c.Breaker.Disabled = true
	}
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// Flush triggers. flushIdle is the zero value: an open batch is released by
// whichever executor frees first. The next four seal a batch, and seal checks
// them in this order.
type flushTrigger int

const (
	flushIdle flushTrigger = iota
	flushSize
	flushOverlap
	flushDeadline
	flushWait
	flushClose
	flushTriggers // count
)

func (ft flushTrigger) String() string {
	return [...]string{"idle", "size", "overlap", "deadline", "wait", "close"}[ft]
}

// batch is a set of members on its way to an executor, generic over the
// member handle (the real server queues *request, the simulator queues
// arrival indices) so the flush policy is one piece of code under both
// clocks. ranges[i] is reqs[i]'s range.
type batch[T any] struct {
	reqs    []T
	ranges  []index.Range
	trigger flushTrigger
}

// forming is the batch being formed. The policy is work-conserving: while
// it is open, a driver hands it to an executor the moment one is free and
// no admitted arrival is waiting to join (trigger idle), and otherwise lets
// it absorb arrivals; once seal closes it, arrivals wait in the intake queue
// until an executor has taken it.
type forming[T any] struct {
	batch[T]
	distinct map[index.Range]struct{}
	oldest   int64 // clock nanos of the first member's admission
	deadline int64 // earliest member deadline (clock nanos), 0 = none
}

func (f *forming[T]) add(r T, rng index.Range, deadline, now int64) {
	if len(f.reqs) == 0 {
		f.oldest = now
		f.deadline = 0
		if f.distinct == nil {
			f.distinct = make(map[index.Range]struct{})
		}
	}
	f.reqs = append(f.reqs, r)
	f.ranges = append(f.ranges, rng)
	f.distinct[rng] = struct{}{}
	if deadline > 0 && (f.deadline == 0 || deadline < f.deadline) {
		f.deadline = deadline
	}
}

// take empties and reopens the forming batch, returning what it held.
func (f *forming[T]) take() batch[T] {
	b := f.batch
	f.batch = batch[T]{}
	clear(f.distinct)
	return b
}

// sealed reports whether a trigger has closed the batch to further members.
func (f *forming[T]) sealed() bool { return f.trigger != flushIdle }

// seal closes the batch if a size- or time-class trigger has fired by clock
// time now, recording which. Size-class triggers are checked before
// time-class ones so the accounting is deterministic when several fire at
// once.
func (f *forming[T]) seal(cfg *Config, now int64) {
	switch {
	case f.sealed() || len(f.reqs) == 0:
	case len(f.distinct) >= cfg.MaxBatch:
		f.trigger = flushSize
	case len(f.reqs) >= cfg.MaxTotal:
		f.trigger = flushOverlap
	case f.deadline > 0 && f.deadline-now <= int64(cfg.FlushSlack):
		f.trigger = flushDeadline
	case now-f.oldest >= int64(cfg.MaxWait):
		f.trigger = flushWait
	}
}

// timerAt returns the next clock time a time-class trigger seals the batch
// (the age and deadline-budget triggers), assuming no further arrivals.
func (f *forming[T]) timerAt(cfg *Config) int64 {
	if f.sealed() || len(f.reqs) == 0 {
		return math.MaxInt64
	}
	at := f.oldest + int64(cfg.MaxWait)
	if f.deadline > 0 {
		if d := f.deadline - int64(cfg.FlushSlack); d < at {
			at = d
		}
	}
	return at
}

// request is one admitted query waiting to be batched.
type request struct {
	ctx      context.Context
	rng      index.Range
	deadline int64 // wall nanos, 0 = none
	enq      time.Time
	done     chan Response // buffered(1); the executor's send never blocks
}

// Response is the server's answer to one request.
type Response struct {
	// Bm is the compressed row set (nil on error).
	Bm *cbitmap.Bitmap
	// Stats is the batch-level I/O cost of the batch that served the
	// request (shared across its members, as in Index.QueryBatch).
	Stats index.QueryStats
	// Report lists shards missing from the answer (degraded mode): faulted
	// shards and circuit-broken ones (shard.ErrShardSkipped).
	Report []shard.ShardError
	// BatchSize is the member count of the serving batch.
	BatchSize int
	// Trigger names the flush trigger that released the serving batch: idle,
	// size, overlap, deadline, wait or close.
	Trigger string
	// Wait is the time spent queued before the batch started executing;
	// Service the batch's execution time.
	Wait, Service time.Duration
	Err           error
}

// Server is the real (wall-clock, goroutine) driver of the serving policy.
// Submit never blocks on admission: a full queue sheds immediately. One
// dispatcher goroutine forms batches; Config.Workers executor goroutines run
// them against the backend.
type Server struct {
	cfg Config
	be  Backend
	brk *breakers
	met metrics
	ans *answerCache // nil when Config.AnswerCacheBytes <= 0

	mu     sync.RWMutex // guards closed against racing Submits
	closed bool

	intake chan *request
	execCh chan batch[*request] // unbuffered: a receiver is an idle executor
	// holding is whether the dispatcher's latest pass left intake unread
	// behind a sealed batch, so a test can tell an arrival held in the
	// queue from one the dispatcher has yet to take.
	holding atomic.Bool
	quit    chan struct{}
	wg      sync.WaitGroup
}

// NewServer starts a server over the backend. Close releases it; every
// admitted request is answered before Close returns.
func NewServer(be Backend, cfg Config) (*Server, error) {
	if be == nil || be.Shards() < 1 {
		return nil, fmt.Errorf("serve: backend must have at least one shard")
	}
	c := cfg.withDefaults()
	s := &Server{
		cfg:    c,
		be:     be,
		brk:    newBreakers(be.Shards(), c.Breaker),
		ans:    newAnswerCache(c.AnswerCacheBytes),
		intake: make(chan *request, c.MaxQueue),
		execCh: make(chan batch[*request]),
		quit:   make(chan struct{}),
	}
	s.wg.Add(1 + c.Workers)
	go s.dispatch()
	for w := 0; w < c.Workers; w++ {
		go s.executor()
	}
	return s, nil
}

// Submit admits one range query. It never blocks on admission: a full
// queue returns ErrOverloaded immediately, and a request whose ctx deadline
// leaves less than Config.MinBudget of budget is rejected with
// context.DeadlineExceeded rather than admitted to die in the queue. An
// admitted request blocks until its batch completes or ctx is done; a request
// whose ctx is done before its batch starts is dropped from the batch. With an
// answer cache, a range it holds is answered before admission (on an open
// server, for a live ctx): the hit counts in Stats.Completed and the latency
// histogram, not in Admitted.
func (s *Server) Submit(ctx context.Context, lo, hi uint32) Response {
	rng := index.Range{Lo: lo, Hi: hi}
	var deadline int64
	if d, ok := ctx.Deadline(); ok {
		if time.Until(d) <= s.cfg.MinBudget {
			s.met.expired.Add(1)
			return Response{Err: context.DeadlineExceeded}
		}
		deadline = d.UnixNano()
	}
	enq := time.Now()

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Response{Err: ErrClosed}
	}
	if ctx.Err() == nil {
		if bm, ok := s.ans.get(rng); ok {
			s.mu.RUnlock()
			s.met.completed.Add(1)
			s.met.lat.observe(time.Since(enq))
			return Response{Bm: bm, Trigger: "cache"}
		}
	}
	req := &request{ctx: ctx, rng: rng, deadline: deadline, enq: enq, done: make(chan Response, 1)}
	// Admission: reserve a queue slot or shed. The depth counter is the
	// bound; the intake channel has exactly MaxQueue capacity and every
	// send holds a reserved slot, so the send below can never block.
	for {
		d := s.met.depth.Load()
		if d >= int64(s.cfg.MaxQueue) {
			s.mu.RUnlock()
			s.met.shed.Add(1)
			return Response{Err: ErrOverloaded}
		}
		if s.met.depth.CompareAndSwap(d, d+1) {
			break
		}
	}
	s.met.bumpDepthMax()
	s.intake <- req
	s.met.admitted.Add(1) // after the send: Admitted = k means k requests are in or past the intake queue
	s.mu.RUnlock()

	select {
	case resp := <-req.done:
		return resp
	case <-ctx.Done():
		return Response{Err: ctx.Err()}
	}
}

// Stats snapshots the serving metrics.
func (s *Server) Stats() Stats {
	st := s.met.snapshot(s.brk)
	s.ans.fill(&st)
	return st
}

// Close stops admission (further Submits return ErrClosed), flushes and
// executes every already-admitted request, waits for the executors to
// drain, and returns. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait() // wait for the closing thread's drain to finish
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	return nil
}

// dispatch is the single batch-forming goroutine: it owns the forming batch
// and the seal timer, so every flush decision is made at one point. It
// offers the forming batch on execCh in the same select that reads intake: an
// executor ready to receive is an idle one, so the batch leaves at once when
// one is free and grows while all are busy. An open batch is only offered
// once the intake queue is empty; a sealed one is offered alone, with intake
// left to fill — the backpressure that makes admission shed under sustained
// overload.
func (s *Server) dispatch() {
	defer s.wg.Done()
	var f forming[*request]
	add := func(req *request) {
		now := time.Now().UnixNano()
		f.add(req, req.rng, req.deadline, now)
		f.seal(&s.cfg, now)
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		intake, offer := s.intake, s.execCh
		if f.sealed() {
			intake = nil
		} else if len(f.reqs) == 0 || len(s.intake) > 0 {
			offer = nil
		}
		s.holding.Store(intake == nil)
		var timerC <-chan time.Time
		if at := f.timerAt(&s.cfg); at != math.MaxInt64 {
			timer.Reset(time.Until(time.Unix(0, at)))
			timerC = timer.C
		}
		select {
		case req := <-intake:
			add(req)
		case offer <- f.batch:
			f.take()
		case <-timerC:
			f.seal(&s.cfg, time.Now().UnixNano())
		case <-s.quit:
			// Admission is closed: drain the intake queue into final
			// batches and hand everything to the executors.
			for {
				if f.sealed() {
					s.execCh <- f.take()
				}
				select {
				case req := <-s.intake:
					add(req)
				default:
					if len(f.reqs) > 0 {
						f.trigger = flushClose
						s.execCh <- f.take()
					}
					close(s.execCh)
					return
				}
			}
		}
	}
}

func (s *Server) executor() {
	defer s.wg.Done()
	for b := range s.execCh {
		s.execBatch(b)
	}
}

// execBatch runs one batch against the backend with the breaker gate's skip
// set, the members' tightest deadline as the batch deadline, and feeds the
// outcome back to the breakers and every member. Members whose caller has
// already gone (ctx done) are answered with its error first and cost the
// backend nothing.
func (s *Server) execBatch(b batch[*request]) {
	start := time.Now()
	s.met.depth.Add(-int64(len(b.reqs))) // members leave the queue
	s.met.batches.Add(1)
	s.met.flush[b.trigger].Add(1)

	live := 0
	var minDeadline int64
	for i, r := range b.reqs {
		if err := r.ctx.Err(); err != nil {
			s.met.failed.Add(1)
			r.done <- Response{Err: err}
			continue
		}
		b.reqs[live], b.ranges[live] = r, b.ranges[i]
		live++
		if r.deadline > 0 && (minDeadline == 0 || r.deadline < minDeadline) {
			minDeadline = r.deadline
		}
	}
	b.reqs, b.ranges = b.reqs[:live], b.ranges[:live]
	if live == 0 {
		return
	}
	ctx := context.Background()
	if minDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, minDeadline))
		defer cancel()
	}

	skip, probe, allSkipped := s.brk.gate(start.UnixNano())
	if allSkipped {
		s.deliver(b, start, time.Now(), nil, index.QueryStats{}, nil, ErrNoShards)
		return
	}
	eo := shard.ExecOptions{Retry: s.cfg.Retry, AllowPartial: s.cfg.AllowPartial, SkipShards: skip}
	bms, st, report, err := s.be.QueryBatch(ctx, b.ranges, eo)
	end := time.Now()
	s.brk.observe(end.UnixNano(), skip, probe, batchFailures(s.be.Shards(), skip, report, err), err)
	s.deliver(b, start, end, bms, st, report, err)
}

// batchFailures folds a batch outcome into per-shard failure flags for the
// breakers: report entries that are not the breakers' own skips count, and a
// fatal non-cancellation error counts against every queried shard (the
// shard layer only returns fatal when nothing healthy answered).
func batchFailures(shards int, skip []bool, report []shard.ShardError, err error) []bool {
	failed := make([]bool, shards)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return failed // inconclusive; observe ignores it anyway
		}
		for i := range failed {
			if i >= len(skip) || !skip[i] {
				failed[i] = true
			}
		}
		return failed
	}
	for _, se := range report {
		if se.Shard >= 0 && se.Shard < shards && !errors.Is(se.Err, shard.ErrShardSkipped) {
			failed[se.Shard] = true
		}
	}
	return failed
}

// deliver completes every member of the batch and records the metrics.
func (s *Server) deliver(b batch[*request], start, end time.Time, bms []*cbitmap.Bitmap, st index.QueryStats, report []shard.ShardError, err error) {
	service := end.Sub(start)
	if err == nil {
		s.met.reads.Add(int64(st.Reads))
		s.met.sharedSaved.Add(int64(st.SharedSaved))
		s.met.failedReads.Add(int64(st.FailedReads))
		s.met.retriedReads.Add(int64(st.RetriedReads))
	}
	for i, r := range b.reqs {
		resp := Response{
			Stats:     st,
			Report:    report,
			BatchSize: len(b.reqs),
			Trigger:   b.trigger.String(),
			Wait:      start.Sub(r.enq),
			Service:   service,
			Err:       err,
		}
		if err == nil {
			resp.Bm = bms[i]
			s.met.completed.Add(1)
			if len(report) > 0 {
				s.met.degraded.Add(1)
			} else if r.ctx.Err() == nil {
				s.ans.put(b.ranges[i], bms[i])
			}
			s.met.lat.observe(end.Sub(r.enq))
		} else {
			s.met.failed.Add(1)
		}
		r.done <- resp
	}
}
