// Package shard partitions a column into contiguous row-range shards, each
// backed by its own static Theorem 2 index on its own simulated disk, and
// serves range queries by fanning out across the shards and merging the
// compressed per-shard answers with row-id offsetting.
//
// This mirrors how the Aggarwal–Vitter I/O model treats parallelism: the
// shards' disks are independent block devices, so S shards can serve a query
// in max-per-shard rather than sum I/O time, and the aggregate query counters
// report exactly the same total block transfers as one device would (plus
// per-shard tree overhead). Shard builds and queries run through one bounded
// worker pool. Each per-shard query runs the fused streaming pipeline
// (decode and merge in one pass over the bits read, cbitmap.MergeStreams);
// batches run each shard through core's shared-scan batch planner, so
// overlapping ranges read every coalesced cover-chunk extent once per shard.
// The per-shard answers feed the same merge via cbitmap.UnionAll with
// row-id offsetting: its contiguous-shard fast path re-encodes only each
// shard's head gap and copies the rest of the compressed answer verbatim.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cbitmap"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Options configures a sharded index.
type Options struct {
	// Shards is the number of contiguous row-range shards (default 1). It is
	// clamped so every shard holds at least one row.
	Shards int
	// Workers bounds concurrent shard builds and queries (default
	// runtime.GOMAXPROCS(0)).
	Workers int
	// BlockBits and CacheBlocks configure each shard's Disk; CacheBlocks > 0
	// enables the per-shard LRU block cache.
	BlockBits   int
	CacheBlocks int
	// Branching and Stride configure each shard's index as in
	// core.OptimalOptions. Shards are exact-only: nothing queries a shard's
	// hashed levels, so none are built.
	Branching int
	Stride    int
	// Faults, when non-nil, gives every shard's disk a fault schedule:
	// shard i's is FaultsFor(Faults, i). Shards build disarmed (builds are
	// never faulted); ArmFaults starts the schedule firing on query reads.
	Faults *iomodel.FaultConfig
}

// FaultsFor returns the fault schedule shard i's disk draws from: fc with
// its seed offset by i, so the shards fail independently, the way
// independent physical devices do. nil without fc. A build and a reopen of
// the same container both derive their shards' schedules here, so they
// fault the same blocks.
func FaultsFor(fc *iomodel.FaultConfig, i int) *iomodel.FaultConfig {
	if fc == nil {
		return nil
	}
	c := *fc
	c.Seed += int64(i)
	return &c
}

// RetryPolicy bounds per-shard retries of transiently failing operations.
// The zero value retries nothing.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per shard operation,
	// including the first (values < 1 mean 1: no retry). Only transient
	// device faults (iomodel.ErrTransientRead) are retried; permanent
	// faults, corruption and cancellation fail immediately.
	MaxAttempts int
	// Backoff is the base sleep before the first retry; attempt k starts
	// from Backoff·2^(k-1), capped at MaxBackoff when MaxBackoff > 0, and is
	// then jittered to a deterministic point in [base/2, base): the jitter
	// fraction is a pure splitmix64 function of (JitterSeed, token, attempt),
	// where the token is the shard index, so concurrent per-shard retries of
	// one query decorrelate instead of convoying onto the device in lockstep,
	// while a fixed seed keeps every schedule bit-reproducible. The waits
	// honour context cancellation.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic backoff jitter. Any value (including
	// zero) yields a valid, reproducible schedule.
	JitterSeed int64
}

// Delay returns the jittered backoff before re-issuing after `attempt`
// failures of the operation identified by token (the shard index in the
// fan-out layers; 0 for an unsharded device). The schedule is a pure
// function of (policy, token, attempt) — see RetryPolicy.Backoff.
func (p RetryPolicy) Delay(attempt int, token uint64) time.Duration {
	limit := p.MaxBackoff
	if limit <= 0 {
		limit = math.MaxInt64 // uncapped: double until the Duration saturates
	}
	d := min(p.Backoff, limit)
	for i := 1; i < attempt && d > 0 && d < limit; i++ {
		if d > limit/2 {
			d = limit
		} else {
			d *= 2
		}
	}
	if d <= 0 {
		return 0
	}
	// Jitter into [d/2, d): keep half the exponential spacing as a floor so
	// attempts still back off, and spread the rest uniformly by the seeded
	// draw. 1<<16 buckets, scaled through a 128-bit product, keep the draw
	// exact for any Duration magnitude.
	h := mix64(uint64(p.JitterSeed) ^ mix64(token^saltJitter) ^ mix64(uint64(attempt)))
	hi, lo := bits.Mul64(uint64(d/2), h%(1<<16))
	return d/2 + time.Duration(hi<<48|lo>>16)
}

// saltJitter decorrelates the jitter draw from every other seeded draw in
// the repository (the fault schedule's salts live in iomodel).
const saltJitter uint64 = 0x6a69747472657472 // "jittretr"

// mix64 is the splitmix64 finalizer, the same deterministic mixer the fault
// schedule uses for per-block draws.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ExecOptions configures one fault-tolerant query execution.
type ExecOptions struct {
	// Retry is the per-shard retry policy for transient device faults.
	Retry RetryPolicy
	// AllowPartial opts into degraded answers: shards that still fail after
	// retries are dropped from the merge, their rows reported absent through
	// the per-shard error report instead of failing the whole query.
	// Cancellation is never degraded — a done context fails the query even
	// in partial mode.
	AllowPartial bool
	// SkipShards, when non-nil, marks shards the caller already knows to be
	// unhealthy — the serving layer's circuit-breaker hook. A marked shard is
	// not queried at all: it spends no retry budget, touches no device, and
	// reports a ShardError wrapping ErrShardSkipped after zero attempts.
	// Requires AllowPartial when any shard is marked (with no degraded path a
	// skip would doom the whole query), and at least one shard must remain
	// unmarked.
	SkipShards []bool
}

// skip reports whether shard i is marked to be skipped.
func (eo ExecOptions) skip(i int) bool {
	return i < len(eo.SkipShards) && eo.SkipShards[i]
}

// validateSkips rejects skip sets that leave nothing to answer with.
func (eo ExecOptions) validateSkips(shards int) error {
	marked := 0
	for i := 0; i < shards; i++ {
		if eo.skip(i) {
			marked++
		}
	}
	if marked == 0 {
		return nil
	}
	if !eo.AllowPartial {
		return fmt.Errorf("shard: SkipShards requires AllowPartial")
	}
	if marked == shards {
		return fmt.Errorf("shard: every shard skipped: %w", ErrShardSkipped)
	}
	return nil
}

// ErrShardSkipped is the error a circuit-broken (ExecOptions.SkipShards)
// shard reports in the degraded-answer report: the shard was never queried.
var ErrShardSkipped = errors.New("shard: skipped by caller (circuit breaker open)")

// ShardError reports one shard's failure inside a degraded (AllowPartial)
// answer: the failing shard, the global row range whose answer bits are
// missing, how many attempts were made, and the last error.
type ShardError struct {
	Shard            int
	RowStart, RowEnd int64 // global rows [RowStart, RowEnd) not answered
	Attempts         int
	Err              error
}

func (e ShardError) Error() string {
	return fmt.Sprintf("shard %d (rows [%d,%d)) failed after %d attempt(s): %v",
		e.Shard, e.RowStart, e.RowEnd, e.Attempts, e.Err)
}

func (e ShardError) Unwrap() error { return e.Err }

// shard is one contiguous row range [start, start+ax.Len()) of the column.
type shard struct {
	ax    *core.Approx
	disk  *iomodel.Disk
	start int64 // global row id of the shard's local row 0
	end   int64 // global row id one past the shard's last row
}

// Index is a sharded static secondary index over a column of n rows.
type Index struct {
	shards  []*shard
	n       int64
	sigma   int
	workers int
}

// Build constructs a sharded index over data (values in [0,sigma)),
// building the shards in parallel through a pool of opts.Workers workers.
func Build(data []uint32, sigma int, opts Options) (*Index, error) {
	diskCfg := iomodel.Config{BlockBits: opts.BlockBits, CacheBlocks: opts.CacheBlocks, Faults: opts.Faults}
	// Validate the device configuration once up front: the disks are created
	// inside build worker goroutines, where an error must surface as Build's
	// error rather than a panic killing the process.
	if err := diskCfg.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	s := opts.Shards
	if s < 1 {
		s = 1
	}
	if int64(s) > int64(len(data)) {
		s = len(data) // at least one row per shard
		if s < 1 {
			s = 1
		}
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := int64(len(data))
	parts := make([]Part, s)
	var wg sync.WaitGroup
	ws := core.NewWorkers(workers) // one encoder budget for all the shards
	errs := make([]error, s)
	for i := range parts {
		// Balanced contiguous partition: shard i covers [i·n/s, (i+1)·n/s).
		start, end := int64(i)*n/int64(s), int64(i+1)*n/int64(s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := diskCfg
			cfg.Faults = FaultsFor(opts.Faults, i)
			d, err := iomodel.NewDiskChecked(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			ax, err := core.BuildExactOn(ws, d, workload.Column{X: data[start:end], Sigma: sigma},
				core.OptimalOptions{Branching: opts.Branching, Stride: opts.Stride})
			parts[i], errs[i] = Part{Ax: ax, Disk: d, Start: start, End: end}, err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return Assemble(parts, n, sigma, workers)
}

// Len returns the number of rows indexed.
func (sx *Index) Len() int64 { return sx.n }

// Sigma returns the alphabet size.
func (sx *Index) Sigma() int { return sx.sigma }

// Shards returns the shard count.
func (sx *Index) Shards() int { return len(sx.shards) }

// SizeBits returns the total space usage across all shards.
func (sx *Index) SizeBits() int64 {
	var bits int64
	for _, sh := range sx.shards {
		bits += sh.ax.SizeBits()
	}
	return bits
}

// ArmFaults starts the fault schedule firing on every shard's disk; a disk
// without a schedule is unaffected.
func (sx *Index) ArmFaults() {
	for _, sh := range sx.shards {
		sh.disk.ArmFaults()
	}
}

// DisarmFaults stops fault injection on every shard.
func (sx *Index) DisarmFaults() {
	for _, sh := range sx.shards {
		sh.disk.DisarmFaults()
	}
}

// CacheBytes sums the block-cache capacity of every shard's disk.
func (sx *Index) CacheBytes() (n int64) {
	for _, sh := range sx.shards {
		n += sh.disk.CacheBytes()
	}
	return n
}

// DeviceStats sums the cumulative device counters of every shard's disk.
func (sx *Index) DeviceStats() iomodel.StatsSnapshot {
	var out iomodel.StatsSnapshot
	for _, sh := range sx.shards {
		st := sh.disk.Stats()
		out.BlockReads += st.BlockReads
		out.BlockWrites += st.BlockWrites
		out.Sessions += st.Sessions
		out.CacheHits += st.CacheHits
		out.CacheMisses += st.CacheMisses
		out.SharedSaved += st.SharedSaved
		out.FailedReads += st.FailedReads
	}
	return out
}

// PerShardStats returns each shard disk's cumulative counters, in row
// order. The maximum per-shard read count is the query workload's critical
// path on independent devices.
func (sx *Index) PerShardStats() []iomodel.StatsSnapshot {
	out := make([]iomodel.StatsSnapshot, len(sx.shards))
	for i, sh := range sx.shards {
		out[i] = sh.disk.Stats()
	}
	return out
}

// ResetDeviceStats zeroes every shard disk's cumulative counters.
func (sx *Index) ResetDeviceStats() {
	for _, sh := range sx.shards {
		sh.disk.ResetStats()
	}
}

// retryTransient runs op with the policy's bounded retries: only transient
// device faults re-issue, with an exponential, jittered, cancellation-aware
// backoff between attempts (token identifies the operation — the shard
// index — for the deterministic jitter draw). Every attempt's stats
// accumulate into stats (so failed attempts' charged I/O stays visible),
// and each re-issued attempt counts once in stats.RetriedReads. It returns
// the attempt count and the final error.
func retryTransient(ctx context.Context, pol RetryPolicy, token uint64, stats *index.QueryStats, op func() (index.QueryStats, error)) (int, error) {
	max := pol.MaxAttempts
	if max < 1 {
		max = 1
	}
	for attempt := 1; ; attempt++ {
		st, err := op()
		stats.Add(st)
		if err == nil || attempt >= max || !errors.Is(err, iomodel.ErrTransientRead) {
			return attempt, err
		}
		if d := pol.Delay(attempt, token); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return attempt, ctx.Err()
			case <-t.C:
			}
		} else if cerr := ctx.Err(); cerr != nil {
			return attempt, cerr
		}
		stats.RetriedReads++
	}
}

// shardOutcome is what one shard contributes to a fan-out: its local answers
// (one per distinct range; nil when the shard failed, was skipped or never
// ran), the stats of every attempt, the attempt count and the final error.
type shardOutcome struct {
	answers  []*cbitmap.Bitmap
	stats    index.QueryStats
	attempts int
	err      error
}

// collectReport folds the per-shard outcomes of a fan-out into either a
// degraded-mode report or a fatal error. All-healthy returns (nil, nil).
// Without AllowPartial the first error in shard order is fatal. With it,
// device failures become ShardError entries — but cancellation stays fatal,
// and so does every shard failing (there is no answer left to degrade to).
func (sx *Index) collectReport(outs []shardOutcome, eo ExecOptions) ([]ShardError, error) {
	var report []ShardError
	for i, o := range outs {
		if o.err == nil {
			continue
		}
		if !eo.AllowPartial || errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded) {
			return nil, o.err
		}
		report = append(report, ShardError{
			Shard:    i,
			RowStart: sx.shards[i].start,
			RowEnd:   sx.shards[i].end,
			Attempts: o.attempts,
			Err:      o.err,
		})
	}
	if len(report) == len(sx.shards) && len(report) > 0 {
		return nil, fmt.Errorf("shard: every shard failed: %w", report[0])
	}
	return report, nil
}

// Query answers I[lo;hi] by fanning the range out to every shard and merging
// the compressed per-shard answers, rebased by each shard's row offset. The
// returned stats sum the per-shard I/O costs (total block transfers; on S
// independent devices the critical path is roughly 1/S of it).
func (sx *Index) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	return sx.QueryContext(context.Background(), r)
}

// QueryContext answers like Query, honouring ctx: cancellation stops
// scheduling shard tasks and checkpoints inside each shard's pipeline.
func (sx *Index) QueryContext(ctx context.Context, r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	bm, stats, _, err := sx.QueryExec(ctx, r, ExecOptions{})
	return bm, stats, err
}

// QueryExec is the fault-tolerant query entry point — a batch of one through
// the same fan-out as QueryBatchExec: per-shard bounded retries for transient
// device faults per eo.Retry, and (with eo.AllowPartial) a degraded answer
// merging only the healthy shards. The report is non-nil exactly when the
// answer is partial; its entries name the global row ranges whose bits are
// missing from the answer.
func (sx *Index) QueryExec(ctx context.Context, r index.Range, eo ExecOptions) (*cbitmap.Bitmap, index.QueryStats, []ShardError, error) {
	if err := r.Valid(sx.sigma); err != nil {
		return nil, index.QueryStats{}, nil, err
	}
	if err := eo.validateSkips(len(sx.shards)); err != nil {
		return nil, index.QueryStats{}, nil, err
	}
	out, stats, report, err := sx.fanOut(ctx, []index.Range{r}, eo)
	if err != nil {
		return nil, stats, nil, err
	}
	return out[0], stats, report, nil
}

// shardBatchQuery is the per-shard entry point of every fan-out: the shard
// runs the distinct ranges through core's batch entry, whose one executor
// answers a single range as a batch of one plan and several in one shared
// scan, so ranges that overlap coalesce their cover-chunk reads inside every
// shard. A part of several answers without skip samples, since UnionAll
// reads it once. It is a variable so tests can inject failing shards.
var shardBatchQuery = func(ctx context.Context, sh *shard, rs []index.Range, part bool) ([]*cbitmap.Bitmap, index.QueryStats, error) {
	if part {
		return sh.ax.QueryParts(ctx, rs)
	}
	return sh.ax.QueryBatchContext(ctx, rs)
}

// QueryBatch answers a batch of ranges. Duplicate ranges are deduplicated
// (they share one answer and pay I/O once). Each shard answers the whole
// deduplicated batch in one shared-scan planner pass — overlapping ranges
// read each coalesced cover-chunk extent once per shard, not once per range —
// and the per-range cross-shard merges then run through the same bounded
// worker pool. The i-th result corresponds to rs[i]; the returned stats
// aggregate the whole batch at batch level (each shard's distinct blocks are
// charged once, with the reads avoided by sharing in Stats.SharedSaved).
//
// A failing shard short-circuits the batch: tasks not yet started are
// not run once any task records an error, and the first error in shard order
// is returned.
func (sx *Index) QueryBatch(rs []index.Range) ([]*cbitmap.Bitmap, index.QueryStats, error) {
	return sx.QueryBatchContext(context.Background(), rs)
}

// QueryBatchContext answers like QueryBatch, honouring ctx: cancellation
// stops scheduling shard tasks and checkpoints inside each shard's planner
// (plan, scan and merge loops).
func (sx *Index) QueryBatchContext(ctx context.Context, rs []index.Range) ([]*cbitmap.Bitmap, index.QueryStats, error) {
	out, stats, _, err := sx.QueryBatchExec(ctx, rs, ExecOptions{})
	return out, stats, err
}

// QueryBatchExec is the fault-tolerant batch entry point: what it adds to
// QueryExec's fan-out is deduplication before it and the scatter of the
// distinct answers back onto rs after it. With a non-nil report, every
// returned bitmap is missing the reported shards' rows.
func (sx *Index) QueryBatchExec(ctx context.Context, rs []index.Range, eo ExecOptions) ([]*cbitmap.Bitmap, index.QueryStats, []ShardError, error) {
	if err := eo.validateSkips(len(sx.shards)); err != nil {
		return nil, index.QueryStats{}, nil, err
	}
	uniq := make(map[index.Range]int, len(rs))
	var order []index.Range
	for _, r := range rs {
		if err := r.Valid(sx.sigma); err != nil {
			return nil, index.QueryStats{}, nil, err
		}
		if _, ok := uniq[r]; !ok {
			uniq[r] = len(order)
			order = append(order, r)
		}
	}
	out := make([]*cbitmap.Bitmap, len(rs))
	if len(order) == 0 {
		return out, index.QueryStats{}, nil, nil
	}
	merged, stats, report, err := sx.fanOut(ctx, order, eo)
	if err != nil {
		return nil, stats, nil, err
	}
	for i, r := range rs {
		out[i] = merged[uniq[r]]
	}
	return out, stats, report, nil
}

// fanOut answers the distinct, validated ranges of order: one task per shard
// through the pool, each running the whole list on its shard under the retry
// policy, then one cross-shard merge per range. The i-th answer corresponds
// to order[i]; the stats sum every shard's every attempt.
func (sx *Index) fanOut(ctx context.Context, order []index.Range, eo ExecOptions) ([]*cbitmap.Bitmap, index.QueryStats, []ShardError, error) {
	var stats index.QueryStats
	// One shard runs on the caller's goroutine with its outcome on the stack:
	// the pool's task closure, and the outcomes it captures, would be two
	// allocations on every query of a static Index.
	var one [1]shardOutcome
	var many []shardOutcome // the closures below capture this one
	outs := one[:]
	if len(sx.shards) == 1 {
		sx.runShard(ctx, 0, order, eo, &one[0])
	} else {
		many = make([]shardOutcome, len(sx.shards))
		sx.runTasks(len(many), !eo.AllowPartial, func(i int) error { return sx.runShard(ctx, i, order, eo, &many[i]) })
		outs = many
	}
	for i := range outs {
		stats.Add(outs[i].stats)
	}
	report, err := sx.collectReport(outs, eo)
	if err != nil {
		return nil, stats, nil, err
	}
	if len(sx.shards) == 1 {
		// One shard covers every row from offset 0 and, having passed
		// collectReport, answered: its local answers are the global ones.
		return outs[0].answers, stats, nil, nil
	}
	// UnionAll hands the shard answers, rebased by their row offsets, to
	// cbitmap's concatenation kernel: they are disjoint and ordered, so only
	// each part's head code is re-encoded. Failed shards (degraded mode)
	// simply contribute no parts.
	merged := make([]*cbitmap.Bitmap, len(order))
	mergeErrs := make([]error, len(order))
	sx.runTasks(len(order), true, func(qi int) error {
		if mergeErrs[qi] = ctx.Err(); mergeErrs[qi] != nil {
			return mergeErrs[qi]
		}
		parts := make([]cbitmap.Shifted, 0, len(sx.shards))
		for si, sh := range sx.shards {
			if many[si].answers != nil {
				parts = append(parts, cbitmap.Shifted{Bm: many[si].answers[qi], Off: sh.start})
			}
		}
		merged[qi], mergeErrs[qi] = cbitmap.UnionAll(sx.n, parts...)
		return mergeErrs[qi]
	})
	for _, err := range mergeErrs {
		if err != nil {
			return nil, stats, nil, err
		}
	}
	return merged, stats, report, nil
}

// runShard runs the distinct ranges of order on shard i under the retry
// policy, recording its answers, stats, attempts and error in o, and
// returns the error.
func (sx *Index) runShard(ctx context.Context, i int, order []index.Range, eo ExecOptions, o *shardOutcome) error {
	if o.err = ctx.Err(); o.err != nil {
		return o.err
	}
	if eo.skip(i) {
		o.err = ErrShardSkipped
		return o.err
	}
	o.attempts, o.err = retryTransient(ctx, eo.Retry, uint64(i), &o.stats, func() (index.QueryStats, error) {
		bms, st, err := shardBatchQuery(ctx, sx.shards[i], order, len(sx.shards) > 1)
		if err == nil {
			o.answers = bms
		}
		return st, err
	})
	return o.err
}

// runTasks executes run(0..n-1) through min(workers, n) pool goroutines
// pulling task indices from a shared counter. A task reports its failure by
// returning it (and records it wherever its caller will look). With
// shortCircuit, tasks that have not started by the time any task fails are
// not run — the batch is doomed, so the remaining work would be wasted I/O
// and the error should surface promptly. Degraded (AllowPartial) fan-outs
// disable the short-circuit: every shard must get its chance to answer. A
// pool of one is a plain loop on the caller's goroutine: there is no
// parallelism to buy, and a one-part index pays this on every query.
func (sx *Index) runTasks(n int, shortCircuit bool, run func(int) error) {
	workers := min(sx.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if run(i) != nil && shortCircuit {
				return
			}
		}
		return
	}
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || (shortCircuit && failed.Load()) {
					return
				}
				if run(i) != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
}
