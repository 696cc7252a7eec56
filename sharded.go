package secidx

import (
	"context"
	"fmt"

	"repro/internal/container"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/shard"
)

// Range is an alphabet range query [Lo,Hi] (inclusive), the batch-query
// request unit.
type Range = index.Range

// FaultConfig describes a deterministic, seeded device fault schedule for
// chaos testing a sharded index. Each per-10k rate draws a sticky per-block
// fate from the seed, so whether a given block is faulty — and how — is
// fixed for the life of the device and independent of read order:
//
//   - a transient block fails its first TransientCount charged reads with a
//     retriable error, then heals;
//   - a permanent block fails every charged read;
//   - a corrupt block serves its data with one deterministic bit flipped,
//     which the decode pipeline surfaces as a corruption error.
//
// Read faults fire only on charged device reads — never on blocks already
// resident in the session or block cache — and only while armed
// (ShardedIndex.ArmFaults). Write faults (FailedWritePer10k,
// ShortWritePer10k) fire on the write path of writable devices: a faulty
// block's first write fails, tearing the multi-block write it belongs to
// exactly as a crashed device write would; the block then heals so a retry
// succeeds. Shard i draws from Seed+i, so shards fail independently like
// independent physical devices.
type FaultConfig = iomodel.FaultConfig

// RetryPolicy bounds per-shard retries of transiently failing reads. Only
// transient device faults are retried; permanent faults, corruption and
// cancellation fail (or degrade) immediately. The zero value retries
// nothing: MaxAttempts is the total number of attempts per shard operation,
// including the first (values < 1 mean 1). Backoff is the base sleep before
// the first retry, doubling per attempt and capped at MaxBackoff when
// MaxBackoff > 0, then jittered to a deterministic point in [base/2, base)
// drawn from (JitterSeed, shard, attempt) — concurrent per-shard retries
// decorrelate instead of convoying, and a fixed seed (zero is valid)
// reproduces the exact schedule. Waits honour context cancellation.
type RetryPolicy = shard.RetryPolicy

// QueryOptions configures one fault-tolerant query execution.
type QueryOptions struct {
	// Retry is the per-shard retry policy for transient device faults.
	Retry RetryPolicy
	// AllowPartial opts into degraded answers: shards that still fail after
	// retries are dropped from the merge and reported through the ShardError
	// slice instead of failing the whole query. Cancellation is never
	// degraded.
	AllowPartial bool
}

func (qo QueryOptions) exec() shard.ExecOptions {
	return shard.ExecOptions{Retry: qo.Retry, AllowPartial: qo.AllowPartial}
}

// ShardError reports one shard's failure inside a degraded (AllowPartial)
// answer: the global row range [RowStart, RowEnd) whose answer bits are
// missing, how many attempts were made, and the last error. An error from a
// query whose every shard failed wraps one; detect it with errors.As.
type ShardError = shard.ShardError

// ShardOptions configures BuildSharded.
type ShardOptions struct {
	// Options carries the per-shard index parameters (BlockBits, Branching,
	// Stride) and the fault schedule: with Faults set, shard i runs on a
	// fault-injecting device drawing from Faults.Seed+i. Seed applies to Index
	// only: shards are exact-only, with no hashed levels to seed. Buffered and
	// Concurrent are ignored, shards are static.
	Options
	// Shards is the number of contiguous row-range shards (default 1).
	Shards int
	// Workers bounds concurrent shard builds and queries (default GOMAXPROCS).
	Workers int
	// CacheBlocks enables an LRU block cache of that many blocks on each
	// shard's device: repeated queries stop re-reading hot superblocks, and
	// DeviceStats reports the hit/miss counters. Zero disables caching.
	CacheBlocks int
}

// static is the one implementation under Index and ShardedIndex: a static
// index is a shard.Index, and an unsharded Index is its one-shard case. The
// methods both handles share are declared here once; Go promotes them to
// both. Only unexported methods may take a shape that one handle alone
// exports (execQuery, execBatch): an exported one would be promoted to both.
type static struct {
	sx   *shard.Index
	opts Options // retained for serialisation (WriteFile)
	kind uint64  // the container kind WriteFile writes: KindStatic or KindSharded
}

// ShardedIndex partitions the column into contiguous row-range shards, each
// an exact-only static index (Theorem 2) on its own simulated disk — the I/O
// model's view of parallel storage as independent block devices. Queries fan
// out across shards through a bounded worker pool; each shard runs the fused
// streaming pipeline (decode and merge in one pass over the bits it reads)
// and the compressed per-shard answers feed the same streaming merge with
// row-id offsetting. Results are identical, bit for bit, to a single
// unsharded Index over the same column.
type ShardedIndex struct {
	static
}

// BuildSharded constructs a sharded index over data (values in [0,sigma)).
// Shards build in parallel, bounded by opts.Workers.
func BuildSharded(data []uint32, sigma int, opts ShardOptions) (*ShardedIndex, error) {
	sx, err := shard.Build(data, sigma, shard.Options{
		Shards:      opts.Shards,
		Workers:     opts.Workers,
		BlockBits:   opts.BlockBits,
		CacheBlocks: opts.CacheBlocks,
		Branching:   opts.Branching,
		Stride:      opts.Stride,
		Faults:      opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{static{sx: sx, opts: opts.Options, kind: container.KindSharded}}, nil
}

// Len returns the number of rows indexed.
func (ix *static) Len() int64 { return ix.sx.Len() }

// Sigma returns the alphabet size.
func (ix *static) Sigma() int { return ix.sx.Sigma() }

// SizeBits returns the index's total space usage in bits, summed across all
// shards.
func (ix *static) SizeBits() int64 { return ix.sx.SizeBits() }

// Shards returns the number of shards.
func (ix *ShardedIndex) Shards() int { return ix.sx.Shards() }

// SpaceLedger decomposes SizeBits shard by shard.
func (ix *ShardedIndex) SpaceLedger() []SpaceLedger {
	parts := ix.sx.Parts()
	out := make([]SpaceLedger, len(parts))
	for i, p := range parts {
		out[i] = p.Ax.SpaceLedger()
	}
	return out
}

// PayloadUnderCodes prices each shard's member payload level by level (see
// Index.PayloadUnderCodes).
func (ix *ShardedIndex) PayloadUnderCodes() ([][]LevelCodes, error) {
	parts := ix.sx.Parts()
	out := make([][]LevelCodes, len(parts))
	for i, p := range parts {
		codes, err := p.Ax.PayloadUnderCodes()
		if err != nil {
			return nil, fmt.Errorf("secidx: shard %d: %w", i, err)
		}
		out[i] = codes
	}
	return out, nil
}

// Query answers I[lo;hi] exactly, fanning out across shards. Stats sum the
// per-shard I/O; on independent devices the critical path is the largest
// per-shard share.
func (ix *static) Query(lo, hi uint32) (*Result, Stats, error) {
	return ix.QueryContext(context.Background(), lo, hi)
}

// QueryContext answers like Query, honouring ctx: cancellation stops
// scheduling shard tasks, and each shard's query pipeline checkpoints it
// between cover members and aborts with the context error. Stats are
// populated even on error.
func (ix *static) QueryContext(ctx context.Context, lo, hi uint32) (*Result, Stats, error) {
	res, st, _, err := ix.execQuery(ctx, lo, hi, QueryOptions{})
	return res, st, err
}

// QueryExec is the fault-tolerant query entry point: per-shard bounded
// retries for transient device faults, and (with opts.AllowPartial) a
// degraded answer merging only the healthy shards. The returned ShardError
// slice is non-nil exactly when the answer is partial; its entries name the
// global row ranges whose bits are missing.
func (ix *ShardedIndex) QueryExec(ctx context.Context, lo, hi uint32, opts QueryOptions) (*Result, Stats, []ShardError, error) {
	return ix.execQuery(ctx, lo, hi, opts)
}

// execQuery runs one fault-tolerant query — the path behind QueryExec on
// both handles.
func (ix *static) execQuery(ctx context.Context, lo, hi uint32, opts QueryOptions) (*Result, Stats, []ShardError, error) {
	bm, st, report, err := ix.sx.QueryExec(ctx, Range{Lo: lo, Hi: hi}, opts.exec())
	if err != nil {
		return nil, st, nil, err
	}
	return &Result{bm: bm}, st, report, nil
}

// QueryBatch answers a batch of ranges through the shared-scan batch
// planner: duplicate ranges are deduplicated (answered once, shared), each
// shard plans the whole batch at cover-chunk granularity and executes it in
// one pass — overlapping ranges coalesce their cover reads, and every
// coalesced extent is read, and its shared members validated, once per
// shard — and the per-range cross-shard merges run through one bounded
// worker pool. A failing shard short-circuits the rest of the batch.
// Answers are bit-identical to looped Query calls; the i-th result answers
// ranges[i]. Stats are batch-level (see Stats), with the block reads avoided
// by sharing reported in Stats.SharedSaved (and DeviceStats.SharedSaved).
func (ix *static) QueryBatch(ranges []Range) ([]*Result, Stats, error) {
	return ix.QueryBatchContext(context.Background(), ranges)
}

// QueryBatchContext answers like QueryBatch, honouring ctx: the batch
// planner checkpoints cancellation in its plan, scan and merge loops.
func (ix *static) QueryBatchContext(ctx context.Context, ranges []Range) ([]*Result, Stats, error) {
	out, st, _, err := ix.execBatch(ctx, ranges, QueryOptions{})
	return out, st, err
}

// QueryBatchExec is the fault-tolerant batch entry point, the batch
// analogue of QueryExec. With a non-nil ShardError slice, every returned
// result is missing the reported shards' rows.
func (ix *ShardedIndex) QueryBatchExec(ctx context.Context, ranges []Range, opts QueryOptions) ([]*Result, Stats, []ShardError, error) {
	return ix.execBatch(ctx, ranges, opts)
}

// execBatch is the batch analogue of execQuery.
func (ix *static) execBatch(ctx context.Context, ranges []Range, opts QueryOptions) ([]*Result, Stats, []ShardError, error) {
	bms, st, report, err := ix.sx.QueryBatchExec(ctx, ranges, opts.exec())
	if err != nil {
		return nil, st, nil, err
	}
	out := make([]*Result, len(bms))
	for i, bm := range bms {
		out[i] = &Result{bm: bm}
	}
	return out, st, report, nil
}

// ArmFaults starts the fault schedule of Options.Faults firing on every
// shard's query reads; it is a no-op without one. Builds always run
// disarmed. Faults then surface through Query errors and the
// FailedReads/RetriedReads counters of Stats.
func (ix *static) ArmFaults() { ix.sx.ArmFaults() }

// DisarmFaults stops fault injection on every shard.
func (ix *static) DisarmFaults() { ix.sx.DisarmFaults() }

// DeviceStats reports the cumulative block-device counters summed over all
// shard disks, including block-cache hits and misses when CacheBlocks > 0.
// SharedSaved counts block reads avoided by shared-scan batch sessions:
// blocks several queries of one batch needed but the batch read once —
// unlike CacheHits (residency across operations) it measures sharing within
// single batches. FailedReads counts device read attempts that failed under
// an armed fault schedule, including transient failures later recovered by
// retry.
type DeviceStats = iomodel.StatsSnapshot

// DeviceStats returns the summed per-shard device counters.
func (ix *ShardedIndex) DeviceStats() DeviceStats { return ix.sx.DeviceStats() }

// ResetDeviceStats zeroes the per-shard device counters (used by the scaling
// experiment to isolate query-phase I/O).
func (ix *ShardedIndex) ResetDeviceStats() {
	ix.sx.ResetDeviceStats()
}
