// Package secidx is a Go implementation of the secondary indexing data
// structures of Pagh and Rao, "Secondary Indexing in One Dimension: Beyond
// B-trees and Bitmap Indexes" (PODS 2009).
//
// A secondary index stores a column x ∈ Σⁿ (x[i] is the key of row i) and
// answers alphabet range queries I[lo;hi] = { i | x[i] ∈ [lo,hi] },
// returning the row set in compressed form. The package provides:
//
//   - Index: the static structure of Theorem 2 — space within a constant
//     factor of the column's 0th-order entropy, queries that read within a
//     constant factor of the compressed answer size — with the approximate
//     (Bloom-filter-like) queries of Theorem 3.
//   - AppendIndex: the semi-dynamic structures of Theorems 4–5 (append-only
//     columns, as in OLAP ingest), direct or buffered.
//   - DynamicIndex: the fully dynamic structure of Theorem 7 (change and
//     delete arbitrary rows).
//
// All structures run on a simulated external-memory device that counts
// block I/Os — the paper's cost model — so every operation reports its
// Reads/Writes alongside the result.
package secidx

import (
	"context"
	"fmt"

	"repro/internal/cbitmap"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Stats reports the I/O-model cost of one operation: distinct blocks read
// and written, and the number of compressed bits consumed. For batch
// operations the stats are batch-level: Reads charges each distinct block
// once for the whole batch, and SharedSaved reports the block reads the
// shared-scan planner avoided versus running every query in its own session
// (Reads + SharedSaved is the looped-query cost of the same batch on a
// cache-less device).
//
// On a fault-injecting device (Options.Faults) two more counters are
// live: FailedReads counts device read attempts that failed — including
// transient failures that a later retry recovered — and RetriedReads counts
// whole-shard attempts the retry layer re-issued. A fault-free run reports
// zero for both.
type Stats = index.QueryStats

// Result is a query answer: a compressed set of row ids.
type Result struct {
	bm *cbitmap.Bitmap
}

// Card returns the number of rows in the result.
func (r *Result) Card() int64 { return r.bm.Card() }

// Rows materialises the result as a sorted row-id slice.
func (r *Result) Rows() []int64 { return r.bm.Positions() }

// ForEach calls yield for every row id in increasing order, decoding the
// compressed answer in place, and stops early if yield returns false. It is
// the allocation-free way to consume a result: nothing is materialised, in
// keeping with the streaming query pipeline that produced it.
func (r *Result) ForEach(yield func(row int64) bool) {
	it := r.bm.Iter()
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		if !yield(p) {
			return
		}
	}
}

// Contains reports whether row i is in the result.
func (r *Result) Contains(i int64) bool { return r.bm.Contains(i) }

// SizeBits returns the compressed size of the result.
func (r *Result) SizeBits() int { return r.bm.SizeBits() }

// Intersect returns rows present in both results.
func (r *Result) Intersect(other *Result) (*Result, error) {
	bm, err := cbitmap.Intersect(r.bm, other.bm)
	if err != nil {
		return nil, err
	}
	return &Result{bm: bm}, nil
}

// Union returns rows present in either result.
func (r *Result) Union(other *Result) (*Result, error) {
	bm, err := cbitmap.Union(r.bm, other.bm)
	if err != nil {
		return nil, err
	}
	return &Result{bm: bm}, nil
}

// Options configures index construction.
type Options struct {
	// BlockBits is the simulated device's block size B in bits
	// (default 32768 = 4 KiB).
	BlockBits int
	// Branching is the weight-balanced tree's branching parameter c > 4
	// (default 8).
	Branching int
	// Stride is the level-materialisation stride (default 2, the paper's
	// 1, 2, 4, 8, … scheme; 1 materialises every level).
	Stride int
	// Seed seeds the hash functions used by approximate queries. Indexes
	// over different columns of the same table must share a Seed for their
	// approximate results to intersect cheaply.
	Seed int64
	// Buffered selects Theorem 5 (buffered appends) for AppendIndex.
	Buffered bool
	// Faults, when non-nil, gives the device a deterministic fault
	// schedule. The schedule is built disarmed: construction never faults;
	// call ArmFaults on the built index to start injecting.
	Faults *FaultConfig
	// Concurrent enables snapshot-isolated concurrent reads on AppendIndex
	// and DynamicIndex: writers serialize with each other, and after every
	// applied operation publish an immutable epoch (copy-on-write device
	// freeze plus a metadata clone) that queries and Snapshot pin without
	// locking, so reads never block on writes and always observe the state
	// at exactly some applied operation. Off by default: publication copies
	// metadata per operation, and the experiments' pinned I/O tables assume
	// the bare single-threaded device.
	Concurrent bool
}

// approx is the core configuration of a static index built or reopened under o.
func (o Options) approx() core.ApproxOptions {
	return core.ApproxOptions{OptimalOptions: core.OptimalOptions{Branching: o.Branching, Stride: o.Stride}, Seed: o.Seed}
}

// diskImage is a serialised device image: what a writable reopen
// materialises its in-memory disk from.
type diskImage struct {
	tailBits int64
	data     []byte
	free     []iomodel.BlockID
}

// device creates the in-memory simulated disk an index runs on — fresh, or
// materialised from img on a writable reopen — with an LRU cache of
// cacheBlocks blocks and, when o.Faults is set, its (disarmed) fault
// schedule. Validation runs through iomodel.Config.Validate, so a bad
// BlockBits surfaces as an error instead of a panic.
func (o Options) device(cacheBlocks int, img *diskImage) (d *iomodel.Disk, err error) {
	cfg := iomodel.Config{BlockBits: o.BlockBits, CacheBlocks: cacheBlocks, Faults: o.Faults}
	if img != nil {
		d, err = iomodel.NewDiskFromImage(cfg, img.tailBits, img.data, img.free)
	} else {
		d, err = iomodel.NewDiskChecked(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("secidx: %w", err)
	}
	return d, nil
}

// queryable is the one read contract every index kind offers the façade:
// the static, sharded, append and dynamic structures, live or frozen into
// an epoch, all answer a range with a compressed row set and its I/O cost.
type queryable interface {
	QueryContext(ctx context.Context, r index.Range) (*cbitmap.Bitmap, index.QueryStats, error)
}

// runQuery answers I[lo;hi] on q and wraps the answer. Stats are populated
// even on error.
func runQuery(ctx context.Context, q queryable, lo, hi uint32) (*Result, Stats, error) {
	bm, st, err := q.QueryContext(ctx, Range{Lo: lo, Hi: hi})
	if err != nil {
		return nil, st, err
	}
	return &Result{bm: bm}, st, nil
}

// Index is the static secondary index of Theorems 2 and 3: a ShardedIndex
// with one shard, plus the hashed levels that only its approximate queries
// read (the shards of BuildSharded are exact-only).
type Index struct {
	static
	ax *core.Approx
}

// Build constructs a static index over data (values in [0,sigma)) on one
// device, assembled as a one-shard index the way OpenFile reopens it.
func Build(data []uint32, sigma int, opts Options) (*Index, error) {
	d, err := opts.device(0, nil)
	if err != nil {
		return nil, err
	}
	ax, err := core.BuildApprox(d, workload.Column{X: data, Sigma: sigma}, opts.approx())
	if err != nil {
		return nil, err
	}
	sx, err := shard.Assemble([]shard.Part{{Ax: ax, Disk: d, End: ax.Len()}}, ax.Len(), sigma, 0)
	if err != nil {
		return nil, err
	}
	return &Index{static: static{sx: sx, opts: opts, kind: container.KindStatic}, ax: ax}, nil
}

// SpaceLedger itemises where a static index's (or one shard's) bits go: the
// exact levels, the hashed levels of Theorem 3, the prefix array, the tree
// structure, padding and the member directory, beside the column's entropy.
type SpaceLedger = core.SpaceLedger

// SpaceLedger decomposes SizeBits (cmd/secidx -inspect prints it).
func (ix *Index) SpaceLedger() SpaceLedger { return ix.ax.SpaceLedger() }

// QueryExec answers I[lo;hi] with fault-tolerant execution: transient
// device-read failures are retried under opts.Retry with exponential
// backoff, honouring ctx during waits. Permanent and corruption faults are
// not retried (re-reading cannot help), and AllowPartial has no effect —
// a single device has nothing to degrade to. Stats accumulate over every
// attempt: FailedReads counts the faulted device reads, RetriedReads the
// re-issued query attempts, mirroring the sharded counters.
func (ix *Index) QueryExec(ctx context.Context, lo, hi uint32, opts QueryOptions) (*Result, Stats, error) {
	res, st, _, err := ix.execQuery(ctx, lo, hi, QueryOptions{Retry: opts.Retry})
	return res, st, err
}

// ApproxResult is the answer of an approximate query: a superset of the
// true rows where each non-matching row appears with probability at most
// the query's eps. Membership tests and intersections cost no further I/O.
type ApproxResult struct {
	res *core.Result
}

// IsExact reports whether the result carries no false positives.
func (r *ApproxResult) IsExact() bool { return r.res.IsExact() }

// Contains reports whether row i is admitted by the result.
func (r *ApproxResult) Contains(i int64) bool { return r.res.Contains(i) }

// CandidateCount returns the number of rows the result admits.
func (r *ApproxResult) CandidateCount() int64 { return r.res.CandidateCount() }

// Rows materialises the admitted rows (true matches plus false positives).
func (r *ApproxResult) Rows() ([]int64, error) {
	bm, err := r.res.Candidates()
	if err != nil {
		return nil, err
	}
	return bm.Positions(), nil
}

// IntersectApprox intersects approximate results (across indexes built with
// the same Seed) without I/O — the paper's preimage-of-the-intersection.
func IntersectApprox(rs ...*ApproxResult) (*ApproxResult, error) {
	inner := make([]*core.Result, len(rs))
	for i, r := range rs {
		inner[i] = r.res
	}
	out, err := core.Intersect(inner...)
	if err != nil {
		return nil, err
	}
	return &ApproxResult{res: out}, nil
}

// ApproxQuery answers I[lo;hi] with false-positive probability at most eps
// per non-matching row (Theorem 3), reading O(z lg(1/eps)) bits instead of
// O(z lg(n/z)).
func (ix *Index) ApproxQuery(lo, hi uint32, eps float64) (*ApproxResult, Stats, error) {
	return ix.ApproxQueryContext(context.Background(), lo, hi, eps)
}

// ApproxQueryContext answers like ApproxQuery, honouring ctx.
func (ix *Index) ApproxQueryContext(ctx context.Context, lo, hi uint32, eps float64) (*ApproxResult, Stats, error) {
	res, st, err := ix.ax.ApproxQueryContext(ctx, Range{Lo: lo, Hi: hi}, eps)
	if err != nil {
		return nil, st, err
	}
	return &ApproxResult{res: res}, st, nil
}

// AppendIndex is the semi-dynamic index of Theorem 4 (or Theorem 5 when
// Options.Buffered is set): rows may only be appended, the regime of OLAP
// and scientific data ("typically read and append only").
//
// Concurrency contract: with Options.Concurrent (or OpenOptions.Concurrent)
// set, any number of goroutines may call Query/QueryContext/Snapshot
// concurrently with each other and with Append from any number of
// goroutines; writers serialize internally and every read observes the
// state at exactly some applied operation. Without Concurrent the handle is
// single-threaded: Append must not race with anything, and only concurrent
// Query/Query races are safe. ArmFaults/DisarmFaults are always safe to
// call concurrently with everything.
type AppendIndex struct {
	ax *core.AppendIndex
	handle
}

// newAppendIndex wraps a built or reopened core index in its handle.
func newAppendIndex(ax *core.AppendIndex, d *iomodel.Disk, opts Options) *AppendIndex {
	ix := &AppendIndex{ax: ax, handle: handle{live: ax, disk: d, opts: opts}}
	ix.kind = ix
	return ix
}

// BuildAppend constructs a semi-dynamic index over an initial column.
func BuildAppend(data []uint32, sigma int, opts Options) (*AppendIndex, error) {
	d, err := opts.device(0, nil)
	if err != nil {
		return nil, err
	}
	ax, err := core.BuildAppendIndex(d, workload.Column{X: data, Sigma: sigma}, core.AppendOptions{
		Branching: opts.Branching,
		Stride:    opts.Stride,
		Buffered:  opts.Buffered,
	})
	if err != nil {
		return nil, err
	}
	ix := newAppendIndex(ax, d, opts)
	if opts.Concurrent {
		if err := ix.goConcurrent(0); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Append appends a row with key ch. On a handle reopened writable
// (OpenOptions.WAL) the operation is write-ahead logged before it is
// applied; acknowledgement follows the handle's SyncPolicy (group-committed
// across concurrent writers on a Concurrent handle). On a concurrent handle
// the new state is published as an epoch before Append returns, so any
// query starting after the return observes it.
func (ix *AppendIndex) Append(ch uint32) (Stats, error) {
	return ix.apply(walOp{op: opAppend, ch: ch})
}

func (ix *AppendIndex) validateOp(op walOp) error { return ix.ax.ValidateAppend(op.ch) }

func (ix *AppendIndex) applyOp(op walOp) (Stats, error) {
	// Append only ever builds opAppend; a replayed log can hold anything.
	if op.op != opAppend {
		return Stats{}, fmt.Errorf("operation %d invalid for an append index", op.op)
	}
	return ix.ax.Append(op.ch)
}

func (ix *AppendIndex) cloneReadOnly(dev *iomodel.Disk) (queryable, error) {
	return ix.ax.CloneReadOnly(dev)
}

// Len returns the current number of rows.
func (ix *AppendIndex) Len() int64 { return ix.ax.Len() }

// SizeBits returns the index's space usage in bits.
func (ix *AppendIndex) SizeBits() int64 { return ix.ax.SizeBits() }

// DynamicIndex is the fully dynamic index of Theorem 7.
//
// Concurrency contract: identical to AppendIndex — with Concurrent set,
// reads (Query/QueryContext/Snapshot) are safe against each other and
// against Append/Change/Delete from any number of goroutines, and every
// read observes the state at exactly some applied operation; without it the
// handle is single-threaded apart from concurrent read-only queries.
// Position translation (RawToLive/LiveToRaw/LiveLen) is part of the write
// path's state and is not snapshot-isolated.
type DynamicIndex struct {
	dx *core.Dynamic
	handle
}

// newDynamicIndex wraps a built or reopened core index in its handle.
func newDynamicIndex(dx *core.Dynamic, d *iomodel.Disk, opts Options) *DynamicIndex {
	ix := &DynamicIndex{dx: dx, handle: handle{live: dx, disk: d, opts: opts}}
	ix.kind = ix
	return ix
}

// BuildDynamic constructs a fully dynamic index over an initial column.
func BuildDynamic(data []uint32, sigma int, opts Options) (*DynamicIndex, error) {
	d, err := opts.device(0, nil)
	if err != nil {
		return nil, err
	}
	dx, err := core.BuildDynamic(d, workload.Column{X: data, Sigma: sigma}, core.DynamicOptions{
		Branching: opts.Branching,
		Stride:    opts.Stride,
	})
	if err != nil {
		return nil, err
	}
	ix := newDynamicIndex(dx, d, opts)
	if opts.Concurrent {
		if err := ix.goConcurrent(0); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Change sets row i's key to ch. On a handle reopened writable
// (OpenOptions.WAL) the operation is write-ahead logged before it is
// applied; acknowledgement follows the handle's SyncPolicy.
func (ix *DynamicIndex) Change(i int64, ch uint32) (Stats, error) {
	return ix.apply(walOp{op: opChange, i: i, ch: ch})
}

// Delete removes row i from all future query answers (row ids of other
// rows are unchanged, the paper's deletion semantics). Write-ahead logged
// on a writable handle, like Change.
func (ix *DynamicIndex) Delete(i int64) (Stats, error) {
	return ix.apply(walOp{op: opDelete, i: i})
}

// Append appends a row with key ch. Write-ahead logged on a writable
// handle, like Change.
func (ix *DynamicIndex) Append(ch uint32) (Stats, error) {
	return ix.apply(walOp{op: opAppend, ch: ch})
}

func (ix *DynamicIndex) validateOp(op walOp) error {
	switch op.op {
	case opAppend:
		return ix.dx.ValidateAppend(op.ch)
	case opChange:
		return ix.dx.ValidateChange(op.i, op.ch)
	case opDelete:
		return ix.dx.ValidateDelete(op.i)
	}
	return fmt.Errorf("unknown operation %d", op.op)
}

func (ix *DynamicIndex) applyOp(op walOp) (Stats, error) {
	switch op.op {
	case opAppend:
		return ix.dx.Append(op.ch)
	case opChange:
		return ix.dx.Change(op.i, op.ch)
	case opDelete:
		return ix.dx.Delete(op.i)
	}
	return Stats{}, fmt.Errorf("unknown operation %d", op.op)
}

func (ix *DynamicIndex) cloneReadOnly(dev *iomodel.Disk) (queryable, error) {
	return ix.dx.CloneReadOnly(dev), nil
}

// Len returns the current number of rows (including deleted ones, whose
// ids remain stable).
func (ix *DynamicIndex) Len() int64 { return ix.dx.Len() }

// LiveLen returns the number of non-deleted rows.
func (ix *DynamicIndex) LiveLen() int64 { return ix.dx.Translator().Live() }

// RawToLive translates a stable row id into its ordinal among surviving
// rows (the paper's "more natural semantics where character positions are
// always relative to the current string"). live is false if row i is
// deleted.
func (ix *DynamicIndex) RawToLive(i int64) (pos int64, live bool, err error) {
	pos, live, _, err = ix.dx.Translator().RawToLive(i)
	return pos, live, err
}

// LiveToRaw translates a live ordinal back to the stable row id.
func (ix *DynamicIndex) LiveToRaw(live int64) (int64, error) {
	raw, _, err := ix.dx.Translator().LiveToRaw(live)
	return raw, err
}

// SizeBits returns the index's space usage in bits.
func (ix *DynamicIndex) SizeBits() int64 { return ix.dx.SizeBits() }
