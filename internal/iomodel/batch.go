package iomodel

import "repro/internal/bitio"

// BatchTouch is the accounting session of a shared-scan batch: one Touch
// charges each distinct block once for the whole batch, while the batch
// additionally attributes blocks to per-query "consumers" so the sharing win
// is measurable. The bookkeeping answers two questions exactly:
//
//   - Reads(): the blocks the batch actually paid for — the Aggarwal–Vitter
//     cost of the batch, which for a shared-scan planner is the blocks of the
//     union of the queries' extents rather than the sum.
//   - SharedSaved(): the block reads the batch avoided versus running every
//     query in its own session — the sum over consumers of their distinct
//     attributed blocks, minus the distinct blocks attributed overall. This
//     is deliberately independent of the block cache: a cache hit is a block
//     resident from an earlier operation, a shared read is one batch reading
//     a block once for several of its own queries, and Stats reports the two
//     separately.
//
// The session is used by one goroutine (concurrent batches each open their
// own); only the device counters it feeds are shared. Sessions are pooled on
// the Disk like Touch sessions, and the per-consumer sets keep their bucket
// storage across batches, so a steady-state batch reuses all of its
// bookkeeping.
type BatchTouch struct {
	t *Touch
	d *Disk
	// consumers[q] holds the distinct blocks attributed to consumer q —
	// exactly the blocks query q's own Touch session would have read.
	consumers []map[BlockID]struct{}
	ncons     int // consumers in use this batch
	cur       int
	// noted is the union of all consumers' blocks.
	noted map[BlockID]struct{}
	// perConsumer is the running sum of len(consumers[q]) over all q.
	perConsumer int64
}

// NewBatchTouch opens a batch session on the disk, reusing a Closed one
// when available.
func (d *Disk) NewBatchTouch() *BatchTouch {
	if bt, ok := d.batches.Get().(*BatchTouch); ok {
		bt.t = d.NewTouch()
		return bt
	}
	return &BatchTouch{d: d, t: d.NewTouch(), cur: -1, noted: make(map[BlockID]struct{})}
}

// StartConsumer directs subsequent attribution at consumer q (0-based).
// Consumers may be revisited: a planner typically attributes each query's
// plan-phase reads first and its scan extents later, and both must land in
// the same per-query block set for the saved count to be exact.
func (bt *BatchTouch) StartConsumer(q int) {
	for len(bt.consumers) <= q {
		bt.consumers = append(bt.consumers, nil)
	}
	if bt.consumers[q] == nil {
		bt.consumers[q] = make(map[BlockID]struct{})
	}
	if q >= bt.ncons {
		bt.ncons = q + 1
	}
	bt.cur = q
}

// note attributes the blocks [from,to] to the current consumer.
func (bt *BatchTouch) note(from, to BlockID) {
	if bt.cur < 0 {
		return
	}
	set := bt.consumers[bt.cur]
	for b := from; b <= to; b++ {
		if _, ok := set[b]; ok {
			continue
		}
		set[b] = struct{}{}
		bt.perConsumer++
		bt.noted[b] = struct{}{}
	}
}

// ReadBits reads n bits at pos, charging the batch session and attributing
// the spanned blocks to the current consumer. This is the path for per-query
// point reads (prefix-array entries, tree-structure charges).
func (bt *BatchTouch) ReadBits(pos int64, n int) (uint64, error) {
	v, err := bt.t.ReadBits(pos, n)
	if err == nil && n > 0 {
		bt.note(bt.d.blockOf(pos), bt.d.blockOf(pos+int64(n)-1))
	}
	return v, err
}

// ReadExtent materialises ext into w like Touch.ReaderInto, charging the
// batch session but attributing nothing: a coalesced extent serves several
// consumers, each of which claims its own sub-extent through NoteExtent.
func (bt *BatchTouch) ReadExtent(ext Extent, w *bitio.Writer) error {
	return bt.t.ReaderInto(ext, w)
}

// NoteExtent attributes ext's blocks to the current consumer without reading
// anything: the bits were already materialised by a ReadExtent covering ext.
func (bt *BatchTouch) NoteExtent(ext Extent) {
	if ext.Bits == 0 {
		return
	}
	bt.note(bt.d.blockOf(ext.Off), bt.d.blockOf(ext.End()-1))
}

// Reads returns the block reads the whole batch paid for (distinct blocks,
// minus cache hits when the device has a block cache).
func (bt *BatchTouch) Reads() int { return bt.t.Reads() }

// Writes returns the distinct blocks written in the session.
func (bt *BatchTouch) Writes() int { return bt.t.Writes() }

// Stable reports Touch.Stable of the batch's session.
func (bt *BatchTouch) Stable() bool { return bt.t.Stable() }

// SharedSaved returns the block reads avoided by sharing: the sum over
// consumers of their distinct blocks minus the distinct blocks overall.
func (bt *BatchTouch) SharedSaved() int {
	return int(bt.perConsumer) - len(bt.noted)
}

// FailedReads returns the session's failed device read attempts (always 0 on
// a plain Disk).
func (bt *BatchTouch) FailedReads() int { return bt.t.FailedReads() }

// batchPoolMaxBlocks bounds the sessions returned to the pool, mirroring
// touchPoolMaxBlocks: a huge batch leaves maps whose buckets never shrink,
// so oversized sessions are dropped for the garbage collector. Every
// consumer set is a subset of noted, so bounding noted bounds them all.
const batchPoolMaxBlocks = 512

// Close publishes the saved count to the device's cumulative Stats, returns
// the underlying Touch to its pool and recycles the session's bookkeeping.
// Read the counters first; the session must not be used afterwards.
func (bt *BatchTouch) Close() {
	bt.d.stats.SharedSaved.Add(int64(bt.SharedSaved()))
	bt.t.Close()
	bt.t = nil
	if len(bt.noted) > batchPoolMaxBlocks || len(bt.consumers) > batchPoolMaxBlocks {
		return
	}
	clear(bt.noted)
	for i := 0; i < bt.ncons; i++ {
		clear(bt.consumers[i])
	}
	bt.ncons = 0
	bt.cur = -1
	bt.perConsumer = 0
	bt.d.batches.Put(bt)
}
