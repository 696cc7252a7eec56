package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// Pooled scratch for the fused streaming pipelines. The read path (queries)
// and the write path (builds, rebuilds, chain appends) share the same
// discipline: per-operation state lives in sync.Pools, so steady-state
// operations allocate little beyond what they return or persist.

// chunkBuf holds one materialised extent or chain: the pooled writer the
// bits are copied into and a reader over them. Reusing the writer across
// operations makes extent and chain reads allocation-free at steady state.
type chunkBuf struct {
	w *bitio.Writer
	r bitio.Reader
}

func newChunkBuf() *chunkBuf { return &chunkBuf{w: bitio.NewWriter(0)} }

// queryScratch is the pooled per-query state of the fused streaming
// pipeline: the query's plan, one decode stream per cover member, and the
// extent buffers the streams read from. A query borrows a scratch, plans
// into it, reads its spans, merges, and releases — so the steady-state query
// path allocates little beyond the answer it returns. The updatable kinds
// also gather the positions their update buffers hold into one overlay.
type queryScratch struct {
	plan    QueryPlan
	streams []cbitmap.Stream
	ptrs    []*cbitmap.Stream
	lasts   []int64 // member lasts: one chunk's (readFrontier), a batch's runs' (QueryBatch)
	bufs    []*chunkBuf
	used    int // bufs handed out this query

	overlay []int64    // positions merged as one in-memory stream (addOverlay)
	leaves  []*pnode   // one point-index descent's leaves, in key order (collect)
	pending []pentry   // the updates that descent found buffered for its bins
	appends []dynEntry // one append-member buffer's entries (queryCharStreams)
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch { return scratchPool.Get().(*queryScratch) }

func (sc *queryScratch) release() {
	sc.reset()
	scratchPool.Put(sc)
}

// reset empties the scratch for its pool. The stream structs are cleared
// before truncating: they reference the chunk buffers, and an idle pool
// entry should retain only the buffers it owns (sc.bufs), not stale views of
// them.
func (sc *queryScratch) reset() {
	clear(sc.streams)
	clear(sc.ptrs)
	clear(sc.leaves)
	sc.streams = sc.streams[:0]
	sc.ptrs = sc.ptrs[:0]
	sc.lasts = sc.lasts[:0]
	sc.overlay = sc.overlay[:0]
	sc.leaves = sc.leaves[:0]
	sc.pending = sc.pending[:0]
	sc.appends = sc.appends[:0]
	sc.used = 0
	sc.plan.reset()
}

// nextBuf hands out a reset chunk buffer, growing the pool of buffers the
// first time a query needs more chunks than any before it.
func (sc *queryScratch) nextBuf() *chunkBuf {
	if sc.used == len(sc.bufs) {
		sc.bufs = append(sc.bufs, newChunkBuf())
	}
	cb := sc.bufs[sc.used]
	sc.used++
	return cb
}

// memberDir is one level's member directory as the extent reader sees it:
// the exact sets of a materialised level or one of its hashed arrays, which
// tile the device in the same member order.
type memberDir interface {
	// entry returns member k's extent and cardinality.
	entry(k int) (iomodel.Extent, int64)
}

// spanOf returns the one extent holding members [i,j) of dir, which are
// contiguous on the device: first member's offset to last member's end.
func spanOf(dir memberDir, i, j int) iomodel.Extent {
	first, _ := dir.entry(i)
	last, _ := dir.entry(j - 1)
	return iomodel.Extent{Off: first.Off, Bits: last.End() - first.Off}
}

// readSpan is the extent reader under every static query: it reads the span
// of members [i,j) of dir — through read, a Touch's ReaderInto or a batch
// session's ReadExtent — into a pooled buffer, which it returns with the
// span it holds.
func (sc *queryScratch) readSpan(read func(iomodel.Extent, *bitio.Writer) error, dir memberDir, i, j int, stats *index.QueryStats) (*chunkBuf, iomodel.Extent, error) {
	span := spanOf(dir, i, j)
	cb := sc.nextBuf()
	if err := read(span, cb.w); err != nil {
		return nil, span, err
	}
	cb.r.Init(cb.w.Bytes(), cb.w.Len())
	stats.BitsRead += span.Bits
	return cb, span, nil
}

// appendStreams appends one decode stream per member of chunk c in dir, each
// a view of its own bit range of cb, which holds the device's bits from
// offset base on: no member bitmap is materialised, and the downstream merge
// decodes each gap exactly once. A stream validates its positions against
// [0,univ) while it is merged, unless a shared scan already did and recorded
// the member's largest position in lasts (indexed from c.I; nil: none did).
func (sc *queryScratch) appendStreams(cb *chunkBuf, base int64, dir memberDir, c PlanChunk, univ int64, lasts []int64) error {
	for k := c.I; k < c.J; k++ {
		ext, card := dir.entry(k)
		var s cbitmap.Stream
		var err error
		if lasts != nil && lasts[k-c.I] != lastUnknown {
			err = s.InitDecodeValidated(&cb.r, int(ext.Off-base), int(ext.Bits), card, lasts[k-c.I], 0)
		} else {
			err = s.InitDecode(&cb.r, int(ext.Off-base), int(ext.Bits), card, univ, 0)
		}
		if err != nil {
			return fmt.Errorf("core: level %d member %d (universe %d): %w", c.Level, k, univ, err)
		}
		sc.streams = append(sc.streams, s)
	}
	return nil
}

// readFrontier executes the read half of a plan against one copy of the
// members — dirOf(level) names the exact sets or the j-th hashed ones: one
// span read per chunk, one stream per member. An exact member whose bits a
// stable session validated before is opened as a replay view, provided the
// session is still stable after reading this chunk's bits. ctx is checked
// between chunks, the cancellation granularity of a single query.
func (sc *queryScratch) readFrontier(ctx context.Context, tc *iomodel.Touch, chunks []PlanChunk, dirOf func(level int) memberDir, univ int64, stats *index.QueryStats) error {
	for _, c := range chunks {
		if err := ctx.Err(); err != nil {
			return err
		}
		dir := dirOf(c.Level)
		cb, span, err := sc.readSpan(tc.ReaderInto, dir, c.I, c.J, stats)
		if err != nil {
			return err
		}
		var lasts []int64
		if lv, ok := dir.(*matLevel); ok && tc.Stable() {
			sc.lasts = lv.knownLasts(sc.lasts[:0], c.I, c.J)
			lasts = sc.lasts
		}
		if err := sc.appendStreams(cb, span.Off, dir, c, univ, lasts); err != nil {
			return err
		}
	}
	return nil
}

// addOverlay appends the overlay to the merge inputs as one stream over
// [0,n): the positions are sorted, deduplicated and gap-encoded into a pooled
// chunk buffer, and the merge validates them against [0,n) as it validates a
// member read from the device.
func (sc *queryScratch) addOverlay(n int64) error {
	if len(sc.overlay) == 0 {
		return nil
	}
	slices.Sort(sc.overlay)
	pos := slices.Compact(sc.overlay)
	cb := sc.nextBuf()
	cb.w.Reset()
	var e cbitmap.StreamEncoder
	e.Init(cb.w)
	cbitmap.AddSorted(&e, pos)
	cb.r.Init(cb.w.Bytes(), cb.w.Len())
	var s cbitmap.Stream
	if err := s.InitDecode(&cb.r, 0, cb.w.Len(), int64(len(pos)), n, 0); err != nil {
		return fmt.Errorf("core: update overlay: %w", err)
	}
	sc.streams = append(sc.streams, s)
	return nil
}

// streamPtrs returns one pointer per accumulated stream; it is taken only
// after every stream is appended, since appends may move the backing array.
func (sc *queryScratch) streamPtrs() []*cbitmap.Stream {
	sc.ptrs = sc.ptrs[:0]
	for i := range sc.streams {
		sc.ptrs = append(sc.ptrs, &sc.streams[i])
	}
	return sc.ptrs
}

// merge runs the fused decode-merge pass over the accumulated streams; with
// complement they cover the rows outside the answer and the same pass
// inverts their union (§2.1); with ordered they are the exact frontier of a
// QueryPlan.Ordered plan, disjoint and increasing as accumulated.
func (sc *queryScratch) merge(n int64, complement, ordered bool) (*cbitmap.Bitmap, error) {
	switch {
	case complement:
		return cbitmap.MergeStreamsComplement(n, sc.streamPtrs()...)
	case ordered:
		return cbitmap.MergeStreamsOrdered(n, sc.streamPtrs()...)
	}
	return cbitmap.MergeStreams(n, sc.streamPtrs()...)
}

// chainWriterPool recycles the bitio.Writers the dynamic write path encodes
// into before handing bits to a chain or extent: member rebuilds, single
// appends, buffer flushes and level emissions all borrow one, write, persist
// and return it — the write-path counterpart of the query pipeline's pooled
// chunk buffers.
var chainWriterPool = sync.Pool{New: func() any { return bitio.NewWriter(0) }}

// chainWriterMaxBytes bounds the buffers returned to the pool: a level-wide
// build emission or a large member re-encode can grow a writer to megabytes,
// and pooling it would pin that memory behind every later one-gap append
// (the same oversized-pooled-object hazard iomodel's Touch pool guards
// against). Oversized writers are dropped for the garbage collector.
const chainWriterMaxBytes = 1 << 18

func getChainWriter() *bitio.Writer {
	w := chainWriterPool.Get().(*bitio.Writer)
	w.Reset()
	return w
}

func putChainWriter(w *bitio.Writer) {
	if cap(w.Bytes()) > chainWriterMaxBytes {
		return
	}
	chainWriterPool.Put(w)
}
