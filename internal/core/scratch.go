package core

import (
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

// queryScratch is the pooled per-operation state of the fused streaming
// pipeline: the plans execute answers, the per-level request and run tables
// it coalesces them into, one decode stream per member of the plan being
// merged (one concatenation member for an ordered plan), and the extent
// buffers they read from. A query — a batch of
// one plan — or a batch borrows a scratch, plans into it, executes and
// releases, so the steady-state query path allocates little beyond the
// answers it returns. The updatable kinds also gather the positions their
// update buffers hold into one overlay.
type queryScratch struct {
	plans   []QueryPlan
	byLevel [][]memberRun     // each level's requested runs (execute)
	runs    [][]planRun       // each level's coalesced runs (execute)
	lasts   []int64           // the runs' member lasts, carved into them
	answers []*cbitmap.Bitmap // one per plan, in plan order
	streams []cbitmap.Stream
	ptrs    []*cbitmap.Stream
	members []cbitmap.Member // an ordered plan's (appendMembers)
	bufs    []*chunkBuf
	used    int  // bufs handed out this operation
	lazy    bool // merge without skip samples (Optimal.QueryParts)

	overlay []int64    // positions merged as one in-memory stream (addOverlay)
	leaves  []*pnode   // one point-index descent's leaves, in key order (collect)
	pending []pentry   // the updates that descent found buffered for its bins
	appends []dynEntry // one append-member buffer's entries (queryCharStreams)
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch { return scratchPool.Get().(*queryScratch) }

// scratchBufMaxBytes bounds the extent buffers a pooled scratch keeps: a wide
// query or batch can read near-whole-level extents, and pooling those would
// pin megabytes behind every later small query (the same oversized-pooled-
// object hazard the Touch, chain-writer and decode-scratch pools guard
// against). Oversized buffers are dropped for the collector.
const scratchBufMaxBytes = 1 << 20

// release empties the scratch and returns it to its pool. The stream
// structs, run tables and answers are cleared before truncating: they
// reference the chunk buffers and the answers handed out, and an idle pool
// entry should retain only the buffers it owns (sc.bufs), not stale views of
// them.
func (sc *queryScratch) release() {
	clear(sc.streams)
	clear(sc.ptrs)
	clear(sc.members)
	clear(sc.leaves)
	clear(sc.answers)
	for i := range sc.runs {
		clear(sc.runs[i])
		sc.runs[i] = sc.runs[i][:0]
	}
	sc.streams = sc.streams[:0]
	sc.ptrs = sc.ptrs[:0]
	sc.members = sc.members[:0]
	sc.lasts = sc.lasts[:0]
	sc.answers = sc.answers[:0]
	sc.overlay = sc.overlay[:0]
	sc.leaves = sc.leaves[:0]
	sc.pending = sc.pending[:0]
	sc.appends = sc.appends[:0]
	sc.used = 0
	sc.lazy = false
	kept := sc.bufs[:0]
	for _, cb := range sc.bufs {
		if cap(cb.w.Bytes()) <= scratchBufMaxBytes {
			kept = append(kept, cb)
		}
	}
	clear(sc.bufs[len(kept):])
	sc.bufs = kept
	scratchPool.Put(sc)
}

// growPlans returns k reset plans, reusing each plan's chunk storage.
func (sc *queryScratch) growPlans(k int) []QueryPlan {
	for len(sc.plans) < k {
		sc.plans = append(sc.plans, QueryPlan{})
	}
	for i := range k {
		sc.plans[i].reset()
	}
	return sc.plans[:k]
}

// growLevels returns the per-level request and run tables sized to k levels.
func (sc *queryScratch) growLevels(k int) ([][]memberRun, [][]planRun) {
	for len(sc.runs) < k {
		sc.byLevel, sc.runs = append(sc.byLevel, nil), append(sc.runs, nil)
	}
	for i := range k {
		sc.byLevel[i], sc.runs[i] = sc.byLevel[i][:0], sc.runs[i][:0]
	}
	return sc.byLevel[:k], sc.runs[:k]
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
	// entry returns member i's extent, cardinality and exp-Golomb order.
	entry(i int) (iomodel.Extent, int64, uint)
}

// spanOf returns the one extent holding members [i,j) of dir, which are
// contiguous on the device: first member's offset to last member's end.
func spanOf(dir memberDir, i, j int) iomodel.Extent {
	first, _, _ := dir.entry(i)
	last, _, _ := dir.entry(j - 1)
	return iomodel.Extent{Off: first.Off, Bits: last.End() - first.Off}
}

// readSpan is the extent reader under every static query: it reads the span
// of members [i,j) of dir through tc, which attributes nothing to a batch's
// consumers here, into a pooled buffer, which it returns with the span it
// holds.
func (sc *queryScratch) readSpan(tc *iomodel.Touch, dir memberDir, i, j int, stats *index.QueryStats) (*chunkBuf, iomodel.Extent, error) {
	span := spanOf(dir, i, j)
	cb := sc.nextBuf()
	if err := tc.ReaderInto(span, cb.w); err != nil {
		return nil, span, err
	}
	cb.r.Init(cb.w.Bytes(), cb.w.Len())
	stats.BitsRead += span.Bits
	return cb, span, nil
}

// newStream appends a zero decode stream and returns it for the caller to
// initialise in place: a Stream is a struct of some hundred bytes, which a
// local initialised and then appended would copy. The pointer is good until
// the next append.
func (sc *queryScratch) newStream() *cbitmap.Stream {
	sc.streams = append(sc.streams, cbitmap.Stream{})
	return &sc.streams[len(sc.streams)-1]
}

// appendStreams appends one decode stream per member of chunk c in dir, each
// a view of its own bit range of cb, which holds the device's bits from
// offset base on: no member bitmap is materialised, and the downstream merge
// decodes each gap exactly once. A stream validates its positions against
// [0,univ) while it is merged, unless an earlier stable session already did
// and lasts holds the member's largest position (indexed from c.I; nil: none
// did).
func (sc *queryScratch) appendStreams(cb *chunkBuf, base int64, dir memberDir, c PlanChunk, univ int64, lasts []int64) error {
	for k := c.I; k < c.J; k++ {
		ext, card, order := dir.entry(k)
		s := sc.newStream()
		var err error
		if lasts != nil && lasts[k-c.I] != lastUnknown {
			err = s.InitDecodeValidated(&cb.r, int(ext.Off-base), int(ext.Bits), card, lasts[k-c.I], 0, order)
		} else {
			err = s.InitDecode(&cb.r, int(ext.Off-base), int(ext.Bits), card, univ, 0, order)
		}
		if err != nil {
			return fmt.Errorf("core: level %d member %d (universe %d): %w", c.Level, k, univ, err)
		}
	}
	return nil
}

// appendMembers is appendStreams for an ordered plan: one concatenation
// member per member of chunk c, initialised in place, which the kernel
// (cbitmap.Concat) validates against the answer's universe unless lasts holds
// its largest position.
func (sc *queryScratch) appendMembers(cb *chunkBuf, base int64, dir memberDir, c PlanChunk, lasts []int64) error {
	for k := c.I; k < c.J; k++ {
		ext, card, order := dir.entry(k)
		last := int64(-1)
		if lasts != nil && lasts[k-c.I] != lastUnknown {
			last = lasts[k-c.I]
		}
		sc.members = append(sc.members, cbitmap.Member{})
		if err := sc.members[len(sc.members)-1].Init(&cb.r, int(ext.Off-base), int(ext.Bits), card, last, order); err != nil {
			return fmt.Errorf("core: level %d member %d: %w", c.Level, k, err)
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
	if err := sc.newStream().InitDecode(&cb.r, 0, cb.w.Len(), int64(len(pos)), n, 0, 0); err != nil {
		return fmt.Errorf("core: update overlay: %w", err)
	}
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
// inverts their union (§2.1).
func (sc *queryScratch) merge(n int64, complement bool) (*cbitmap.Bitmap, error) {
	switch {
	case sc.lazy:
		return cbitmap.MergeStreamsUnsampled(n, complement, sc.streamPtrs()...)
	case complement:
		return cbitmap.MergeStreamsComplement(n, sc.streamPtrs()...)
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
