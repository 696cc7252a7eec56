// StreamEncoder: the write-path half of the fused streaming pipeline.
//
// Queries fuse decode and merge (stream.go); construction and rebuilds fuse
// merge and encode. A StreamEncoder aims the package's single canonical
// encoding path (Builder) at a caller-supplied bitio.Writer — typically a
// pooled writer whose contents are handed straight to an iomodel extent or
// chain — so building a member bitmap from sorted position sources never
// materialises an intermediate Bitmap, position slice, or throwaway buffer.
// The output is byte-identical to encode-via-Bitmap, which the differential
// and fuzz tests pin.
package cbitmap

import (
	"sync"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

// StreamEncoder writes a gap-encoded position stream directly into a
// caller-supplied writer. The zero value is unusable; call Init (or InitAt)
// first. Skip samples are never collected: the encoder's output goes to
// disk, and samples are an in-memory acceleration that is never serialized.
type StreamEncoder struct {
	bd Builder
}

// Init aims e at w, starting a fresh stream (first gap is encoded relative
// to position -1, the package's canonical head encoding).
func (e *StreamEncoder) Init(w *bitio.Writer) { e.InitAt(w, -1) }

// InitAt aims e at w as a continuation of an existing stream whose last
// position is prev — the chained-file append case, where the tail of a
// member's gap stream is extended in place. Card counts only positions
// encoded since this call.
func (e *StreamEncoder) InitAt(w *bitio.Writer, prev int64) {
	e.bd = Builder{w: w, prev: prev, noSamples: true}
}

// Add appends position p, which must exceed every position encoded so far
// (including the InitAt continuation point).
func (e *StreamEncoder) Add(p int64) { e.bd.Add(p) }

// AddSorted appends the strictly increasing positions pos, each above every
// position encoded so far: Add in bulk, through the dense merge's
// word-at-a-time accumulator (dense.go) instead of a writer call per row.
func AddSorted[P uint32 | int64](e *StreamEncoder, pos []P) { AddSortedK(e, pos, 0) }

// AddSortedK is AddSorted in the exp-Golomb code of order k (gamma.WriteK),
// for a stream a Stream then decodes at order k. Every code of such a stream
// must share its order, so at k > 0 nothing else may write to it.
func AddSortedK[P uint32 | int64](e *StreamEncoder, pos []P, k uint) {
	em := denseEmitter{bd: &e.bd, prev: e.bd.prev, card: e.bd.card}
	if k == 0 {
		emitSorted(&em, 0, pos)
	} else {
		emitOrder(&em, 0, pos, k)
	}
	em.flush()
}

// AddGaps counts into c the gaps of the strictly increasing positions pos,
// the first taken from -1: c.Best then gives the exp-Golomb order in
// [0, gamma.MaxOrder] that codes the streams counted in the fewest bits.
func AddGaps[P uint32 | int64](c *gamma.Costs, pos []P) {
	prev := int64(-1)
	for _, q := range pos {
		c.Add(uint64(int64(q) - prev))
		prev = int64(q)
	}
}

// AddBitset appends the set bits of words — bit i of words[k] is position
// 64k+i — through the same accumulator, and zeroes them.
func (e *StreamEncoder) AddBitset(words []uint64) { e.AddBitsetK(words, 0) }

// AddBitsetK is AddBitset in the exp-Golomb code of order k, under
// AddSortedK's rule: at k > 0 nothing else may write to the stream.
func (e *StreamEncoder) AddBitsetK(words []uint64, k uint) {
	em := denseEmitter{bd: &e.bd, prev: e.bd.prev, card: e.bd.card}
	if k == 0 {
		em.emit(words, 0)
	} else {
		em.emitFlat(words, 0, k)
	}
	em.flush()
}

// AddRun appends count consecutive positions start, start+1, …, written as
// whole words of single-bit gap-1 codes after the first element.
func (e *StreamEncoder) AddRun(start, count int64) { e.bd.AddRun(start, count) }

// Card returns the number of positions encoded since Init/InitAt.
func (e *StreamEncoder) Card() int64 { return e.bd.card }

// Last returns the last position encoded, or the InitAt continuation point
// (-1 after a fresh Init) when nothing has been added yet.
func (e *StreamEncoder) Last() int64 { return e.bd.prev }

// sliceMergeHead is one input of a sorted-slice merge: the cached head
// position plus (list, next-element) cursors into the caller's fixed list-of
// -lists. Heads are plain values with no pointers, so heap swaps trigger no
// write barriers — the merge's inner loop stays memory-quiet.
type sliceMergeHead struct {
	cur int64
	li  int32 // index into the caller's lists
	idx int32 // next unconsumed element of lists[li]
}

// sliceMergeScratch pools the head slice across encoder merges, so a rebuild
// that re-encodes thousands of members allocates no per-member scratch.
type sliceMergeScratch struct {
	heads []sliceMergeHead
}

var sliceMergePool = sync.Pool{New: func() any { return new(sliceMergeScratch) }}

// MergeSortedSlices encodes the union of the given sorted position slices —
// the shape of every rebuild source in this repository: per-character
// occurrence lists, each sorted, pairwise disjoint. Small fan-ins merge
// through a linear minimum scan, large ones through a binary min-heap on the
// head positions, mirroring MergeStreams. The output is byte-identical to
// sorting the concatenation and encoding it through a Builder.
func (e *StreamEncoder) MergeSortedSlices(lists ...[]int64) {
	sc := sliceMergePool.Get().(*sliceMergeScratch)
	heads := sc.heads[:0]
	for li, l := range lists {
		if len(l) > 0 {
			heads = append(heads, sliceMergeHead{cur: l[0], li: int32(li), idx: 1})
		}
	}
	sc.heads = heads
	if len(heads) > 0 {
		e.mergeSliceHeads(lists, heads)
	}
	sliceMergePool.Put(sc)
}

// siftDownSliceHeads is siftDownHeads for sorted-slice merge heads.
func siftDownSliceHeads(heads []sliceMergeHead, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(heads) && heads[l].cur < heads[m].cur {
			m = l
		}
		if r < len(heads) && heads[r].cur < heads[m].cur {
			m = r
		}
		if m == i {
			return
		}
		heads[i], heads[m] = heads[m], heads[i]
		i = m
	}
}

// mergeSliceHeads runs the k-way minimum merge over ≥1 primed heads.
func (e *StreamEncoder) mergeSliceHeads(lists [][]int64, heads []sliceMergeHead) {
	useHeap := len(heads) > 8
	if useHeap {
		for i := len(heads)/2 - 1; i >= 0; i-- {
			siftDownSliceHeads(heads, i)
		}
	}
	for len(heads) > 1 {
		mi := 0
		if !useHeap {
			for i := 1; i < len(heads); i++ {
				if heads[i].cur < heads[mi].cur {
					mi = i
				}
			}
		}
		h := &heads[mi]
		e.bd.Add(h.cur)
		if l := lists[h.li]; int(h.idx) < len(l) {
			h.cur = l[h.idx]
			h.idx++
		} else {
			heads[mi] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		if useHeap {
			siftDownSliceHeads(heads, mi)
		}
	}
	AddSorted(e, lists[heads[0].li][heads[0].idx-1:])
}
