// Fused streaming decode-merge pipeline.
//
// A Stream decodes a gap-encoded position set lazily, straight from a
// bitio.Reader — either a Bitmap's own buffer or a sub-range of bits freshly
// read from disk — so a query can merge the bitmaps of a cover without ever
// materialising them. It is the package's one decoder: Bitmap.Iter,
// Contains, Rank, Decode and the lazy skip samples all run on Next or its
// bulk form scan. Only the dense kernel's window fill (dense.go) repeats
// scan's skeleton, because it sets a window bit per position: folding that
// branch into scan would put it in both hot loops. It repeats it twice, once
// for gamma and once for higher orders, so gamma streams pay nothing for the
// order. MergeStreams is the k-way merge that writes the union (or, fused,
// its complement) directly into a Builder: each gap in the input is decoded
// exactly once, and the Builder, merge heads and output writer all come from
// sync.Pools, so a steady-state merge allocates only the bitmap it returns.
// The streams it merges are initialised in place (InitDecode and its
// siblings set every field through the pointer): a Stream is over a hundred
// bytes, too many to build aside and copy per member.
//
// The merge has three paths. Concatenation is the kernel in concat.go, the
// package's one concatenation and the one path a caller can ask for: Concat
// takes a run of Members that the caller promises disjoint and increasing —
// core's planner does, for a record range inside one character — validates
// each member whose largest position is unknown, checks the promise at every
// member boundary (a violation fails typed ErrCorrupt) and writes the answer
// in one exact-size pass. MergeStreams hands the kernel, unpromised, streams
// whose largest positions are all known up front (bitmap-backed streams and
// replay views, e.g. the parts of a sharded answer), or a lone stream, and
// keeps them for the other paths when they turn out not to be ordered. The other two are chosen
// from what the primed inputs show, never by the caller (runMerge). Sparse
// inputs — small covers — take the per-row loop in this file (mergeSparse): pick the
// minimum head, encode it, advance its stream, at a cost per row that does
// not depend on n. Inputs holding at least one position per denseCrossover
// universe positions take the window kernel in dense.go (mergeDense): a fixed
// 8 KiB uncompressed bit window slides over [0,n), so union and dedupe are an
// OR per position and the complement a NOT per word, and the k-way head
// search disappears. Both stop a union at its last stream, whose tail the
// concatenation kernel appends as it stands (answer).
//
// The encoding stays canonical: all three paths produce byte-identical streams
// to decode-then-Union, which the differential and fuzz tests pin.
package cbitmap

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

// Stream is a cardinality-bounded source of strictly increasing positions
// decoded on demand from a gap stream in the exp-Golomb code of order k
// (gamma.WriteK; order 0 is gamma), a bitmap's at the bitmap's order,
// optionally
// shifted by a constant row-id offset (gaps are relative, so the shift is free
// per element). The zero value is an exhausted stream.
type Stream struct {
	r    bitio.Reader
	left int64 // elements not yet produced
	prev int64 // last produced position (shift applied); off-1 initially
	off  int64 // shift added to every position
	vmax int64 // exclusive validation bound (shift applied); 0 disables
	last int64 // largest position (shift applied) when known up front, else -1
	k    uint  // the gaps' exp-Golomb order, at most gamma.MaxOrder
	bias int64 // 2^k-1: a code read as an integer is its gap plus bias
	err  error
}

// InitDecode initialises s to decode card gaps coded at order k from the bit
// range [start, start+bits) of r's underlying stream, validating every
// position against the universe [0,n) and shifting it by off. The reader
// state is captured by value: traversing the stream never moves r, and the
// stream can never read past its own bit range into a neighbouring member's
// bits.
func (s *Stream) InitDecode(r *bitio.Reader, start, bits int, card, n, off int64, k uint) error {
	sub, err := r.Sub(start, bits)
	if err != nil {
		return err
	}
	if card > 0 && n <= 0 {
		// vmax = off+n would read as "validation disabled" when off and n are
		// both zero; an empty universe cannot hold any position, so reject
		// the cardinality outright instead.
		return fmt.Errorf("%w: stream of %d positions in empty universe [0,%d)", ErrCorrupt, card, n)
	}
	if k > gamma.MaxOrder {
		return fmt.Errorf("%w: stream coded at order %d, above %d", ErrCorrupt, k, gamma.MaxOrder)
	}
	s.r = sub
	s.set(card, off, off+n, -1, k)
	return nil
}

// set initialises every field of s but its reader, in place: a composite
// literal assigned through the pointer is built aside and then copied, and a
// Stream is over a hundred bytes. The stream produces left positions shifted
// by off, validated against vmax (0: not validated), the largest last (-1:
// unknown), decoded at order k.
func (s *Stream) set(left, off, vmax, last int64, k uint) {
	s.left, s.prev, s.off, s.vmax, s.last, s.k, s.bias, s.err = left, off-1, off, vmax, last, k, 1<<k-1, nil
}

// InitDecodeValidated initialises s as a replay view over a bit range whose
// positions an earlier pass already validated: an earlier query's merge over
// the same stable device bits, whose ValidatedLast core remembers per member.
// Validation is skipped and the largest position (last, pre-shift; ignored
// when card is 0) is known up front, so a merge can concatenate the view's
// tail as it does a bitmap-backed stream's, without decoding it.
func (s *Stream) InitDecodeValidated(r *bitio.Reader, start, bits int, card, last, off int64, k uint) error {
	sub, err := r.Sub(start, bits)
	if err != nil {
		return err
	}
	if k > gamma.MaxOrder {
		return fmt.Errorf("%w: stream coded at order %d, above %d", ErrCorrupt, k, gamma.MaxOrder)
	}
	s.r = sub
	s.set(card, off, 0, -1, k)
	if card > 0 {
		s.last = last + off
	}
	return nil
}

// ValidatedLast reports the largest position (shift applied) of a validating
// stream — one opened by InitDecode — that was consumed to its end without
// error, every position and every bit of its range: what a replay view over
// the same bits may take on faith (InitDecodeValidated).
// Every merge path leaves its streams in that state when it succeeds. ok is
// false for a replay or bitmap-backed stream, a failed one, one with
// positions pending, and one whose range holds bits past its last code, which
// a tail copy would copy into the answer.
func (s *Stream) ValidatedLast() (last int64, ok bool) {
	if s.vmax <= 0 || s.left != 0 || s.err != nil || s.r.Remaining() != 0 {
		return 0, false
	}
	return s.prev, true
}

// InitBitmap initialises s to produce b's positions shifted by off, decoded
// at b's order. The positions were validated when b was built, so traversal
// skips validation, and b's largest position is known up front — which is
// what lets a merge concatenate a bitmap-backed stream's tail without
// decoding it.
func (s *Stream) InitBitmap(b *Bitmap, off int64) {
	s.set(b.card, off, 0, -1, uint(b.k))
	s.r.Init(b.buf, b.bits)
	if b.card > 0 {
		s.last = b.last + off
	}
}

// Left returns the number of positions not yet produced.
func (s *Stream) Left() int64 { return s.left }

// Err returns the first decode or validation error encountered, if any.
// A stream that fails reports exhaustion from Next and records the error
// here, so merges surface corruption instead of truncating silently.
func (s *Stream) Err() error { return s.err }

// Next returns the next position, or ok=false when the stream is exhausted
// or has failed (see Err). The fast path is open-coded from gamma.ReadK,
// which is too large to inline: one peeked window decodes the whole gap code
// in the common case.
func (s *Stream) Next() (pos int64, ok bool) {
	if s.left == 0 {
		return 0, false
	}
	if w, avail := s.r.Peek64(); w != 0 {
		z := bits.LeadingZeros64(w)
		if total := 2*z + 1 + int(s.k); total <= avail {
			s.r.SkipBits(total)
			p := s.prev + (int64(w>>uint(64-total)) - s.bias)
			if s.vmax > 0 && (p <= s.prev || p >= s.vmax) {
				return 0, s.failPosition(p)
			}
			s.prev = p
			s.left--
			return p, true
		}
	}
	return s.nextSlow()
}

// nextSlow decodes a gap that did not fit the peek window (huge values, or a
// window truncated by the end of the stream) through gamma.ReadK, which is
// also where corrupt streams surface.
func (s *Stream) nextSlow() (int64, bool) {
	g, err := gamma.ReadK(&s.r, s.k)
	if err != nil {
		s.err = fmt.Errorf("%w: stream decode with %d gaps pending: %v", ErrCorrupt, s.left, err)
		s.left = 0
		return 0, false
	}
	p := s.prev + int64(g)
	if s.vmax > 0 && (p <= s.prev || p >= s.vmax) {
		// p <= prev catches int64 wrap-around from huge corrupt gaps as well
		// as zero gaps (cf. Decode).
		return 0, s.failPosition(p)
	}
	s.prev = p
	s.left--
	return p, true
}

// failPosition records an out-of-universe decode and exhausts the stream.
func (s *Stream) failPosition(p int64) bool {
	s.err = fmt.Errorf("%w: decoded position %d outside universe [0,%d)", ErrCorrupt, p-s.off, s.vmax-s.off)
	s.left = 0
	return false
}

// scan consumes every remaining position, leaving prev at the largest, and
// reports whether the stream survived (see Err). It is Next in bulk, shaped
// like fillWindow's inner loop: every code that fits the peeked word is
// decoded before peeking again, each position gets the checks Next gives it,
// and a code longer than the window, or a truncated stream, goes through
// nextSlow — so it fails at the position, and with the error, Next would.
func (s *Stream) scan() bool {
	p, left, vmax := s.prev, s.left, s.vmax
	// An order-k code with z leading zeros is 2z+k1 bits long.
	k1, bias := 1+int(s.k), s.bias
	var w uint64 // undecoded rest of the peeked word, left-aligned
	avail, used := 0, 0
	for left > 0 {
		total := 2*bits.LeadingZeros64(w) + k1
		if total > avail {
			// The peeked word is used up (or was never loaded): peek again.
			s.r.SkipBits(used)
			w, avail = s.r.Peek64()
			used = 0
			if total = 2*bits.LeadingZeros64(w) + k1; total > avail {
				s.prev, s.left = p, left
				np, ok := s.nextSlow()
				if !ok {
					return false
				}
				p, left = np, s.left
				w, avail = 0, 0
				continue
			}
		}
		// total <= 64: the "& 63" spare the >= 64 guard Go shifts carry; a
		// 64-bit code leaves w stale, but avail drops to 0 and forces a peek.
		np := p + (int64(w>>(uint(64-total)&63)) - bias)
		if vmax > 0 && (np <= p || np >= vmax) {
			s.r.SkipBits(used + total)
			s.prev = p
			return s.failPosition(np)
		}
		p = np
		w <<= uint(total) & 63
		avail -= total
		used += total
		left--
	}
	s.r.SkipBits(used)
	s.prev, s.left = p, left
	return true
}

// sampleScan is scan recording skip samples where Builder.Add would: after
// every sampleEvery-th element, its position and the bit offset from start
// just past its code. It runs scan one interval at a time, with the rest of
// left hidden from it, and appends to pos and off.
func (s *Stream) sampleScan(start int, pos []int64, off []int32) ([]int64, []int32, bool) {
	for s.left > 0 {
		k := min(s.left, sampleEvery)
		rest := s.left - k
		s.left = k
		if !s.scan() {
			return pos, off, false
		}
		s.left = rest
		if k == sampleEvery && s.r.Pos()-start <= math.MaxInt32 {
			pos = append(pos, s.prev)
			off = append(off, int32(s.r.Pos()-start))
		}
	}
	return pos, off, true
}

// member sets m to the stream's pending positions, the first code counted
// from its last produced one. A stream whose last is unknown is validated
// first, by its own scan against its own universe (see ValidatedLast), and m
// ends at the last code scanned.
func (s *Stream) member(m *Member) error {
	m.buf, m.start, m.end, m.card, m.prev, m.last, m.k = s.r.Bytes(), s.r.Pos(), s.r.Len(), s.left, s.prev, s.last, uint8(s.k)
	if s.last < 0 {
		if !s.scan() {
			return s.err
		}
		s.last = s.prev
		m.end, m.last = s.r.Pos(), s.last
	}
	return nil
}

// reencodeInto, the package's one re-encoder, appends the rest of the stream
// to bd at bd's order: it decodes a chunk at a time and encodes the chunks
// through the bulk emitter — skip samples included in gamma; at a higher
// order sampling stops. A stream whose largest position is known up front
// must end there.
func (s *Stream) reencodeInto(bd *Builder) error {
	var chunk [256]int64
	e := denseEmitter{bd: bd, prev: bd.prev, card: bd.card}
	for s.left > 0 {
		n := 0
		for ; n < len(chunk); n++ {
			p, ok := s.Next()
			if !ok {
				break
			}
			if p <= e.prev || (n > 0 && p <= chunk[n-1]) {
				// Only a validation-skipping replay view over corrupt bits
				// can regress (a gap wrapping int64); fail typed.
				return fmt.Errorf("%w: tail position %d not increasing", ErrCorrupt, p)
			}
			chunk[n] = p
		}
		if bd.k == 0 {
			emitSorted(&e, 0, chunk[:n])
		} else {
			emitOrder(&e, 0, chunk[:n], bd.k)
			bd.noSamples = true
		}
	}
	e.flush()
	if s.err == nil && s.last >= 0 && bd.prev != s.last {
		// A verbatim copy would have taken the known last on faith; the
		// decode shows it wrong.
		return fmt.Errorf("%w: stream ends at position %d, not at its known last %d", ErrCorrupt, bd.prev, s.last)
	}
	return s.err
}

// mergeHead is one input of a k-way merge: a stream plus its pending head.
type mergeHead struct {
	s   *Stream
	cur int64
}

// mergeScratch pools the merge's head slice and its concatenation members
// across queries.
type mergeScratch struct {
	heads   []mergeHead
	members []Member // concatKnown's, or answer's prefix and tail
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

// release returns ms to its pool, first dropping its references so an idle
// pool entry does not keep the inputs' buffers reachable.
func (ms *mergeScratch) release() {
	clear(ms.heads)
	clear(ms.members)
	mergeScratchPool.Put(ms)
}

// builderPool recycles the merges' Builders, output buffer included: each
// answer gets an exact-size copy of the bits (finish, Concat).
var builderPool = sync.Pool{New: func() any { return &Builder{w: bitio.NewWriter(0), prev: -1} }}

// builderMaxBytes bounds the buffers pooled builders keep, as the Touch and
// chain-writer pools do; a builder over it hands its buffer to the answer.
const builderMaxBytes = 1 << 20

// reset prepares a pooled Builder for reuse, pre-sizing the output buffer
// for sizeHint bits; sampled says whether to record skip samples.
func (bd *Builder) reset(sizeHint int, sampled bool) {
	bd.w.Reset()
	bd.w.Grow(sizeHint)
	bd.prev = -1
	bd.card = 0
	bd.k = 0
	bd.noSamples = !sampled
	bd.samplePos = bd.samplePos[:0]
	bd.sampleOff = bd.sampleOff[:0]
}

// release returns a pooled builder to its pool, unless its buffer grew past
// builderMaxBytes.
func (bd *Builder) release() {
	if cap(bd.w.Bytes()) <= builderMaxBytes {
		builderPool.Put(bd)
	}
}

// finish finalises a pooled merge builder into the answer over [0,n). The
// answer's exact-size copy keeps its footprint independent of what the
// pooled buffer held before.
func (bd *Builder) finish(n int64) *Bitmap {
	if cap(bd.w.Bytes()) > builderMaxBytes {
		return bd.Bitmap(n)
	}
	return bd.bitmapOf(n, append(make([]byte, 0, len(bd.w.Bytes())), bd.w.Bytes()...))
}

// MergeStreams unions the streams' position sets into a bitmap over [0,n),
// deduplicating equal positions, in a single decode pass — the fused
// decode-merge at the heart of the query pipeline. Streams whose largest
// positions are all known up front (bitmap-backed or replay views, never a
// validating stream) and that turn out disjoint and increasing are
// concatenated by the package's one concatenation kernel (concat); otherwise
// runMerge picks the path: dense inputs go through the window kernel, the
// rest merge per row, large fan-ins through a binary min-heap on the head
// positions, small ones through a linear minimum scan. The universe is
// explicit, so an empty union still carries it.
func MergeStreams(n int64, streams ...*Stream) (*Bitmap, error) {
	return mergeStreams(n, false, true, streams)
}

// MergeStreamsComplement merges like MergeStreams but writes the complement
// [0,n) \ ∪streams — the paper's dense-answer trick fused into the same
// single pass, so the union itself is never materialised.
func MergeStreamsComplement(n int64, streams ...*Stream) (*Bitmap, error) {
	return mergeStreams(n, true, true, streams)
}

// MergeStreamsUnsampled merges like MergeStreams (MergeStreamsComplement)
// but records no skip samples, for an answer read once and whole: a shard's
// part of a sharded answer, which UnionAll reads.
func MergeStreamsUnsampled(n int64, complement bool, streams ...*Stream) (*Bitmap, error) {
	return mergeStreams(n, complement, false, streams)
}

// primeHeads pulls the first position of every stream into ms.heads and
// returns the primed heads plus the output size hint: the input bits left
// behind the heads and 64 per head for its re-encoded gap. A stream that
// fails on its first decode surfaces its error.
func primeHeads(ms *mergeScratch, streams []*Stream) ([]mergeHead, int, error) {
	heads := ms.heads[:0]
	sizeHint := 0
	var err error
	for _, s := range streams {
		if p, ok := s.Next(); ok {
			heads = append(heads, mergeHead{s: s, cur: p})
			sizeHint += s.r.Remaining() + 64
		} else if s.err != nil {
			err = s.err
			break
		}
	}
	ms.heads = heads // keep the (possibly regrown) backing array
	return heads, sizeHint, err
}

// unionBits bounds the encoded size of the primed heads' union over [0,n): R
// positions whose gaps sum to at most n cost at most R·E(n/R) bits, E the
// concave envelope of the gamma length through (2^j, 2j+1) (Jensen). The sum
// of the inputs' own sizes, the other hint, overshoots a union of sparse
// streams severalfold. R stops at n/2, where the bound peaks at 1.5 n:
// deduplication can only lower R.
func unionBits(n int64, heads []mergeHead) int {
	r := int64(len(heads))
	for i := range heads {
		r += heads[i].s.left
	}
	r = max(1, min(r, n/2))
	j := uint(bits.Len64(uint64(n/r))) - 1 // 2^j <= n/r
	return int(r*(2*int64(j)+1) + 2*((n-r<<j)>>j+1))
}

func mergeStreams(n int64, complement, sampled bool, streams []*Stream) (*Bitmap, error) {
	ms := mergeScratchPool.Get().(*mergeScratch)
	defer ms.release()
	if !complement {
		if out, err := ms.concatKnown(n, streams); err != errUnordered {
			return out, err
		}
	}
	heads, sizeHint, err := primeHeads(ms, streams)
	if err != nil {
		return nil, err
	}
	if !complement && n > 0 {
		sizeHint = min(sizeHint, unionBits(n, heads))
	}
	bd := builderPool.Get().(*Builder)
	defer bd.release()
	bd.reset(sizeHint, sampled)
	t, err := runMerge(bd, n, complement, heads)
	if err != nil {
		return nil, err
	}
	return ms.answer(bd, n, t)
}

// answer ends a merge in bd, a gamma builder, as its answer over [0,n). A
// union leaves t, its last stream (t.s is nil otherwise): the head t.cur
// joins bd, deduplicated, and a tail at bd's order follows bd's bits as it
// stands, written once by Concat over bd's prefix and the tail; bd's skip
// samples keep their offsets. A tail at another order is re-encoded into bd.
func (ms *mergeScratch) answer(bd *Builder, n int64, t mergeHead) (*Bitmap, error) {
	if t.s == nil {
		return bd.finish(n), nil
	}
	if t.cur != bd.prev {
		if t.cur < bd.prev {
			// Only a replay view over corrupt bits regresses; fail typed.
			return nil, fmt.Errorf("%w: tail head position %d below %d", ErrCorrupt, t.cur, bd.prev)
		}
		bd.Add(t.cur)
	}
	if t.s.k != bd.k {
		if err := t.s.reencodeInto(bd); err != nil {
			return nil, err
		}
		return bd.finish(n), nil
	}
	ms.members = append(ms.members[:0], Member{}, Member{})
	pre := &ms.members[0]
	pre.buf, pre.end, pre.card, pre.prev, pre.last, pre.k = bd.w.Bytes(), bd.w.Len(), bd.card, -1, bd.prev, uint8(bd.k)
	if err := t.s.member(&ms.members[1]); err != nil {
		return nil, err
	}
	out, err := Concat(n, ms.members)
	if err != nil {
		return nil, err
	}
	t.s.left = 0
	if out.attachSamples(bd.samplePos, bd.sampleOff) {
		bd.samplePos, bd.sampleOff = nil, nil
	}
	return out, nil
}

// errUnordered is concatKnown's answer to streams that are not disjoint and
// increasing: the caller merges them the general way instead.
var errUnordered = errors.New("cbitmap: inputs not disjoint and increasing")

// concatKnown concatenates streams whose largest positions are all known up
// front — bitmap-backed streams and replay views, e.g. the parts of a
// sharded answer — when they are disjoint and increasing, consuming them,
// and a lone stream whatever it is: a union of one stream keeps its order
// and bits. It returns errUnordered, touching no stream, when they are not
// ordered, or when one of several streams would need validating.
func (ms *mergeScratch) concatKnown(n int64, streams []*Stream) (*Bitmap, error) {
	members := ms.members[:0]
	defer func() { ms.members = members }()
	live := int64(0)
	for _, s := range streams {
		live += min(s.left, 1)
	}
	prev := int64(-1)
	for _, s := range streams {
		if s.left == 0 {
			continue
		}
		if s.last < 0 && live > 1 {
			return nil, errUnordered
		}
		members = append(members, Member{})
		m := &members[len(members)-1]
		if err := s.member(m); err != nil {
			return nil, err
		}
		// Overlapping inputs usually show it at the second head: stop there,
		// before building the rest. A head that does not decode is left to
		// the general merge, which fails on it too.
		if m.readHead() != nil || m.head <= prev {
			return nil, errUnordered
		}
		prev = m.last
	}
	out, err := Concat(n, members)
	if err == nil {
		for _, s := range streams {
			if s.left > 0 {
				s.prev, s.left = s.last, 0
			}
		}
	}
	return out, err
}

// siftDownHeads restores the min-heap order of heads below index i.
func siftDownHeads(heads []mergeHead, i int) {
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

// runMerge executes a merge that does not concatenate over the primed
// heads, writing into bd, a pooled query builder (mergeStreams): dense
// inputs through the window kernel, the rest per row. A union returns the
// one stream it leaves, with its pending head, for answer to end.
func runMerge(bd *Builder, n int64, complement bool, heads []mergeHead) (mergeHead, error) {
	if denseEnough(n, complement, heads) {
		return mergeDense(bd, n, complement, heads)
	}
	return mergeSparse(bd, n, complement, heads)
}

// mergeSparse is runMerge's per-row path: pick the minimum head, encode it,
// advance its stream. Its cost is per answer row and independent of n, which
// is what sparse merges — point queries, small covers — need.
func mergeSparse(bd *Builder, n int64, complement bool, heads []mergeHead) (mergeHead, error) {
	next := int64(0) // complement: first position not yet ruled out
	// Large fan-in: binary min-heap on the head positions. Small fan-in (the
	// common case: O(1) bitmaps per tree level): linear minimum scan.
	useHeap := len(heads) > 8
	if useHeap {
		for i := len(heads)/2 - 1; i >= 0; i-- {
			siftDownHeads(heads, i)
		}
	}
	// The union leaves its final stream to answer; the complement must decode
	// to the very end, since inverting reorders nothing but rewrites all.
	stop := 1
	if complement {
		stop = 0
	}
	for len(heads) > stop {
		mi := 0
		if !useHeap {
			for i := 1; i < len(heads); i++ {
				if heads[i].cur < heads[mi].cur {
					mi = i
				}
			}
		}
		if p := heads[mi].cur; complement {
			if p >= next { // p < next is a duplicate
				if p > next {
					bd.AddRun(next, p-next)
				}
				next = p + 1
			}
		} else if p != bd.prev { // dedupe
			if p < bd.prev {
				// Only a validation-skipping stream (a replay view over bits
				// that were corrupted after their validation scan) can regress;
				// fail typed instead of panicking in Builder.Add.
				return mergeHead{}, fmt.Errorf("%w: merge position %d below %d", ErrCorrupt, p, bd.prev)
			}
			bd.Add(p)
		}
		if np, ok := heads[mi].s.Next(); ok {
			heads[mi].cur = np
		} else {
			if err := heads[mi].s.err; err != nil {
				return mergeHead{}, err
			}
			heads[mi] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		if useHeap {
			siftDownHeads(heads, mi)
		}
	}
	if !complement && len(heads) == 1 {
		return heads[0], nil
	}
	if complement && next < n {
		bd.AddRun(next, n-next)
	}
	return mergeHead{}, nil
}
