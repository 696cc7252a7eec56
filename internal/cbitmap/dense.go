// Dense path of the fused decode-merge: a fixed-size uncompressed window.
//
// The sparse merge in stream.go pays, per answer row, a minimum search over
// the k stream heads, one gap decode and one gamma.Write. When the inputs are
// dense in their universe that per-row work is avoidable: member sets are
// position sets over one universe, so a plain bit window makes union and
// dedupe one OR per position and complement one NOT per word. mergeDense
// walks [0,n) in windows of denseWindowBits positions; every stream sets its
// bits below the window's end (decoding every gamma code that fits a peeked
// word before peeking again), and the window's set bits are then re-encoded
// through a 64-bit accumulator flushed one whole word at a time.
//
// The encoding is canonical, so the output is byte-identical to the sparse
// path's; the window is denseWindowBits/8 bytes whatever n is.
package cbitmap

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/gamma"
)

const (
	// denseWindowBits is the number of universe positions one window covers:
	// 8 KiB of words, small enough to sit in L1 beside the streams' input.
	denseWindowBits  = 1 << 16
	denseWindowWords = denseWindowBits / 64

	// denseCrossover selects the dense path when the inputs hold at least one
	// position per denseCrossover universe positions (Σcard·denseCrossover ≥
	// n). It is the measured break-even of hypotheses/dense-merge: below it a
	// window holds so few positions that scanning its 1024 words costs more
	// than the head scans it saves. See FINDINGS.md there for the sweep.
	denseCrossover = 256

	// flatMaxPerWord is emit's crossover in set bits per window word, the
	// measured break-even of hypotheses/flat-emit. emitFlat extracts
	// flatChunkWords words at a time, so its position list stays in L1.
	flatMaxPerWord = 24
	flatChunkWords = 64
)

// denseWindow is the pooled window. Every user returns it zeroed.
type denseWindow [denseWindowWords]uint64

var denseWindowPool = sync.Pool{New: func() any { return new(denseWindow) }}

// flatPositions is emit's pooled position list: one chunk's positions plus
// the spare entries extract writes past the last one.
type flatPositions [flatChunkWords*64 + 4]uint32

var flatPositionsPool = sync.Pool{New: func() any { return new(flatPositions) }}

// denseEnough reports whether the primed heads are dense enough in [0,n) for
// mergeDense to beat the per-row loop. It must also have a per-row loop to
// replace: a union of one stream is a concatenation (concatKnown), and a
// merge over n = 0 has no universe to window.
func denseEnough(n int64, complement bool, heads []mergeHead) bool {
	if n <= 0 || len(heads) == 0 || (len(heads) == 1 && !complement) {
		return false
	}
	card := int64(len(heads))
	for i := range heads {
		card += heads[i].s.left
	}
	return card >= n/denseCrossover
}

// fillWindow sets, in the window words covering [base,end), the bit of the
// pending position cur and of every later position below end. It returns the
// stream's first position at or beyond end — the new pending head — or
// ok=false once the stream is exhausted or has failed (see Err). Positions
// get the validation Next gives them, and a validation-skipping stream that
// regresses fails typed here instead of writing outside the window.
func (s *Stream) fillWindow(words []uint64, base, end, cur int64) (int64, bool) {
	if cur < base {
		return 0, s.failRegress(cur, base)
	}
	// One bound serves the window and the stream's own universe: positions
	// at or beyond it leave the loop, which then tells the two apart.
	lim := end
	if s.vmax > 0 && s.vmax < lim {
		lim = s.vmax
	}
	var p int64
	var ok bool
	if s.k == 0 {
		p, ok = s.fillGamma(words, base, lim, cur)
	} else {
		p, ok = s.fillOrder(words, base, lim, cur)
	}
	if !ok {
		return 0, false
	}
	if s.vmax > 0 && p >= s.vmax {
		return 0, s.failPosition(p)
	}
	s.prev = p
	return p, true
}

// fillGamma is fillWindow's loop for a gamma-coded stream: it sets the bits
// of cur and of every later position below lim and returns the first
// position at or beyond it, leaving s.left behind that one, or ok=false once
// the stream is exhausted or has failed. Every code that fits the peeked word
// is decoded before peeking again.
func (s *Stream) fillGamma(words []uint64, base, lim, cur int64) (int64, bool) {
	p, left := cur, s.left
	var w uint64 // undecoded rest of the peeked word, left-aligned
	avail, used := 0, 0
	for p < lim {
		words[(p-base)>>6] |= 1 << uint((p-base)&63)
		if left == 0 {
			s.r.SkipBits(used)
			s.prev, s.left = p, 0
			return 0, false
		}
		total := 2*bits.LeadingZeros64(w) + 1
		if total > avail {
			// The peeked word is used up (or was never loaded): peek again.
			s.r.SkipBits(used)
			w, avail = s.r.Peek64()
			used = 0
			if total = 2*bits.LeadingZeros64(w) + 1; total > avail {
				// A code longer than the peek window, or a truncated stream.
				var ok bool
				if p, left, ok = s.fillSlow(p, left); !ok {
					return 0, false
				}
				w, avail = 0, 0
				continue
			}
		}
		// total <= 64, so the gap is below 2^32 and p+gap cannot wrap. The
		// "& 63" spare the >= 64 guard Go shifts carry; a 64-bit code leaves w
		// stale, but avail drops to 0 and forces the next peek.
		p += int64(w >> (uint(64-total) & 63))
		w <<= uint(total) & 63
		avail -= total
		used += total
		left--
	}
	s.r.SkipBits(used)
	s.left = left
	return p, true
}

// fillOrder is fillGamma for a stream coded at an order k above 0, whose
// codes are 2z+k+1 bits long and read as integers are the gap plus 2^k-1.
// The two loops stay apart because the order's two extra registers cost the
// gamma loop 5-18 % (BenchmarkFloor/fillWindow).
func (s *Stream) fillOrder(words []uint64, base, lim, cur int64) (int64, bool) {
	p, left := cur, s.left
	k1, bias := 1+int(s.k), s.bias
	var w uint64
	avail, used := 0, 0
	for p < lim {
		words[(p-base)>>6] |= 1 << uint((p-base)&63)
		if left == 0 {
			s.r.SkipBits(used)
			s.prev, s.left = p, 0
			return 0, false
		}
		total := 2*bits.LeadingZeros64(w) + k1
		if total > avail {
			s.r.SkipBits(used)
			w, avail = s.r.Peek64()
			used = 0
			if total = 2*bits.LeadingZeros64(w) + k1; total > avail {
				// A code longer than the peek window, or a truncated stream.
				var ok bool
				if p, left, ok = s.fillSlow(p, left); !ok {
					return 0, false
				}
				w, avail = 0, 0
				continue
			}
		}
		// total <= 64 and k <= gamma.MaxOrder: the gap is below 2^48.
		p += int64(w>>(uint(64-total)&63)) - bias
		w <<= uint(total) & 63
		avail -= total
		used += total
		left--
	}
	s.r.SkipBits(used)
	s.left = left
	return p, true
}

// fillSlow decodes, for the fill loops, a code longer than the peek window or
// one of a truncated stream, after the position p with left gaps pending. A
// validation-skipping stream whose next position does not exceed p fails
// typed.
func (s *Stream) fillSlow(p, left int64) (int64, int64, bool) {
	s.prev, s.left = p, left
	np, ok := s.nextSlow()
	if !ok {
		return 0, 0, false
	}
	if np <= p {
		return 0, 0, s.failRegress(np, p+1)
	}
	return np, s.left, true
}

// failRegress records a position below the least one the merge can still
// take — only a validation-skipping stream can produce one — and exhausts
// the stream.
func (s *Stream) failRegress(p, floor int64) bool {
	s.err = fmt.Errorf("%w: merge position %d below %d", ErrCorrupt, p, floor)
	s.left = 0
	return false
}

// denseEmitter is the package's bulk encoder: window bits (emit) or sorted
// positions (emitSorted) into a Builder's stream. Codes collect in a 64-bit
// accumulator that reaches the writer one whole word at a time.
type denseEmitter struct {
	bd   *Builder
	acc  uint64 // pending output bits, right-aligned
	nacc int    // number of pending bits, < 64
	prev int64  // last position encoded
	card int64
}

// spill is the accumulator's slow half: the n-bit value v (n <= 64) does not
// fit behind the nacc pending bits of acc, so the full word goes to bd's
// writer and the rest of v becomes the new pending bits.
func (e *denseEmitter) spill(acc uint64, nacc int, v uint64, n int) (uint64, int) {
	rem := n - (64 - nacc)
	e.bd.w.WriteBits(acc<<uint(64-nacc)|v>>uint(rem), 64)
	return v & (1<<uint(rem) - 1), rem
}

// sample records a skip sample exactly where Builder.maybeSample would: pos
// is the position of an element whose index is a multiple of sampleEvery and
// off the stream length just past its code.
func (e *denseEmitter) sample(pos int64, off int) {
	if bd := e.bd; !bd.noSamples && off <= math.MaxInt32 {
		bd.samplePos = append(bd.samplePos, pos)
		bd.sampleOff = append(bd.sampleOff, int32(off))
	}
}

// emit encodes the set bits of the window words, whose bit 0 is position
// base, and zeroes them. A window of at most flatMaxPerWord set bits per word
// goes through emitFlat; a denser one through word, whose run trick makes
// each run of ones one code.
func (e *denseEmitter) emit(words []uint64, base int64) {
	pop := 0
	for _, x := range words {
		pop += bits.OnesCount64(x)
	}
	if pop <= flatMaxPerWord*len(words) {
		e.emitFlat(words, base, 0)
		return
	}
	for i, x := range words {
		if x != 0 {
			words[i] = 0
			e.word(x, base+int64(i)<<6)
		}
	}
}

// emitFlat is emit through a flat position list, a chunk at a time, at order
// k (emitOrder above 0). Neither loop branches per set bit or per word:
// extract branches only on a word of more than four bits, emitSorted only
// where an output word fills.
func (e *denseEmitter) emitFlat(words []uint64, base int64, k uint) {
	pos := flatPositionsPool.Get().(*flatPositions)
	for i := 0; i < len(words); i += flatChunkWords {
		chunk := words[i:min(i+flatChunkWords, len(words))]
		if k == 0 {
			emitSorted(e, base+int64(i)<<6, pos[:extract(pos, chunk)])
		} else {
			emitOrder(e, base+int64(i)<<6, pos[:extract(pos, chunk)], k)
		}
		clear(chunk)
	}
	flatPositionsPool.Put(pos)
}

// extract writes the positions of the set bits of words, bit 0 of words[0]
// being position 0, to pos in increasing order and returns their number. It
// writes four entries per word unconditionally, the ones past its bits
// ignored, so only a word of more than four bits takes a branch.
func extract(pos *flatPositions, words []uint64) int {
	n := 0
	for i, x := range words {
		b := uint32(i) << 6
		c := bits.OnesCount64(x)
		p := pos[n : n+4 : n+4]
		p[0], x = b+uint32(bits.TrailingZeros64(x)), x&(x-1)
		p[1], x = b+uint32(bits.TrailingZeros64(x)), x&(x-1)
		p[2], x = b+uint32(bits.TrailingZeros64(x)), x&(x-1)
		p[3] = b + uint32(bits.TrailingZeros64(x))
		for j := n + 4; j < n+c; j++ {
			x &= x - 1
			pos[j] = b + uint32(bits.TrailingZeros64(x))
		}
		n += c
	}
	return n
}

// word encodes the set bits of x, whose bit 0 is position wb. It works a run
// of consecutive ones at a time: the run's first position costs its gap's
// gamma code and each further one the single-bit code of gap 1, so the whole
// run is one value of glen+run-1 bits.
func (e *denseEmitter) word(x uint64, wb int64) {
	acc, nacc, prev, card := e.acc, e.nacc, e.prev, e.card
	olen := e.bd.w.Len() + nacc // output stream length, pending bits included
	for x != 0 {
		tz := bits.TrailingZeros64(x)
		carry := x + x&-x // the lowest run of ones, carried out into the bit above it
		run := bits.TrailingZeros64(carry) - tz
		x &= carry
		p := wb + int64(tz)
		g := uint64(p - prev)
		glen := 2*bits.Len64(g) - 1
		r := run - 1
		// The "& 63" on shift counts known to be below 64 change nothing but
		// the code generated: they spare the >= 64 guard Go shifts carry.
		v := g<<(uint(r)&63) | (1<<(uint(r)&63) - 1)
		if vlen := glen + r; vlen < 64-nacc {
			acc, nacc = acc<<(uint(vlen)&63)|v, nacc+vlen
		} else if vlen <= 64 {
			acc, nacc = e.spill(acc, nacc, v, vlen)
		} else {
			// Too long for one push: the gap code (which gamma.Write splits
			// when the gap is 2^32 or more), then the ones.
			e.bd.w.WriteBits(acc, nacc)
			gamma.Write(e.bd.w, g)
			e.bd.w.WriteBits(1<<uint(r)-1, r)
			acc, nacc = 0, 0
		}
		if k := sampleEvery - card&(sampleEvery-1); int64(run) >= k {
			// The run's k-th position is the next multiple of sampleEvery.
			e.sample(p+k-1, olen+glen+int(k)-1)
		}
		olen += glen + r
		card += int64(run)
		prev = p + int64(r)
	}
	e.acc, e.nacc, e.prev, e.card = acc, nacc, prev, card
}

// emitSorted encodes the positions base+pos[i], strictly increasing and each
// above the last one encoded: Builder.Add in bulk, skip samples included.
func emitSorted[P uint32 | int64](e *denseEmitter, base int64, pos []P) {
	acc, nacc, prev, card := e.acc, e.nacc, e.prev, e.card
	for _, q := range pos {
		p := base + int64(q)
		if p <= prev {
			panic(fmt.Sprintf("cbitmap: AddSorted position %d not above %d", p, prev))
		}
		g := uint64(p - prev)
		prev = p
		if glen := 2*bits.Len64(g) - 1; glen < 64-nacc {
			acc, nacc = acc<<(uint(glen)&63)|g, nacc+glen
		} else if glen <= 64 {
			acc, nacc = e.spill(acc, nacc, g, glen)
		} else {
			e.bd.w.WriteBits(acc, nacc)
			gamma.Write(e.bd.w, g)
			acc, nacc = 0, 0
		}
		if card++; card&(sampleEvery-1) == 0 {
			e.sample(p, e.bd.w.Len()+nacc)
		}
	}
	e.acc, e.nacc, e.prev, e.card = acc, nacc, prev, card
}

// emitOrder is emitSorted in the exp-Golomb code of order k > 0, recording
// no skip samples — for the build's members and hashed sets, whose
// StreamEncoder records none, and for a tail re-encoded into an answer of
// order k: a code read as an integer is u = gap+2^k-1, in 2·Len(u)-k-1 bits.
// It is a loop of its own because the order's arithmetic slows emitSorted,
// the encoder of every dense answer.
func emitOrder[P uint32 | int64](e *denseEmitter, base int64, pos []P, k uint) {
	acc, nacc, prev := e.acc, e.nacc, e.prev
	k1, bias := 1+int(k), uint64(1)<<k-1
	for _, q := range pos {
		p := base + int64(q)
		if p <= prev {
			panic(fmt.Sprintf("cbitmap: AddSortedK position %d not above %d", p, prev))
		}
		g := uint64(p - prev)
		prev = p
		u := g + bias
		if ulen := 2*bits.Len64(u) - k1; ulen < 64-nacc {
			acc, nacc = acc<<(uint(ulen)&63)|u, nacc+ulen
		} else if ulen <= 64 {
			acc, nacc = e.spill(acc, nacc, u, ulen)
		} else {
			e.bd.w.WriteBits(acc, nacc)
			gamma.WriteK(e.bd.w, g, k)
			acc, nacc = 0, 0
		}
	}
	e.acc, e.nacc, e.prev = acc, nacc, prev
	e.card += int64(len(pos))
}

// flush hands the pending bits and the bookkeeping back to the Builder.
func (e *denseEmitter) flush() {
	e.bd.w.WriteBits(e.acc, e.nacc)
	e.acc, e.nacc = 0, 0
	e.bd.prev, e.bd.card = e.prev, e.card
}

// mergeDense is runMerge's dense path: the union (or complement of the
// union) of the primed heads over [0,n), one window at a time.
func mergeDense(bd *Builder, n int64, complement bool, heads []mergeHead) (mergeHead, error) {
	win := denseWindowPool.Get().(*denseWindow)
	t, err := mergeWindows(bd, n, complement, heads, win[:])
	denseWindowPool.Put(win)
	return t, err
}

// mergeWindows runs mergeDense over the caller's zeroed window words and
// leaves them zeroed, on failure too.
func mergeWindows(bd *Builder, n int64, complement bool, heads []mergeHead, words []uint64) (mergeHead, error) {
	e := denseEmitter{bd: bd, prev: bd.prev, card: bd.card}
	base := int64(0)
	for ; base < n && len(heads) > 0; base += denseWindowBits {
		end := min(base+denseWindowBits, n)
		for i := 0; i < len(heads); {
			h := &heads[i]
			if cur, ok := h.s.fillWindow(words, base, end, h.cur); ok {
				h.cur = cur
				i++
				continue
			}
			if err := h.s.err; err != nil {
				clear(words) // a failed fill leaves bits behind; emit does not
				return mergeHead{}, err
			}
			heads[i] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		live := words[:(end-base+63)>>6]
		if complement {
			for i := range live {
				live[i] = ^live[i]
			}
			if tail := uint(end-base) & 63; tail != 0 {
				live[len(live)-1] &= 1<<tail - 1
			}
		}
		e.emit(live, base)
		if !complement && len(heads) == 1 && end < n {
			// One stream left: the rest of the union is its tail (answer).
			// Past the last window one left over is out of the universe.
			e.flush()
			return heads[0], nil
		}
	}
	e.flush()
	if len(heads) > 0 {
		// Only a validation-skipping stream can still hold a position here.
		return mergeHead{}, fmt.Errorf("%w: merge position %d outside universe [0,%d)", ErrCorrupt, heads[0].cur, n)
	}
	if complement && base < n {
		bd.AddRun(base, n-base)
	}
	return mergeHead{}, nil
}
