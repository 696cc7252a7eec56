package cbitmap

import (
	"math/bits"
	"slices"
)

// Plain is an explicit, uncompressed n-bit bitmap. For constant-size
// alphabets the paper notes that storing a plain bitmap per character is an
// optimal secondary index; Plain backs that baseline and is also used as a
// scratch accumulator where O(n) working space is acceptable.
type Plain struct {
	n     int64
	words []uint64
}

// NewPlain returns an all-zero plain bitmap over [0,n).
func NewPlain(n int64) *Plain {
	return &Plain{n: n, words: make([]uint64, (n+63)/64)}
}

// Universe returns n.
func (p *Plain) Universe() int64 { return p.n }

// SizeBits returns the explicit representation size, n bits.
func (p *Plain) SizeBits() int64 { return p.n }

// Set sets bit i.
func (p *Plain) Set(i int64) { p.words[i>>6] |= 1 << uint(i&63) }

// Clear clears bit i.
func (p *Plain) Clear(i int64) { p.words[i>>6] &^= 1 << uint(i&63) }

// Get reports bit i.
func (p *Plain) Get(i int64) bool { return p.words[i>>6]>>uint(i&63)&1 == 1 }

// Card returns the number of set bits.
func (p *Plain) Card() int64 {
	var c int64
	for _, w := range p.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// Or accumulates q into p (q must share the universe).
func (p *Plain) Or(q *Plain) {
	for i, w := range q.words {
		p.words[i] |= w
	}
}

// OrBitmap accumulates a compressed bitmap into p.
func (p *Plain) OrBitmap(b *Bitmap) {
	it := b.Iter()
	for pos, ok := it.Next(); ok; pos, ok = it.Next() {
		p.Set(pos)
	}
}

// Compress converts p to a compressed bitmap through the window kernel's
// bitset encoder, as StreamEncoder.AddBitset does. It encodes a copy of the
// words, since the encoder zeroes its input and p stays usable.
func (p *Plain) Compress() *Bitmap {
	bd := NewBuilder(4 * int(p.Card()))
	em := denseEmitter{bd: bd, prev: bd.prev}
	em.emit(slices.Clone(p.words), 0)
	em.flush()
	return bd.Bitmap(p.n)
}
