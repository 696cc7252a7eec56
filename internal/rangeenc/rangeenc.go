// Package rangeenc implements the range-encoded bitmap index of O'Neil and
// Quass [14], the precomputation scheme §1.2 cites as answering range
// queries from O(1) bitmaps at the price of nσ^(1−o(1)) bits of space: for
// every character a it stores the *prefix* bitmap of I[a1;a] = { i | x_i <=
// a }, so any range query is the difference of two stored bitmaps.
//
// Prefix bitmaps are dense (the median character's bitmap has n/2 ones), so
// run-length compression cannot save the space that equality encoding
// saves — which is precisely the paper's argument for excluding the scheme
// from the space-conscious comparison. It is implemented here to measure
// that trade-off rather than assert it.
package rangeenc

import (
	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Index is a range-encoded bitmap index on a simulated disk.
type Index struct {
	disk       *iomodel.Disk
	n          int64
	sigma      int
	exts       []iomodel.Extent // prefix bitmap of chars [0,a], per a
	cards      []int64
	structBits int64
}

// Build constructs the index over col; each prefix bitmap is gap+gamma
// compressed (compression helps only the sparse extremes).
func Build(d *iomodel.Disk, col workload.Column) (*Index, error) {
	n := int64(col.Len())
	ix := &Index{disk: d, n: n, sigma: col.Sigma}
	byChar, err := col.Group()
	if err != nil {
		return nil, err
	}
	ix.exts = make([]iomodel.Extent, col.Sigma)
	ix.cards = make([]int64, col.Sigma)
	acc := cbitmap.NewPlain(n)
	for a := 0; a < col.Sigma; a++ {
		for _, p := range byChar[a] {
			acc.Set(p)
		}
		bm := acc.Compress()
		w := bitio.NewWriter(bm.SizeBits())
		bm.EncodeTo(w)
		ix.exts[a] = d.AllocStream(w)
		ix.cards[a] = bm.Card()
	}
	ix.structBits = int64(col.Sigma) * 3 * 64
	return ix, nil
}

// Name implements index.Index.
func (ix *Index) Name() string { return "bitmap-range" }

// Len implements index.Index.
func (ix *Index) Len() int64 { return ix.n }

// Sigma implements index.Index.
func (ix *Index) Sigma() int { return ix.sigma }

// SizeBits implements index.Index.
func (ix *Index) SizeBits() int64 {
	var bits int64
	for _, e := range ix.exts {
		bits += e.Bits
	}
	return bits + ix.structBits
}

// Query implements index.Index: I[lo;hi] = prefix(hi) \ prefix(lo-1), at
// most two bitmap reads regardless of the range length.
func (ix *Index) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	var stats index.QueryStats
	if err := r.Valid(ix.sigma); err != nil {
		return nil, stats, err
	}
	t := ix.disk.NewTouch()
	defer t.Close()
	read := func(a uint32) (*cbitmap.Bitmap, error) {
		ext := ix.exts[a]
		rd, err := t.Reader(ext)
		if err != nil {
			return nil, err
		}
		stats.BitsRead += ext.Bits
		return cbitmap.Decode(rd, ix.cards[a], ix.n)
	}
	hiBM, err := read(r.Hi)
	if err != nil {
		return nil, stats, err
	}
	out := hiBM
	if r.Lo > 0 {
		loBM, err := read(r.Lo - 1)
		if err != nil {
			return nil, stats, err
		}
		out, err = cbitmap.Difference(hiBM, loBM)
		if err != nil {
			return nil, stats, err
		}
	}
	stats.Reads, stats.Writes = t.Reads(), t.Writes()
	return out, stats, nil
}

var _ index.Index = (*Index)(nil)
