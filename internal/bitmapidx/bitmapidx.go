// Package bitmapidx implements the paper's §1.2 baseline: the
// equality-encoded bitmap index. For every character a ∈ Σ it stores the
// bitmap of I{a}, either explicitly (n bits each — optimal for constant σ)
// or run-length compressed with gamma codes. A range query reads the ℓ
// bitmaps of the characters in the range and unions them; §1.2 shows this
// reads a factor Ω(lg σ / lg(σ/ℓ)) more bits than the answer requires.
package bitmapidx

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Index is a per-character bitmap index on a simulated disk.
type Index struct {
	disk       *iomodel.Disk
	n          int64
	sigma      int
	compressed bool
	exts       []iomodel.Extent // per character, contiguous on disk
	cards      []int64
	structBits int64
}

// Build constructs the index over col. If compressed is true each bitmap is
// gap+gamma coded; otherwise each bitmap is stored explicitly with n bits.
func Build(d *iomodel.Disk, col workload.Column, compressed bool) (*Index, error) {
	n := int64(col.Len())
	ix := &Index{disk: d, n: n, sigma: col.Sigma, compressed: compressed}
	byChar, err := col.Group()
	if err != nil {
		return nil, err
	}
	ix.exts = make([]iomodel.Extent, col.Sigma)
	ix.cards = make([]int64, col.Sigma)
	for a := 0; a < col.Sigma; a++ {
		ix.cards[a] = int64(len(byChar[a]))
		var w *bitio.Writer
		if compressed {
			bm, err := cbitmap.FromPositions(n, byChar[a])
			if err != nil {
				return nil, err
			}
			w = bitio.NewWriter(bm.SizeBits())
			bm.EncodeTo(w)
		} else {
			p := cbitmap.NewPlain(n)
			for _, pos := range byChar[a] {
				p.Set(pos)
			}
			w = bitio.NewWriter(int(n))
			writePlain(w, p, n)
		}
		ix.exts[a] = d.AllocStream(w)
	}
	// Directory: per character an (offset, length, cardinality) triple.
	ix.structBits = int64(col.Sigma) * 3 * 64
	return ix, nil
}

func writePlain(w *bitio.Writer, p *cbitmap.Plain, n int64) {
	for i := int64(0); i < n; i += 64 {
		var v uint64
		hi := i + 64
		if hi > n {
			hi = n
		}
		for j := i; j < hi; j++ {
			v <<= 1
			if p.Get(j) {
				v |= 1
			}
		}
		w.WriteBits(v, int(hi-i))
	}
}

// Name implements index.Index.
func (ix *Index) Name() string {
	if ix.compressed {
		return "bitmap-gamma"
	}
	return "bitmap-plain"
}

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

// Query implements index.Index: read the bitmaps of all characters in the
// range and union them.
func (ix *Index) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	if err := r.Valid(ix.sigma); err != nil {
		return nil, index.QueryStats{}, err
	}
	t := ix.disk.NewTouch()
	defer t.Close()
	var stats index.QueryStats
	if ix.compressed {
		ms := make([]*cbitmap.Bitmap, 0, r.Len())
		for a := r.Lo; a <= r.Hi; a++ {
			ext := ix.exts[a]
			rd, err := t.Reader(ext)
			if err != nil {
				return nil, stats, err
			}
			stats.BitsRead += ext.Bits
			bm, err := cbitmap.Decode(rd, ix.cards[a], ix.n)
			if err != nil {
				return nil, stats, fmt.Errorf("bitmapidx: char %d: %w", a, err)
			}
			ms = append(ms, bm)
		}
		out, err := cbitmap.Union(ms...)
		if err != nil {
			return nil, stats, err
		}
		stats.Reads, stats.Writes = t.Reads(), t.Writes()
		return out, stats, nil
	}
	acc := cbitmap.NewPlain(ix.n)
	for a := r.Lo; a <= r.Hi; a++ {
		ext := ix.exts[a]
		rd, err := t.Reader(ext)
		if err != nil {
			return nil, stats, err
		}
		stats.BitsRead += ext.Bits
		for i := int64(0); i < ix.n; {
			take := ix.n - i
			if take > 64 {
				take = 64
			}
			v, err := rd.ReadBits(int(take))
			if err != nil {
				return nil, stats, err
			}
			for j := int64(0); j < take; j++ {
				if v>>uint(take-1-j)&1 == 1 {
					acc.Set(i + j)
				}
			}
			i += take
		}
	}
	stats.Reads, stats.Writes = t.Reads(), t.Writes()
	return acc.Compress(), stats, nil
}

var _ index.Index = (*Index)(nil)
