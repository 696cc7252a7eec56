package wah

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Index is an equality-encoded bitmap index whose per-character bitmaps are
// WAH-compressed — the practical baseline of [18].
type Index struct {
	disk       *iomodel.Disk
	n          int64
	sigma      int
	exts       []iomodel.Extent
	nwords     []int
	structBits int64
}

// BuildIndex constructs a WAH bitmap index over col on disk d.
func BuildIndex(d *iomodel.Disk, col workload.Column) (*Index, error) {
	n := int64(col.Len())
	ix := &Index{disk: d, n: n, sigma: col.Sigma}
	byChar, err := col.Group()
	if err != nil {
		return nil, err
	}
	ix.exts = make([]iomodel.Extent, col.Sigma)
	ix.nwords = make([]int, col.Sigma)
	for a := 0; a < col.Sigma; a++ {
		bm, err := FromPositions(n, byChar[a])
		if err != nil {
			return nil, err
		}
		w := bitio.NewWriter(bm.SizeBits())
		for _, word := range bm.Words() {
			w.WriteBits(uint64(word), 32)
		}
		ix.exts[a] = d.AllocStream(w)
		ix.nwords[a] = len(bm.Words())
	}
	ix.structBits = int64(col.Sigma) * 3 * 64
	return ix, nil
}

// Name implements index.Index.
func (ix *Index) Name() string { return "bitmap-wah" }

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

// Query implements index.Index.
func (ix *Index) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	if err := r.Valid(ix.sigma); err != nil {
		return nil, index.QueryStats{}, err
	}
	t := ix.disk.NewTouch()
	defer t.Close()
	var stats index.QueryStats
	acc := cbitmap.NewPlain(ix.n)
	for a := r.Lo; a <= r.Hi; a++ {
		ext := ix.exts[a]
		rd, err := t.Reader(ext)
		if err != nil {
			return nil, stats, err
		}
		stats.BitsRead += ext.Bits
		words := make([]uint32, ix.nwords[a])
		for i := range words {
			v, err := rd.ReadBits(32)
			if err != nil {
				return nil, stats, err
			}
			words[i] = uint32(v)
		}
		bm, err := FromWords(ix.n, words)
		if err != nil {
			return nil, stats, fmt.Errorf("wah: char %d: %w", a, err)
		}
		bm.ForEach(acc.Set)
	}
	stats.Reads, stats.Writes = t.Reads(), t.Writes()
	return acc.Compress(), stats, nil
}

var _ index.Index = (*Index)(nil)
