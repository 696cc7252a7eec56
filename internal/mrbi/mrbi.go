// Package mrbi implements the multi-resolution (binned) bitmap index of
// Sinha and Winslett [16], the precomputation scheme §1.2 analyses: the
// alphabet is divided into bins of w characters with one compressed bitmap
// per bin, recursively at coarser and coarser resolutions. A range query is
// covered by O(w log_w σ) bins, so queries read a factor O(lg w) less than
// a flat bitmap index — but worst-case space grows to Θ(n lg²σ / lg w)
// bits. The paper's point (Experiment E4) is that this trade-off is
// inherent to binning, and its own structure avoids it.
package mrbi

import (
	"fmt"

	"repro/internal/cbitmap"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Index is a multi-resolution binned bitmap index.
type Index struct {
	disk  *iomodel.Disk
	n     int64
	sigma int
	w     int // bin width multiplier per level
	// levels[l] holds bins of width w^l; level 0 is per-character.
	levels     []core.RangeLevel
	structBits int64
}

// Build constructs the index over col with bin-width multiplier w >= 2.
// Levels are built while the bin width is below σ, so level 0 is the flat
// per-character index and each coarser level has w× wider bins.
func Build(d *iomodel.Disk, col workload.Column, w int) (*Index, error) {
	if w < 2 {
		return nil, fmt.Errorf("mrbi: bin width multiplier %d must be >= 2", w)
	}
	ix := &Index{disk: d, n: int64(col.Len()), sigma: col.Sigma, w: w}
	widths := []int64{1}
	for width := int64(w); width < int64(col.Sigma); width *= int64(w) {
		widths = append(widths, width)
	}
	var err error
	if ix.levels, err = core.BuildRangeLevels(d, col, int64(col.Sigma), widths); err != nil {
		return nil, err
	}
	for _, lv := range ix.levels {
		ix.structBits += int64(len(lv.Exts)) * 3 * 64
	}
	return ix, nil
}

// Name implements index.Index.
func (ix *Index) Name() string { return fmt.Sprintf("mrbi-w%d", ix.w) }

// Len implements index.Index.
func (ix *Index) Len() int64 { return ix.n }

// Sigma implements index.Index.
func (ix *Index) Sigma() int { return ix.sigma }

// Levels returns the number of resolution levels.
func (ix *Index) Levels() int { return len(ix.levels) }

// PayloadBits returns the bitmap bits alone, excluding the directory.
func (ix *Index) PayloadBits() int64 {
	var bits int64
	for _, lv := range ix.levels {
		for _, e := range lv.Exts {
			bits += e.Bits
		}
	}
	return bits
}

// SizeBits implements index.Index.
func (ix *Index) SizeBits() int64 { return ix.PayloadBits() + ix.structBits }

// binRef identifies one bin of the cover.
type binRef struct {
	level int
	bin   int64
}

// cover computes the canonical w-ary cover of [lo,hi]: at each level, peel
// off bins not aligned to a parent bin, then recurse on the aligned middle.
// At most 2(w−1) bins per level are selected.
func (ix *Index) cover(lo, hi int64) []binRef {
	var out []binRef
	width := int64(1)
	for l := 0; lo <= hi; l++ {
		if l == len(ix.levels)-1 {
			// Coarsest level: the remainder is aligned; take it whole.
			for b := lo / width; b <= hi/width; b++ {
				out = append(out, binRef{level: l, bin: b})
			}
			break
		}
		parent := width * int64(ix.w)
		for lo%parent != 0 && lo <= hi {
			out = append(out, binRef{level: l, bin: lo / width})
			lo += width
		}
		for (hi+1)%parent != 0 && lo <= hi {
			out = append(out, binRef{level: l, bin: hi / width})
			hi -= width
		}
		width = parent
	}
	return out
}

// Query implements index.Index.
func (ix *Index) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	if err := r.Valid(ix.sigma); err != nil {
		return nil, index.QueryStats{}, err
	}
	t := ix.disk.NewTouch()
	defer t.Close()
	var stats index.QueryStats
	refs := ix.cover(int64(r.Lo), int64(r.Hi))
	ms := make([]*cbitmap.Bitmap, 0, len(refs))
	for _, ref := range refs {
		lv := ix.levels[ref.level]
		if ref.bin >= int64(len(lv.Exts)) {
			continue // padding beyond σ
		}
		ext := lv.Exts[ref.bin]
		rd, err := t.Reader(ext)
		if err != nil {
			return nil, stats, err
		}
		stats.BitsRead += ext.Bits
		bm, err := cbitmap.Decode(rd, lv.Cards[ref.bin], ix.n)
		if err != nil {
			return nil, stats, fmt.Errorf("mrbi: level %d bin %d: %w", ref.level, ref.bin, err)
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

var _ index.Index = (*Index)(nil)
