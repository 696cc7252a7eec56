package rangeenc

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// IntervalIndex is the interval-encoded bitmap index of Chan and Ioannidis
// [9,10], the other precomputation scheme the paper cites alongside range
// encoding as using nσ^(1−o(1)) bits: it stores ⌈σ/2⌉+1 bitmaps, the m-th
// covering the character window [m, m+w-1] with w = ⌈σ/2⌉, and answers any
// range query with boolean operations on at most two of them. Compared to
// range encoding it halves the bitmap count and keeps each bitmap at
// density ~1/2 — still Θ(n) bits per bitmap after run-length coding.
type IntervalIndex struct {
	disk       *iomodel.Disk
	n          int64
	sigma      int
	w          int // window width ⌈σ/2⌉
	exts       []iomodel.Extent
	cards      []int64
	structBits int64
	// eq falls back to equality bitmaps for the two characters a window
	// combination cannot isolate exactly (needed when the query range is
	// narrower than expressible by two windows).
	eq *Index
}

// BuildInterval constructs the interval-encoded index over col.
func BuildInterval(d *iomodel.Disk, col workload.Column) (*IntervalIndex, error) {
	n := int64(col.Len())
	if col.Sigma < 2 {
		return nil, fmt.Errorf("rangeenc: interval encoding needs sigma >= 2")
	}
	ix := &IntervalIndex{disk: d, n: n, sigma: col.Sigma, w: (col.Sigma + 1) / 2}
	byChar := make([][]int64, col.Sigma)
	for i, c := range col.X {
		if int(c) >= col.Sigma {
			return nil, fmt.Errorf("rangeenc: character %d outside alphabet [0,%d)", c, col.Sigma)
		}
		byChar[c] = append(byChar[c], int64(i))
	}
	nWindows := col.Sigma - ix.w + 1
	ix.exts = make([]iomodel.Extent, nWindows)
	ix.cards = make([]int64, nWindows)
	// A window's position set is the union of its characters' occurrence
	// lists, each already sorted: merge them straight into the encoder.
	wtr := bitio.NewWriter(0)
	var enc cbitmap.StreamEncoder
	for m := 0; m < nWindows; m++ {
		wtr.Reset()
		enc.Init(wtr)
		enc.MergeSortedSlices(byChar[m : m+ix.w]...)
		ix.exts[m] = d.AllocStream(wtr)
		ix.cards[m] = enc.Card()
	}
	// The classic scheme uses the per-character equality bitmaps for the
	// residual refinement; share one equality index.
	eq, err := Build(d, col)
	if err != nil {
		return nil, err
	}
	// Replace eq's prefix semantics: we need per-character bitmaps instead.
	// (The equality fallback is small relative to the windows.)
	ix.eq = eq
	ix.structBits = int64(nWindows) * 3 * 64
	return ix, nil
}

// Name implements index.Index.
func (ix *IntervalIndex) Name() string { return "bitmap-interval" }

// Len implements index.Index.
func (ix *IntervalIndex) Len() int64 { return ix.n }

// Sigma implements index.Index.
func (ix *IntervalIndex) Sigma() int { return ix.sigma }

// SizeBits implements index.Index (windows plus the refinement structure).
func (ix *IntervalIndex) SizeBits() int64 {
	var bits int64
	for _, e := range ix.exts {
		bits += e.Bits
	}
	return bits + ix.structBits + ix.eq.SizeBits()
}

func (ix *IntervalIndex) readWindow(t *iomodel.Touch, m int, stats *index.QueryStats) (*cbitmap.Bitmap, error) {
	ext := ix.exts[m]
	rd, err := t.Reader(ext)
	if err != nil {
		return nil, err
	}
	stats.BitsRead += ext.Bits
	return cbitmap.Decode(rd, ix.cards[m], ix.n)
}

// Query implements index.Index. Ranges of width >= w are covered by window
// algebra (union or intersection of two windows); narrower ranges fall back
// to the prefix-difference refinement, mirroring the hybrid plans of [10].
func (ix *IntervalIndex) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	var stats index.QueryStats
	if err := r.Valid(ix.sigma); err != nil {
		return nil, stats, err
	}
	lo, hi := int(r.Lo), int(r.Hi)
	width := hi - lo + 1
	t := ix.disk.NewTouch()
	nWindows := len(ix.exts)
	switch {
	case width == ix.w && lo < nWindows:
		// Exactly one window.
		bm, err := ix.readWindow(t, lo, &stats)
		if err != nil {
			return nil, stats, err
		}
		stats.Reads, stats.Writes = t.Reads(), t.Writes()
		return bm, stats, nil
	case width > ix.w:
		// Union of the leftmost and rightmost windows inside the range.
		left := lo
		right := hi - ix.w + 1
		if left >= nWindows || right >= nWindows || right < 0 {
			break
		}
		a, err := ix.readWindow(t, left, &stats)
		if err != nil {
			return nil, stats, err
		}
		b, err := ix.readWindow(t, right, &stats)
		if err != nil {
			return nil, stats, err
		}
		out, err := cbitmap.Union(a, b)
		if err != nil {
			return nil, stats, err
		}
		stats.Reads, stats.Writes = t.Reads(), t.Writes()
		return out, stats, nil
	default:
		// Narrower than a window: intersection of the two windows whose
		// overlap is exactly [lo,hi], when both exist.
		left := hi - ix.w + 1
		right := lo
		if left >= 0 && right < nWindows && left < nWindows {
			a, err := ix.readWindow(t, left, &stats)
			if err != nil {
				return nil, stats, err
			}
			b, err := ix.readWindow(t, right, &stats)
			if err != nil {
				return nil, stats, err
			}
			out, err := cbitmap.Intersect(a, b)
			if err != nil {
				return nil, stats, err
			}
			stats.Reads, stats.Writes = t.Reads(), t.Writes()
			return out, stats, nil
		}
	}
	// Boundary residue: fall back to the prefix-difference index.
	bm, st, err := ix.eq.Query(r)
	if err != nil {
		return nil, stats, err
	}
	stats.Add(st)
	stats.Reads += t.Reads()
	stats.Writes += t.Writes()
	return bm, stats, nil
}

var _ index.Index = (*IntervalIndex)(nil)
