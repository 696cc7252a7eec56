package core

import (
	"context"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Warmup is the paper's §2.1 stepping-stone structure (Theorem 1): a
// complete binary tree U over the alphabet (padded to a power of two), with
// the compressed bitmap I[al;ar] of every node stored at every level,
// concatenated per level in left-to-right order. Space is O(n lg²σ) bits;
// a range query merges the O(lg σ) canonical subtrees in
// O(T/B + lg σ) I/Os.
type Warmup struct {
	disk   *iomodel.Disk
	n      int64
	sigma  int
	padded int // σ rounded up to a power of two
	// levels[j] holds the 2^j nodes of level j (root is level 0, following
	// Go indexing; the paper's level 1).
	levels []RangeLevel
	aExt   iomodel.Extent
}

// BuildWarmup constructs the Theorem 1 index for col on disk d: level j cuts
// the padded alphabet into 2^j nodes, each a member of the level's task, so
// the nodes wholly in the padding are empty streams.
func BuildWarmup(d *iomodel.Disk, col workload.Column) (*Warmup, error) {
	n := int64(col.Len())
	if n == 0 {
		return nil, fmt.Errorf("core: empty column")
	}
	padded := 1
	for padded < col.Sigma {
		padded *= 2
	}
	wx := &Warmup{disk: d, n: n, sigma: col.Sigma, padded: padded}
	var widths []int64
	for w := int64(padded); w >= 1; w /= 2 {
		widths = append(widths, w)
	}
	var err error
	if wx.levels, err = BuildRangeLevels(d, col, int64(padded), widths); err != nil {
		return nil, err
	}
	// A, the prefix counts, from the leaf level's: one node per character.
	aw := bitio.NewWriter((col.Sigma + 1) * 64)
	aw.WriteBits(0, 64)
	var p int64
	for _, card := range wx.levels[len(widths)-1].Cards[:col.Sigma] {
		p += card
		aw.WriteBits(uint64(p), 64)
	}
	wx.aExt = d.AllocStream(aw)
	d.ResetStats()
	return wx, nil
}

// Name implements index.Index.
func (wx *Warmup) Name() string { return "pr-warmup" }

// Len implements index.Index.
func (wx *Warmup) Len() int64 { return wx.n }

// Sigma implements index.Index.
func (wx *Warmup) Sigma() int { return wx.sigma }

// SizeBits implements index.Index.
func (wx *Warmup) SizeBits() int64 {
	var bitsTotal int64
	for _, lv := range wx.levels {
		bitsTotal += int64(len(lv.Exts)) * 3 * 64 // directory
		for _, e := range lv.Exts {
			bitsTotal += e.Bits
		}
	}
	return bitsTotal + wx.aExt.Bits
}

// cover appends to plan, one single-node chunk each, the maximal subtrees of
// the complete binary tree whose leaves lie within the character range
// [lo,hi] — at most two per level (§2.1).
func (wx *Warmup) cover(plan *QueryPlan, lo, hi int64) {
	width := int64(1)
	level := len(wx.levels) - 1 // leaf level
	take := func(node int64) {
		plan.Chunks = append(plan.Chunks, PlanChunk{Level: level, I: int(node), J: int(node) + 1})
	}
	for lo <= hi {
		if lo%(2*width) != 0 { // lo's node is a right child: take it alone
			take(lo / width)
			lo += width
		}
		if (hi+1)%(2*width) != 0 && lo <= hi { // hi's node is a left child
			take(hi / width)
			hi -= width
		}
		width *= 2
		level--
	}
}

// Query implements index.Index on the static executor: the two prefix reads
// give z, the cover is planned into a pooled QueryPlan, and execute runs it
// exactly as it runs an Optimal plan — one fused decode-merge pass,
// complemented in the same pass on the dense path.
func (wx *Warmup) Query(r index.Range) (out *cbitmap.Bitmap, stats index.QueryStats, err error) {
	if err = r.Valid(wx.sigma); err != nil {
		return nil, stats, err
	}
	tc := wx.disk.NewTouch()
	defer tc.Close()
	defer func() {
		stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
		stats.FailedReads = tc.FailedReads()
	}()
	qlo, qhi, err := recordRange(tc, wx.aExt, r)
	if err != nil {
		return nil, stats, err
	}
	sc := getScratch()
	defer sc.release()
	plans := sc.growPlans(1)
	plan := &plans[0]
	plan.Complement = qhi-qlo > wx.n/2
	last := uint32(wx.sigma - 1)
	// Planning reads nothing, so it cannot fail.
	_ = collectSides(r, plan.Complement, last, func(lo, hi uint32) error {
		if plan.Complement && hi == last {
			// The right side runs on through the padding, whose characters
			// never occur: fewer, larger nodes.
			hi = uint32(wx.padded - 1)
		}
		wx.cover(plan, int64(lo), int64(hi))
		return nil
	})
	dirOf := func(level int) memberDir { return &wx.levels[level] }
	answers, err := sc.execute(context.Background(), tc, plans, dirOf, len(wx.levels), wx.n, &stats)
	if err != nil {
		return nil, stats, err
	}
	return answers[0], stats, nil
}

var _ index.Index = (*Warmup)(nil)
