package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Dynamic is the paper's fully dynamic secondary index (Theorem 7): "all the
// bitmaps stored at any particular materialized level ... can be thought of
// as representing a bitmap index over an alphabet containing one character
// corresponding to each node in that level. Thus we can obtain a fully
// dynamic secondary bitmap index by representing each of the materialized
// levels as a buffered bitmap index."
//
// Each materialised level of the weight-balanced tree is a PointIndex
// (Theorem 6) whose alphabet is the member ordinals of that level. A
// change(i, α) becomes a delete+insert on every level (amortised
// O(lg n lg lg n / b) I/Os); a range query decomposes into O(1) point
// queries per materialised level. Deletions use the paper's ∞-character
// trick: the alphabet is extended by one never-queried character.
type Dynamic struct {
	disk iomodel.Device
	opts DynamicOptions

	sigma    int // user-visible alphabet
	sigmaEff int // sigma + 1 (∞ deletion marker)
	n        int64
	deleted  int64
	x        []uint32 // current string (∞ = sigmaEff-1 for deleted)
	counts   []int64

	charSkeleton
	// members[li] lists, sorted by lo, the char ranges of level li's bins.
	members [][]dynBin
	// points[li] is the buffered bitmap index of level li.
	points []*PointIndex

	updatesSinceBuild int64
	// GlobalRebuildCount counts full rebuilds (exported for experiments).
	GlobalRebuildCount int

	// trans maintains the §4 raw/live position translation for deletions.
	trans *PositionTranslator
}

// DynamicOptions configures the Theorem 7 structure.
type DynamicOptions struct {
	// Branching is the tree's branching parameter c (> 4).
	Branching int
	// Stride is the materialisation stride (2 = paper).
	Stride int
	// PointBranching is the branching of the per-level buffered bitmap
	// indexes (>= 2).
	PointBranching int
}

func (o *DynamicOptions) fill() {
	if o.Branching == 0 {
		o.Branching = DefaultBranching
	}
	if o.Stride == 0 {
		o.Stride = 2
	}
	if o.PointBranching == 0 {
		o.PointBranching = 8
	}
}

// dynBin maps a char range to a bin of a level's point index.
type dynBin struct {
	lo, hi uint32
}

// BuildDynamic constructs the Theorem 7 index over col.
func BuildDynamic(d iomodel.Device, col workload.Column, opts DynamicOptions) (*Dynamic, error) {
	opts.fill()
	if opts.Branching <= 4 {
		return nil, fmt.Errorf("core: branching parameter %d must exceed 4", opts.Branching)
	}
	if col.Sigma < 1 {
		return nil, fmt.Errorf("core: alphabet size %d", col.Sigma)
	}
	dx := &Dynamic{
		disk:     d,
		opts:     opts,
		sigma:    col.Sigma,
		sigmaEff: col.Sigma + 1,
	}
	dx.x = make([]uint32, 0, col.Len())
	dx.counts = make([]int64, dx.sigmaEff)
	for _, ch := range col.X {
		if int(ch) >= col.Sigma {
			return nil, fmt.Errorf("core: character %d outside alphabet [0,%d)", ch, col.Sigma)
		}
		dx.x = append(dx.x, ch)
		dx.counts[ch]++
		dx.n++
	}
	if err := dx.rebuild(); err != nil {
		return nil, err
	}
	trans, err := NewPositionTranslator(d, dx.n)
	if err != nil {
		return nil, err
	}
	dx.trans = trans
	d.ResetStats()
	return dx, nil
}

// rebuild reconstructs the skeleton and every level's point index from the
// current string (initial build, and global rebuilds once the update count
// since the last build exceeds the string length).
func (dx *Dynamic) rebuild() error {
	h := heightFor(dx.n+int64(dx.sigmaEff), dx.opts.Branching)
	all := dx.reset(buildCharSkeleton(dx.counts, dx.opts.Branching, nil, 0, 0, uint32(dx.sigmaEff-1), h), dx.opts.Stride)
	dx.members = make([][]dynBin, len(dx.depths))
	for _, v := range all {
		li := dx.memberLevelOf(v)
		if li < 0 {
			continue
		}
		dx.members[li] = append(dx.members[li], dynBin{lo: v.lo, hi: v.hi})
	}
	dx.points = dx.points[:0]
	for li := range dx.members {
		slices.SortFunc(dx.members[li], func(a, b dynBin) int { return cmp.Compare(a.lo, b.lo) })
		// One bin per member; bin index = position in the sorted slice.
		px, err := NewPointIndex(dx.disk, len(dx.members[li]), dx.opts.PointBranching)
		if err != nil {
			return err
		}
		dx.points = append(dx.points, px)
	}
	// Populate: bulk insert every position into its bin at every level.
	for i, ch := range dx.x {
		for li := range dx.members {
			bin, ok := dx.binFor(li, ch)
			if !ok {
				continue
			}
			if _, err := dx.points[li].Insert(uint32(bin), int64(i)); err != nil {
				return err
			}
		}
	}
	dx.updatesSinceBuild = 0
	dx.GlobalRebuildCount++
	return nil
}

// binFor returns the bin index of character ch at level li.
func (dx *Dynamic) binFor(li int, ch uint32) (int, bool) {
	i := tileFor(dx.members[li], ch)
	return i, i >= 0
}

// Name implements index.Index.
func (dx *Dynamic) Name() string { return "pr-dynamic" }

// Len implements index.Index.
func (dx *Dynamic) Len() int64 { return dx.n }

// Sigma implements index.Index.
func (dx *Dynamic) Sigma() int { return dx.sigma }

// SizeBits implements index.Index.
func (dx *Dynamic) SizeBits() int64 {
	var bits int64
	for _, px := range dx.points {
		bits += px.SizeBits()
	}
	for _, ms := range dx.members {
		bits += int64(len(ms)) * 2 * 64
	}
	return bits + int64(dx.sigmaEff)*64
}

// Change sets position i to character ch (the paper's change(x, i, α)):
// a delete and an insert on each materialised level's buffered bitmap
// index, amortised O(lg n lg lg n / b) I/Os.
func (dx *Dynamic) Change(i int64, ch uint32) (index.QueryStats, error) {
	var stats index.QueryStats
	if err := dx.ValidateChange(i, ch); err != nil {
		return stats, err
	}
	return dx.change(i, ch)
}

// Delete marks position i deleted by changing it to the ∞ character whose
// bin no range query ever touches. Positions of other characters are
// unchanged, exactly the paper's deletion semantics.
func (dx *Dynamic) Delete(i int64) (index.QueryStats, error) {
	var stats index.QueryStats
	if err := dx.ValidateDelete(i); err != nil {
		return stats, err
	}
	if _, err := dx.trans.Delete(i); err != nil {
		return stats, err
	}
	return dx.change(i, uint32(dx.sigmaEff-1))
}

// Translator exposes the raw/live position translation structure: "this
// allows translating positions back and forth between the two systems using
// O(log_b n) I/Os".
func (dx *Dynamic) Translator() *PositionTranslator { return dx.trans }

func (dx *Dynamic) change(i int64, ch uint32) (index.QueryStats, error) {
	var stats index.QueryStats
	old := dx.x[i]
	if old == ch {
		return stats, nil
	}
	for li := range dx.members {
		if bin, ok := dx.binFor(li, old); ok {
			st, err := dx.points[li].Delete(uint32(bin), i)
			if err != nil {
				return stats, err
			}
			stats.Add(st)
		}
		if bin, ok := dx.binFor(li, ch); ok {
			st, err := dx.points[li].Insert(uint32(bin), i)
			if err != nil {
				return stats, err
			}
			stats.Add(st)
		}
	}
	wasDeleted := old == uint32(dx.sigmaEff-1)
	isDeleted := ch == uint32(dx.sigmaEff-1)
	if wasDeleted && !isDeleted {
		dx.deleted--
	}
	if !wasDeleted && isDeleted {
		dx.deleted++
	}
	dx.counts[old]--
	dx.counts[ch]++
	dx.x[i] = ch
	dx.updatesSinceBuild++
	if dx.updatesSinceBuild > dx.n/2+16 {
		// Global rebuilding, as the paper prescribes for deletions; the
		// amortised cost is O((nH₀/B)/n) per update.
		if err := dx.rebuild(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// Append appends character ch at the end of the string.
func (dx *Dynamic) Append(ch uint32) (index.QueryStats, error) {
	var stats index.QueryStats
	if err := dx.ValidateAppend(ch); err != nil {
		return stats, err
	}
	pos := dx.n
	for li := range dx.members {
		bin, ok := dx.binFor(li, ch)
		if !ok {
			continue
		}
		st, err := dx.points[li].Insert(uint32(bin), pos)
		if err != nil {
			return stats, err
		}
		stats.Add(st)
	}
	dx.x = append(dx.x, ch)
	dx.counts[ch]++
	dx.n++
	if err := dx.trans.Extend(dx.n); err != nil {
		return stats, err
	}
	dx.updatesSinceBuild++
	if dx.updatesSinceBuild > dx.n/2+16 {
		if err := dx.rebuild(); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// queryCharStreams collects, into sc, one stream per point query of the
// cover of [lo,hi]. The point index answers over its own fixed position
// universe, but the positions are global row ids below n, so each result
// feeds the merge over [0,n) directly — the decode → Positions → re-encode
// rebase of the materialising path is gone.
func (dx *Dynamic) queryCharStreams(lo, hi uint32, sc *queryScratch, stats *index.QueryStats) error {
	for _, u := range dx.cover(lo, hi, nil) {
		li := dx.levelForDepth(u.depth)
		i, j, err := tilesWithin(dx.members[li], li, u.lo, u.hi)
		if err != nil {
			return err
		}
		for k := i; k < j; k++ {
			bm, st, err := dx.points[li].PointQuery(uint32(k))
			stats.Add(st) // even on error: failed attempts stay accounted
			if err != nil {
				return err
			}
			sc.addBitmapStream(bm, dx.n)
		}
	}
	return nil
}

// Query implements index.Index. Dense answers use the complement trick; the
// complement side includes the ∞ bin so deleted positions never surface.
// The point-query results stream into a single fused merge (complemented in
// the same pass on the dense path), mirroring the static pipeline.
func (dx *Dynamic) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	return dx.QueryContext(context.Background(), r)
}

// QueryContext answers like Query, checking ctx between the cover phases.
// Stats accumulate across every point query attempted, including ones that
// failed on a faulty device, so retry layers can account every attempt.
func (dx *Dynamic) QueryContext(ctx context.Context, r index.Range) (out *cbitmap.Bitmap, stats index.QueryStats, err error) {
	if err = r.Valid(dx.sigma); err != nil {
		return nil, stats, err
	}
	var z int64
	for a := r.Lo; a <= r.Hi; a++ {
		z += dx.counts[a]
	}
	sc := getScratch()
	defer sc.release()
	if err = ctx.Err(); err != nil {
		return nil, stats, err
	}
	complement := z > dx.n/2
	// The complement's right side always runs to the ∞ bin (char sigmaEff-1).
	err = collectSides(r, complement, uint32(dx.sigmaEff-1), func(lo, hi uint32) error {
		return dx.queryCharStreams(lo, hi, sc, &stats)
	})
	if err != nil {
		return nil, stats, err
	}
	if err = ctx.Err(); err != nil {
		return nil, stats, err
	}
	out, err = sc.merge(dx.n, complement, false)
	return out, stats, err
}

var _ index.Changer = (*Dynamic)(nil)
