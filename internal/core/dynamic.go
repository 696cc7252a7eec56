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
	disk *iomodel.Disk
	opts DynamicOptions

	sigma    int // user-visible alphabet
	sigmaEff int // sigma + 1 (∞ deletion marker)
	n        int64
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
func BuildDynamic(d *iomodel.Disk, col workload.Column, opts DynamicOptions) (*Dynamic, error) {
	if _, err := col.Prefix(); err != nil {
		return nil, err
	}
	return newDynamic(d, col.Sigma, opts, slices.Clone(col.X))
}

// newDynamic builds the index over x, which it keeps: character sigma marks
// a deleted row, and so does a fresh position translator.
func newDynamic(d *iomodel.Disk, sigma int, opts DynamicOptions, x []uint32) (*Dynamic, error) {
	opts.fill()
	if opts.Branching <= 4 {
		return nil, fmt.Errorf("core: branching parameter %d must exceed 4", opts.Branching)
	}
	dx := &Dynamic{disk: d, opts: opts, sigma: sigma, sigmaEff: sigma + 1, n: int64(len(x)), x: x, counts: make([]int64, sigma+1)}
	for _, ch := range x {
		dx.counts[ch]++
	}
	if err := dx.rebuild(); err != nil {
		return nil, err
	}
	trans, err := NewPositionTranslator(d, dx.n)
	if err != nil {
		return nil, err
	}
	dx.trans = trans
	for i, ch := range x {
		if ch == uint32(sigma) {
			if _, err := trans.Delete(int64(i)); err != nil {
				return nil, err
			}
		}
	}
	d.ResetStats()
	return dx, nil
}

// rebuild frees every level's point index and bulk-loads it anew from the
// current string (the build, and global rebuilds once the updates since the
// last build exceed half the string): a level's bins are character ranges,
// so record ranges, and one scatter hands each bin its sorted positions.
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
	for _, px := range dx.points {
		px.free(px.root)
	}
	dx.points = dx.points[:0]
	prefix := make([]int64, dx.sigmaEff+1)
	for a, c := range dx.counts {
		prefix[a+1] = prefix[a] + c
	}
	sc := newLevelScratch[int64](prefix, dx.x)
	var ms []member
	var byBin [][]int64
	for _, bins := range dx.members {
		slices.SortFunc(bins, func(a, b dynBin) int { return cmp.Compare(a.lo, b.lo) })
		// One bin per member; bin index = position in the sorted slice.
		ms, byBin = ms[:0], byBin[:0]
		for _, b := range bins {
			ms = append(ms, member{start: prefix[b.lo], end: prefix[b.hi+1]})
			byBin = append(byBin, sc.slab[prefix[b.lo]:prefix[b.hi+1]])
		}
		if err := sc.scatter(ms); err != nil {
			return err
		}
		px, err := loadPointIndex(dx.disk, len(bins), dx.opts.PointBranching, byBin)
		if err != nil {
			return err
		}
		dx.points = append(dx.points, px)
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

// SizeBits implements index.Index: the levels' point indexes, their bin
// directories, the counts and the position translator.
func (dx *Dynamic) SizeBits() int64 {
	bits := dx.trans.SizeBits()
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

// queryCharStreams collects into sc, in the query's session, the position
// sets of the bins tiling the cover of [lo,hi]: one point-index descent
// (collect) per run of bins of one level, so the buffers on the paths a run
// shares are read once, not once per bin. Consecutive cover nodes abut, so
// the bins of one on the same level as the last continue its run. The
// positions are global row ids below n, so the leaves feed the merge over
// [0,n) directly.
func (dx *Dynamic) queryCharStreams(tc *iomodel.Touch, lo, hi uint32, sc *queryScratch) (bits int64, err error) {
	li, i, j := -1, 0, 0
	for _, u := range dx.cover(lo, hi, nil) {
		ul := dx.levelForDepth(u.depth)
		ui, uj, err := tilesWithin(dx.members[ul], ul, u.lo, u.hi)
		if err != nil {
			return bits, err
		}
		if ul == li {
			j = uj
			continue
		}
		if li >= 0 {
			b, err := dx.points[li].collect(tc, uint32(i), uint32(j), sc, dx.n)
			if bits += b; err != nil {
				return bits, err
			}
		}
		li, i, j = ul, ui, uj
	}
	if li >= 0 {
		b, err := dx.points[li].collect(tc, uint32(i), uint32(j), sc, dx.n)
		return bits + b, err
	}
	return bits, nil
}

// Query implements index.Index. Dense answers use the complement trick; the
// complement side includes the ∞ bin so deleted positions never surface.
// The bins' leaves and the one update overlay stream into a single fused
// merge (complemented in the same pass on the dense path), mirroring the
// static pipeline.
func (dx *Dynamic) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	return dx.QueryContext(context.Background(), r)
}

// QueryContext answers like Query through queryUpdatable, checking ctx
// between the cover phases. The complement's right side always runs to the
// ∞ bin (char sigmaEff-1).
func (dx *Dynamic) QueryContext(ctx context.Context, r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	if err := r.Valid(dx.sigma); err != nil {
		return nil, index.QueryStats{}, err
	}
	var z int64
	for a := r.Lo; a <= r.Hi; a++ {
		z += dx.counts[a]
	}
	return queryUpdatable(ctx, dx, dx.disk, r, dx.n, z, uint32(dx.sigmaEff-1))
}

var _ index.Index = (*Dynamic)(nil)
