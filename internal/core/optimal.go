package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// OptimalOptions configures the Theorem 2 structure.
type OptimalOptions struct {
	// Branching is the weight-balanced tree's branching parameter c
	// (constant > 4). Zero selects DefaultBranching.
	Branching int
	// Stride controls which tree depths are materialised. Stride 2 is the
	// paper's choice (depths 1, 2, 4, 8, …, leaf level), giving O(lg lg n)
	// materialised levels and the Theorem 2 bounds. Stride 1 materialises
	// every level (the §2.2 "naive upper bound", O(n lg² n) bits). Larger
	// strides are ablations. Zero selects 2.
	Stride int
	// NoComplement disables the z > n/2 complement trick (ablation).
	NoComplement bool
}

func (o *OptimalOptions) fill() {
	if o.Branching == 0 {
		o.Branching = DefaultBranching
	}
	if o.Stride == 0 {
		o.Stride = 2
	}
}

// member is one bitmap of a materialised level: a tree node's position set,
// identified by its record range, stored at the level's concatenated extent.
type member struct {
	start, end int64
	ext        iomodel.Extent
	card       int64
}

// matLevel is one materialised level: the bitmaps of all nodes at the
// level's depth plus the pruned leaves strictly between the previous
// materialised depth and this one, concatenated in left-to-right (record)
// order so that a cover subtree's frontier is one contiguous chunk.
type matLevel struct {
	depth   int
	members []member
}

// chunk returns the index range [i,j) of members tiling records [lo,hi).
func (lv *matLevel) chunk(lo, hi int64) (int, int, error) {
	i := sort.Search(len(lv.members), func(k int) bool { return lv.members[k].start >= lo })
	j := i
	for j < len(lv.members) && lv.members[j].end <= hi {
		j++
	}
	if i == j {
		return 0, 0, fmt.Errorf("core: no members tile records [%d,%d) at depth %d", lo, hi, lv.depth)
	}
	if lv.members[i].start != lo || lv.members[j-1].end != hi {
		return 0, 0, fmt.Errorf("core: members do not tile records [%d,%d) at depth %d", lo, hi, lv.depth)
	}
	return i, j, nil
}

// Optimal is the paper's Theorem 2 structure: the pruned weight-balanced
// tree with materialised levels 1, 2, 4, 8, … and the leaf level, the
// prefix-count array A, and the blocked tree layout. Space is
// O(nH₀ + n + σ lg²n) bits; a query reads O(z lg(n/z)/B + lg_b n + lg lg n)
// blocks.
type Optimal struct {
	disk   iomodel.Device
	tree   *Tree
	layout *treeLayout
	opts   OptimalOptions

	levels []matLevel
	aExt   iomodel.Extent // prefix array A: (σ+1) 64-bit entries
	// dirBits accounts for the per-member directory (offset, length,
	// cardinality), charged at O(lg n) bits each as the paper does for its
	// node pointers.
	dirBits int64
}

// BuildOptimal constructs the Theorem 2 index for col on disk d, its levels
// side by side on up to GOMAXPROCS workers (build.go).
func BuildOptimal(d iomodel.Device, col workload.Column, opts OptimalOptions) (*Optimal, error) {
	ox, _, err := buildLevels(NewWorkers(0), d, col, opts, nil)
	return ox, err
}

// materialDepths returns the sorted materialised depths: 1, s, s², … (or
// every depth for stride 1), always including the leaf level height.
func materialDepths(height, stride int) []int {
	set := map[int]struct{}{height: {}}
	if stride <= 1 {
		for d := 1; d <= height; d++ {
			set[d] = struct{}{}
		}
	} else {
		for d := 1; d < height; d *= stride {
			set[d] = struct{}{}
		}
	}
	out := make([]int, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Name implements index.Index.
func (ox *Optimal) Name() string { return "pr-optimal" }

// Len implements index.Index.
func (ox *Optimal) Len() int64 { return ox.tree.n }

// Sigma implements index.Index.
func (ox *Optimal) Sigma() int { return ox.tree.sigma }

// Tree exposes the underlying weight-balanced tree (tests, experiments).
func (ox *Optimal) Tree() *Tree { return ox.tree }

// MaterialisedLevels returns the number of materialised levels (the paper's
// O(lg lg n)).
func (ox *Optimal) MaterialisedLevels() int { return len(ox.levels) }

// SizeBits implements index.Index: bitmap payloads + directory + prefix
// array + blocked tree structure.
func (ox *Optimal) SizeBits() int64 {
	var bits int64
	for _, lv := range ox.levels {
		for _, m := range lv.members {
			bits += m.ext.Bits
		}
	}
	return bits + ox.dirBits + ox.aExt.Bits + ox.layout.sizeBits()
}

// BitmapBits returns only the bitmap payload bits (the O(nH₀) term),
// excluding the σ·polylog structure overhead — used by the entropy
// experiment E3.
func (ox *Optimal) BitmapBits() int64 {
	var bits int64
	for _, lv := range ox.levels {
		for _, m := range lv.members {
			bits += m.ext.Bits
		}
	}
	return bits
}

// levelFor returns the materialised level index for a cover node at depth d.
func (ox *Optimal) levelFor(d int) int {
	i := sort.Search(len(ox.levels), func(k int) bool { return ox.levels[k].depth >= d })
	if i == len(ox.levels) {
		i = len(ox.levels) - 1
	}
	return i
}

// readCoverStreams reads, in one contiguous scan, the frontier of cover
// subtree v and appends one decode stream per member to sc: no member bitmap
// is materialised, and the downstream merge decodes each gap exactly once.
func (ox *Optimal) readCoverStreams(tc *iomodel.Touch, v *Node, sc *queryScratch, stats *index.QueryStats) error {
	lv := &ox.levels[ox.levelFor(v.Depth)]
	i, j, err := lv.chunk(v.Start, v.End)
	if err != nil {
		return err
	}
	span := iomodel.Extent{
		Off:  lv.members[i].ext.Off,
		Bits: lv.members[j-1].ext.End() - lv.members[i].ext.Off,
	}
	cb := sc.nextBuf()
	if err := tc.ReaderInto(span, cb.w); err != nil {
		return err
	}
	cb.r.Init(cb.w.Bytes(), cb.w.Len())
	stats.BitsRead += span.Bits
	for k := i; k < j; k++ {
		m := &lv.members[k]
		var s cbitmap.Stream
		if err := s.InitDecode(&cb.r, int(m.ext.Off-span.Off), int(m.ext.Bits), m.card, ox.tree.n, 0); err != nil {
			return fmt.Errorf("core: depth %d member %d: %w", lv.depth, k, err)
		}
		sc.streams = append(sc.streams, s)
	}
	return nil
}

// queryStreams collects the streams answering a record-range query: one per
// member of the range's canonical cover frontier. ctx is checked between
// cover members, the cancellation granularity of a single query.
func (ox *Optimal) queryStreams(ctx context.Context, tc *iomodel.Touch, qlo, qhi int64, sc *queryScratch, stats *index.QueryStats) error {
	if qlo >= qhi {
		return nil
	}
	var chargeErr error
	cover := ox.tree.Cover(qlo, qhi, func(v *Node) {
		if err := ox.layout.charge(tc, v); err != nil && chargeErr == nil {
			chargeErr = err
		}
	})
	if chargeErr != nil {
		return chargeErr
	}
	for _, v := range cover {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := ox.layout.charge(tc, v); err != nil {
			return err
		}
		if err := ox.readCoverStreams(tc, v, sc, stats); err != nil {
			return err
		}
	}
	return nil
}

// Query implements index.Index. It computes z from the on-disk prefix array,
// applies the complement trick for dense answers, decomposes the record
// range into its canonical cover and fuses decode and merge into a single
// streaming pass: the cover members' gap streams feed cbitmap.MergeStreams
// (or, on the dense path, MergeStreamsComplement) directly, so no
// intermediate per-chunk bitmap is ever materialised and every bit read is
// decoded exactly once.
func (ox *Optimal) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	return ox.QueryContext(context.Background(), r)
}

// QueryContext answers like Query, checking ctx for cancellation between
// cover members and before the final merge. The stats are populated even on
// an error return (including the session's failed read attempts), so retry
// layers can account every attempt they make.
func (ox *Optimal) QueryContext(ctx context.Context, r index.Range) (out *cbitmap.Bitmap, stats index.QueryStats, err error) {
	if err = r.Valid(ox.tree.sigma); err != nil {
		return nil, stats, err
	}
	tc := ox.disk.NewTouch()
	defer tc.Close()
	defer func() {
		stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
		stats.FailedReads = tc.FailedReads()
	}()
	// Read A[lo] and A[hi+1] to compute z (O(1) I/Os).
	aLo, err := tc.ReadBits(ox.aExt.Off+int64(r.Lo)*64, 64)
	if err != nil {
		return nil, stats, err
	}
	aHi, err := tc.ReadBits(ox.aExt.Off+int64(r.Hi+1)*64, 64)
	if err != nil {
		return nil, stats, err
	}
	out, err = ox.answerRecords(ctx, tc, int64(aLo), int64(aHi), &stats)
	return out, stats, err
}

// answerRecords answers the record range [qlo,qhi) — what a query becomes
// once A has turned its character range into records — inside the caller's
// session: the exact query's body, and the exact fallback of an approximate
// one.
func (ox *Optimal) answerRecords(ctx context.Context, tc *iomodel.Touch, qlo, qhi int64, stats *index.QueryStats) (out *cbitmap.Bitmap, err error) {
	n := ox.tree.n
	sc := getScratch()
	defer sc.release()
	complement := qhi-qlo > n/2 && !ox.opts.NoComplement
	if complement {
		// Answer the two complementary queries and return the complement of
		// their union (§2.1), fused into the same merge pass.
		err = ox.queryStreams(ctx, tc, 0, qlo, sc, stats)
		if err == nil {
			err = ox.queryStreams(ctx, tc, qhi, n, sc, stats)
		}
	} else {
		err = ox.queryStreams(ctx, tc, qlo, qhi, sc, stats)
	}
	if err == nil {
		err = ctx.Err() // checkpoint before the merge materialises the answer
	}
	if err != nil {
		return nil, err
	}
	if complement {
		out, err = cbitmap.MergeStreamsComplement(n, sc.streamPtrs()...)
	} else {
		out, err = cbitmap.MergeStreams(n, sc.streamPtrs()...)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

var _ index.Index = (*Optimal)(nil)

// BuildOptimalDefault is a convenience wrapper with default options.
func BuildOptimalDefault(d iomodel.Device, col workload.Column) (*Optimal, error) {
	return BuildOptimal(d, col, OptimalOptions{})
}

// PayloadUnderCodes prices the total member-bitmap payload under gamma and
// delta coding of the gap streams (the A5 ablation: the paper permits "any
// method that compresses to within a constant factor"): every member's gamma
// stream is read back from the device and its gaps priced under delta.
func (ox *Optimal) PayloadUnderCodes() (gammaBits, deltaBits int64, err error) {
	tc := ox.disk.NewTouch()
	defer tc.Close()
	for _, lv := range ox.levels {
		for _, m := range lv.members {
			r, err := tc.Reader(m.ext)
			if err != nil {
				return 0, 0, err
			}
			gammaBits += m.ext.Bits
			for i := int64(0); i < m.card; i++ {
				gap, err := gamma.Read(r)
				if err != nil {
					return 0, 0, fmt.Errorf("core: depth %d member [%d,%d): %w", lv.depth, m.start, m.end, err)
				}
				deltaBits += int64(gamma.DeltaLen(gap))
			}
		}
	}
	return gammaBits, deltaBits, nil
}
