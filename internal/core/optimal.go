package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

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
// identified by its record range, stored at the level's concatenated extent
// as a gap stream in the exp-Golomb code of order k: an internal member's
// (a node of more than one character) codes it in the fewest bits, and a run
// of adjacent leaves of one character shares the order that codes the run in
// the fewest bits, so a point query concatenates them verbatim, order and
// all (cbitmap.Concat). A file written before may hold a leaf, or every
// member, in gamma.
type member struct {
	start, end int64
	ext        iomodel.Extent
	internal   bool
	k          uint8 // at most gamma.MaxOrder; a byte keeps member at 40 bytes
}

// rows returns the member's cardinality: one row per record it covers.
func (m *member) rows() int64 { return m.end - m.start }

// matLevel is one materialised level: the bitmaps of all nodes at the
// level's depth plus the pruned leaves strictly between the previous
// materialised depth and this one, concatenated in left-to-right (record)
// order so that a cover subtree's frontier is one contiguous chunk.
//
// memo, parallel to members, remembers what validating a member proved: its
// largest position + 1 once a stable session (iomodel.Touch.Stable) has read
// and validated its bits, 0 while unknown. It is read and written only by
// stable sessions, so every answer is built from validated bits — validated
// by this read, or by an earlier read of the same unchanging bits of this
// read-only handle.
type matLevel struct {
	depth   int
	members []member
	memo    []atomic.Int64
}

// newMatLevel returns a level over members with an empty validation memo.
func newMatLevel(depth int, members []member) matLevel {
	return matLevel{depth: depth, members: members, memo: make([]atomic.Int64, len(members))}
}

// knownLasts appends the remembered largest position of members [i,j), or
// lastUnknown for a member no stable session has validated yet.
func (lv *matLevel) knownLasts(dst []int64, i, j int) []int64 {
	for k := i; k < j; k++ {
		last := int64(lastUnknown)
		if v := lv.memo[k].Load(); v > 0 {
			last = v - 1
		}
		dst = append(dst, last)
	}
	return dst
}

// Remembered reports how many of the exact members plan reads the
// validation memo vouches for: a stable query executing plan replays them
// without a scan.
func (ox *Optimal) Remembered(plan QueryPlan) (n int) {
	for _, c := range plan.Chunks {
		for k := c.I; k < c.J; k++ {
			if ox.levels[c.Level].memo[k].Load() > 0 {
				n++
			}
		}
	}
	return n
}

// remember records, for the exact members of chunks in order, the largest
// position the merge proved by validating each one's bits to the end, which
// validated(i) reports for the i-th member of chunks (a stream's or a
// concatenation member's ValidatedLast); replays prove nothing new, and no
// other directory dirOf names keeps a memo.
func remember(dirOf func(level int) memberDir, chunks []PlanChunk, validated func(i int) (int64, bool)) {
	s := 0
	for _, c := range chunks {
		lv, ok := dirOf(c.Level).(*matLevel)
		if !ok {
			s += c.J - c.I
			continue
		}
		for k := c.I; k < c.J; k, s = k+1, s+1 {
			if last, ok := validated(s); ok {
				lv.memo[k].Store(last + 1)
			}
		}
	}
}

// chunk returns the index range [i,j) of members tiling records [lo,hi).
func (lv *matLevel) chunk(lo, hi int64) (int, int, error) {
	i := sort.Search(len(lv.members), func(k int) bool { return lv.members[k].start >= lo })
	j, err := lv.tileFrom(i, lo, hi)
	return i, j, err
}

// tileFrom returns the end j of the member run [i,j) tiling records [lo,hi),
// where member i is the first to start at or after lo.
func (lv *matLevel) tileFrom(i int, lo, hi int64) (int, error) {
	j := i
	for j < len(lv.members) && lv.members[j].end <= hi {
		j++
	}
	if i == j {
		return 0, fmt.Errorf("core: no members tile records [%d,%d) at depth %d", lo, hi, lv.depth)
	}
	if lv.members[i].start != lo || lv.members[j-1].end != hi {
		return 0, fmt.Errorf("core: members do not tile records [%d,%d) at depth %d", lo, hi, lv.depth)
	}
	return j, nil
}

// Optimal is the paper's Theorem 2 structure: the pruned weight-balanced
// tree with materialised levels 1, 2, 4, 8, … and the leaf level; the member
// directory and the prefix counts the paper keeps as an array A on disk are
// in memory, A rebuilt from the counts, and the tree is a split rule over A
// with no nodes of its own (an image written before holds a copy of A and
// the blocked tree layout, which no query reads). Space is
// O(nH₀ + n + σ lg²n) bits; a query reads O(z lg(n/z)/B + lg_b n + lg lg n)
// blocks.
type Optimal struct {
	disk   *iomodel.Disk
	tree   *Tree
	layout *treeLayout // the blocked tree layout of an image of revision 1 or before; else nil
	opts   OptimalOptions

	levels []matLevel
	aExt   iomodel.Extent // prefix array A of an image written before: (σ+1) 64-bit entries; else empty

	// points holds, per character c, the plan of Query(c, c) once a query
	// has made it (planPoint): the tree and levels never change, so neither
	// does a point query's plan.
	points []atomic.Pointer[QueryPlan]
}

// newOptimal returns the index over tr on d, its levels still to add, with
// an empty plan slot per character.
func newOptimal(d *iomodel.Disk, tr *Tree, opts OptimalOptions) *Optimal {
	return &Optimal{disk: d, tree: tr, opts: opts, points: make([]atomic.Pointer[QueryPlan], tr.sigma)}
}

// BuildOptimal constructs the Theorem 2 index for col on disk d, its levels
// side by side on up to GOMAXPROCS workers (build.go).
func BuildOptimal(d *iomodel.Disk, col workload.Column, opts OptimalOptions) (*Optimal, error) {
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

// SizeBits implements index.Index: bitmap payloads + the exact directory
// (exactDirBits) + an older image's prefix array.
func (ox *Optimal) SizeBits() int64 {
	return ox.BitmapBits() + ox.aExt.Bits + ox.exactDirBits()
}

// exactDirBits is the exact directory: the lengths and orders of the
// directory stream (directory.go), or, on an image of revision 1 or before,
// the blocked tree structure whose node records hold them, plus the metadata
// directory of a legacy image (legacyDirBits).
func (ox *Optimal) exactDirBits() int64 {
	if ox.layout == nil {
		s := planDirectory(ox.levels, nil, 0).space
		return s.LengthBits + s.OrderBits
	}
	return ox.layout.sizeBits() + ox.legacyDirBits()
}

// legacyDirBits is the exact directory an image written before the node
// records carried it keeps in its metadata (every member's length, every
// node's block), charged as such images always were: 128 bits per member.
// It is 0 for an image whose node records are the directory.
func (ox *Optimal) legacyDirBits() int64 {
	if ox.layout.lenBits > 0 {
		return 0
	}
	var members int64
	for _, lv := range ox.levels {
		members += int64(len(lv.members))
	}
	return members * legacyRecordBits
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

// Query implements index.Index. A query is its plan, executed as a batch of
// one: planInto takes z from the in-memory prefix counts, applies the
// complement trick to dense answers and decomposes the record range into its
// canonical cover by the tree's split rule, reading nothing (planner.go);
// execute then reads one contiguous span per member run and fuses decode and
// merge into a single streaming pass — the members' gap streams feed
// cbitmap.MergeStreams (or, on the dense path, MergeStreamsComplement)
// directly, so no intermediate per-chunk bitmap is ever materialised and
// every bit read is decoded exactly once.
func (ox *Optimal) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	return ox.QueryContext(context.Background(), r)
}

// QueryContext answers like Query, checking ctx for cancellation between
// member runs and before the merge. The stats are populated even on an error
// return (including the session's failed read attempts), so retry layers can
// account every attempt they make.
func (ox *Optimal) QueryContext(ctx context.Context, r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	var out [1]*cbitmap.Bitmap
	stats, err := ox.Answer(ctx, []index.Range{r}, out[:], true)
	return out[0], stats, err
}

// entry implements memberDir over the level's exact sets.
func (lv *matLevel) entry(i int) (iomodel.Extent, int64, uint) {
	m := &lv.members[i]
	return m.ext, m.rows(), uint(m.k)
}

// exactDir names the exact sets as the frontier a plan is executed against.
func (ox *Optimal) exactDir(level int) memberDir { return &ox.levels[level] }

var _ index.Index = (*Optimal)(nil)

// BuildOptimalDefault is a convenience wrapper with default options.
func BuildOptimalDefault(d *iomodel.Disk, col workload.Column) (*Optimal, error) {
	return BuildOptimal(d, col, OptimalOptions{})
}

// CodeBits is a payload of gap streams priced under the gap codes A5
// compares, with its streams counted by the exp-Golomb order they are stored
// at: Orders[k] of them at k.
type CodeBits struct {
	Stored int64 // as the image holds it
	Gamma  int64 // every gap gamma-coded
	Delta  int64 // every gap Elias-delta-coded
	BestK  int64 // each stream at the exp-Golomb order that codes it in the fewest bits
	Orders []int
}

// Add adds o's payload to c's.
func (c *CodeBits) Add(o CodeBits) {
	c.Stored += o.Stored
	c.Gamma += o.Gamma
	c.Delta += o.Delta
	c.BestK += o.BestK
	for len(c.Orders) < len(o.Orders) {
		c.Orders = append(c.Orders, 0)
	}
	for k, n := range o.Orders {
		c.Orders[k] += n
	}
}

// LevelCodes prices one materialised level's member payload, internal members
// (of more than one character) and pruned leaves apart, and — for an index
// with hashed levels — its hashed sets, one CodeBits per j.
type LevelCodes struct {
	Depth            int
	Internal, Leaves CodeBits
	Hashed           []CodeBits // index j-1: the sets h_j(S)
}

// Total returns the level's exact payload, internal members and leaves
// together.
func (l LevelCodes) Total() CodeBits {
	var t CodeBits
	t.Add(l.Internal)
	t.Add(l.Leaves)
	return t
}

// PayloadUnderCodes prices the member payload of every materialised level
// under gamma, delta and per-member best-order exp-Golomb coding of the gaps
// (the A5 ablation: the paper permits "any method that compresses to within
// a constant factor of minimum size"): every member is read back from the
// device and its gaps priced under each code.
func (ox *Optimal) PayloadUnderCodes() ([]LevelCodes, error) {
	tc := ox.disk.NewTouch()
	defer tc.Close()
	out := make([]LevelCodes, len(ox.levels))
	for li := range ox.levels {
		lv := &ox.levels[li]
		out[li].Depth = lv.depth
		for i, m := range lv.members {
			c := &out[li].Leaves
			if m.internal {
				c = &out[li].Internal
			}
			if err := priceStream(tc, lv, i, ox.tree.n, c); err != nil {
				return nil, fmt.Errorf("core: depth %d member [%d,%d): %w", lv.depth, m.start, m.end, err)
			}
		}
	}
	return out, nil
}

// priceStream reads the i-th stream of dir, a set in [0,univ), back through
// tc and adds it to c under every code.
func priceStream(tc *iomodel.Touch, dir memberDir, i int, univ int64, c *CodeBits) error {
	ext, card, k := dir.entry(i)
	r, err := tc.Reader(ext)
	if err != nil {
		return err
	}
	var s cbitmap.Stream
	if err := s.InitDecode(r, 0, r.Len(), card, univ, 0, k); err != nil {
		return err
	}
	o := CodeBits{Stored: ext.Bits, Orders: make([]int, k+1)}
	o.Orders[k] = 1
	var costs gamma.Costs
	prev := int64(-1)
	for p, ok := s.Next(); ok; p, ok = s.Next() {
		g := uint64(p - prev)
		o.Gamma += int64(gamma.Len(g))
		o.Delta += int64(gamma.DeltaLen(g))
		costs.Add(g)
		prev = p
	}
	if err := s.Err(); err != nil {
		return err
	}
	_, o.BestK = costs.Best()
	c.Add(o)
	return nil
}
