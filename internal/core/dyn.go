package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cbitmap"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// The semi-dynamic structures (Theorems 4 and 5) use a character-granularity
// weight-balanced tree: leaves are single characters (every character,
// including ones not yet seen, has a leaf so future appends route cleanly),
// and heavy characters simply become heavy leaves. This matches the paper up
// to its alphabet-expansion preprocessing (which splits characters with more
// than n/2 occurrences); a heavy leaf's bitmap is read only when its
// character is in the query range, in which case its size is output-bounded.
// Materialised levels follow the Theorem 2 rule; member bitmaps are chained
// block files so an append touches only the tail block of each affected
// level (§4.1's "array of pointers to the disk block containing the last
// occurrence").

// dynNode is a skeleton node covering the character range [lo,hi].
type dynNode struct {
	depth       int
	lo, hi      uint32
	weight      int64 // current number of occurrences (plus 1 per char)
	buildWeight int64 // weight when the subtree was last (re)built
	children    []*dynNode
	parent      *dynNode
}

func (v *dynNode) isLeaf() bool { return len(v.children) == 0 }

// dynMember is one materialised bitmap: a node's position set stored as a
// chained block file, plus (in the buffered variant) a one-block buffer of
// pending appends.
type dynMember struct {
	node    *dynNode
	level   int
	chain   *iomodel.ChainFile
	card    int64
	lastPos int64 // last position applied to the chain (-1 if empty)

	buf  iomodel.BlockID // buffered variant only
	bufN int
}

// dynEntry is a pending append: position pos holds character ch.
type dynEntry struct {
	ch  uint32
	pos int64
}

// dynEntryLayout is the on-disk layout of a buffered append: 32-bit
// character, 48-bit position.
var dynEntryLayout = []int{32, 48}

// AppendOptions configures the Theorem 4/5 structures.
type AppendOptions struct {
	// Branching is the tree's branching parameter c (> 4).
	Branching int
	// Stride is the materialisation stride (2 = paper).
	Stride int
	// Buffered selects the Theorem 5 variant: B-bit buffers at members,
	// amortised O(lg n / b) appends.
	Buffered bool
}

func (o *AppendOptions) fill() {
	if o.Branching == 0 {
		o.Branching = DefaultBranching
	}
	if o.Stride == 0 {
		o.Stride = 2
	}
}

// AppendIndex is the semi-dynamic secondary index of Theorem 4 (direct
// appends, amortised O(lg lg n) I/Os) or Theorem 5 (buffered appends,
// amortised O(lg n / b) I/Os), selected by AppendOptions.Buffered.
type AppendIndex struct {
	disk *iomodel.Disk
	opts AppendOptions

	sigma  int
	n      int64
	buildN int64 // n at last global rebuild
	counts []int64
	byChar [][]int64 // in-memory mirror used for rebuilds

	charSkeleton
	levels  [][]*dynMember // per materialised level, sorted by node.lo
	nodeBlk map[*dynNode]iomodel.BlockID
	nBlocks int

	rootBuf []dynEntry // buffered variant: the in-memory root buffer
	bufCap  int

	// RebuildCount counts subtree rebuilds (exported for experiments).
	RebuildCount int
	// GlobalRebuildCount counts full rebuilds.
	GlobalRebuildCount int

	// readonly marks an index reopened from a serialised file image: queries
	// run from the device, but Append is rejected — the rebuild machinery
	// needs the in-memory position mirror (byChar) that only the building
	// process holds, and the device itself is a frozen file.
	readonly bool
}

// BuildAppendIndex constructs the structure over an initial column (which
// may be empty apart from its alphabet).
func BuildAppendIndex(d *iomodel.Disk, col workload.Column, opts AppendOptions) (*AppendIndex, error) {
	opts.fill()
	if opts.Branching <= 4 {
		return nil, fmt.Errorf("core: branching parameter %d must exceed 4", opts.Branching)
	}
	byChar, err := col.Group()
	if err != nil {
		return nil, err
	}
	ax := &AppendIndex{
		disk:    d,
		opts:    opts,
		sigma:   col.Sigma,
		n:       int64(col.Len()),
		counts:  make([]int64, col.Sigma),
		byChar:  byChar,
		nodeBlk: make(map[*dynNode]iomodel.BlockID),
	}
	for a, list := range byChar {
		ax.counts[a] = int64(len(list))
	}
	ax.bufCap = d.BlockBits() / recordBits(dynEntryLayout)
	if opts.Buffered && ax.bufCap < 4 {
		return nil, fmt.Errorf("core: block size %d bits holds fewer than 4 buffered appends", d.BlockBits())
	}
	tc := d.NewTouch()
	defer tc.Close()
	if err := ax.rebuildAll(tc); err != nil {
		return nil, err
	}
	d.ResetStats()
	return ax, nil
}

// pseudoWeight returns the routing weight of chars [lo,hi]: occurrences plus
// one per character, so empty characters still get leaves.
func (ax *AppendIndex) pseudoWeight(lo, hi uint32) int64 {
	var w int64
	for a := lo; a <= hi; a++ {
		w += ax.counts[a] + 1
	}
	return w
}

// buildSkeleton recursively builds the subtree for chars [lo,hi].
func (ax *AppendIndex) buildSkeleton(parent *dynNode, depth int, lo, hi uint32, h int) *dynNode {
	return buildCharSkeleton(ax.counts, ax.opts.Branching, parent, depth, lo, hi, h)
}

// buildCharSkeleton builds a weight-balanced tree over characters [lo,hi]
// weighted by counts[a]+1 (shared by Theorems 4, 5 and 7).
func buildCharSkeleton(counts []int64, c int, parent *dynNode, depth int, lo, hi uint32, h int) *dynNode {
	v := &dynNode{depth: depth, lo: lo, hi: hi, parent: parent}
	for a := lo; a <= hi; a++ {
		v.weight += counts[a] + 1
	}
	v.buildWeight = v.weight
	if lo == hi {
		return v
	}
	target := math.Pow(float64(c), float64(h-depth-1))
	k := int(math.Round(float64(v.weight) / target))
	if k < 2 {
		k = 2
	}
	if k > 4*c {
		k = 4 * c
	}
	if k > int(hi-lo+1) {
		k = int(hi - lo + 1)
	}
	// Cut [lo,hi] into k contiguous groups at the cumulative-weight
	// boundaries i·W/k, keeping every group non-empty.
	loI, hiI := int(lo), int(hi)
	cuts := make([]int, 1, k+1)
	cuts[0] = loI
	var cum int64
	next := 1
	for a := loI; a <= hiI && next < k; a++ {
		cum += counts[a] + 1
		for next < k && cum*int64(k) >= int64(next)*v.weight {
			b := a + 1
			if maxStart := hiI - (k - next) + 1; b > maxStart {
				b = maxStart
			}
			if b <= cuts[len(cuts)-1] {
				b = cuts[len(cuts)-1] + 1
			}
			cuts = append(cuts, b)
			next++
		}
	}
	for next < k { // pad: remaining groups get one character each
		cuts = append(cuts, cuts[len(cuts)-1]+1)
		next++
	}
	cuts = append(cuts, hiI+1)
	for i := 0; i < k; i++ {
		v.children = append(v.children, buildCharSkeleton(counts, c, v, depth+1, uint32(cuts[i]), uint32(cuts[i+1]-1), h))
	}
	return v
}

// rebuildAll reconstructs the whole structure from byChar (initial build and
// global rebuilds when n doubles). All I/O is charged to tc.
func (ax *AppendIndex) rebuildAll(tc *iomodel.Touch) error {
	// Free all existing chains.
	for _, lvl := range ax.levels {
		for _, m := range lvl {
			m.chain.Truncate()
		}
	}
	h := heightFor(ax.n+int64(ax.sigma), ax.opts.Branching)
	all := ax.reset(ax.buildSkeleton(nil, 0, 0, uint32(ax.sigma-1), h), ax.opts.Stride)
	ax.levels = make([][]*dynMember, len(ax.depths))
	// Members are created in preorder and sorted afterwards: AllocBlock hands
	// out buffer blocks in creation order, and the device image depends on it.
	for _, v := range all {
		li := ax.memberLevelOf(v)
		if li < 0 {
			continue
		}
		m := &dynMember{node: v, level: li, chain: iomodel.NewChainFile(ax.disk), lastPos: -1}
		if ax.opts.Buffered {
			m.buf = ax.disk.AllocBlock()
		}
		ax.levels[li] = append(ax.levels[li], m)
	}
	for li := range ax.levels {
		slices.SortFunc(ax.levels[li], func(a, b *dynMember) int { return cmp.Compare(a.node.lo, b.node.lo) })
		for _, m := range ax.levels[li] {
			if err := ax.writeMemberChain(tc, m); err != nil {
				return err
			}
		}
	}
	// Pack the skeleton into structure blocks (paper's blocked layout).
	ax.packLayout(all)
	ax.buildN = ax.n
	ax.GlobalRebuildCount++
	ax.rootBuf = ax.rootBuf[:0]
	return nil
}

// writeMemberChain encodes the node's current position set into its chain.
// The sorted per-character occurrence lists merge straight into a pooled
// writer through a StreamEncoder — the fused streaming rebuild: no
// concatenated position slice, no sort, no throwaway encode buffer. The
// encoded stream is byte-identical to the former sort-then-encode path
// (pinned by the rebuild differential test); the head gap is p+1, exactly
// the package's canonical head encoding relative to position -1.
func (ax *AppendIndex) writeMemberChain(tc *iomodel.Touch, m *dynMember) error {
	w := getChainWriter()
	defer putChainWriter(w)
	var enc cbitmap.StreamEncoder
	enc.Init(w)
	enc.MergeSortedSlices(ax.byChar[m.node.lo : m.node.hi+1]...)
	m.card = enc.Card()
	m.lastPos = enc.Last()
	return m.chain.Replace(tc, w)
}

// packLayout assigns skeleton nodes to structure blocks, top Θ(lg b) levels
// per block, recursively (the Theorem 2 layout).
func (ax *AppendIndex) packLayout(all []*dynNode) {
	cap := ax.disk.BlockBits() / nodeRecordBits
	if cap < 1 {
		cap = 1
	}
	ax.nodeBlk = make(map[*dynNode]iomodel.BlockID, len(all))
	ax.nBlocks = 0
	pending := []*dynNode{ax.root}
	for len(pending) > 0 {
		blk := ax.disk.AllocBlock()
		ax.nBlocks++
		count := 0
		for len(pending) > 0 && count < cap {
			queue := []*dynNode{pending[0]}
			pending = pending[1:]
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				if count == cap {
					pending = append(pending, v)
					continue
				}
				ax.nodeBlk[v] = blk
				count++
				queue = append(queue, v.children...)
			}
		}
	}
}

// chargeNode marks the structure block of v read.
func (ax *AppendIndex) chargeNode(tc *iomodel.Touch, v *dynNode) {
	if blk, ok := ax.nodeBlk[v]; ok {
		_, _ = tc.ReadBits(ax.disk.BlockOff(blk), 1)
	}
}

// memberFor returns the member at level li whose range contains ch, or nil.
func (ax *AppendIndex) memberFor(li int, ch uint32) *dynMember {
	if i := tileFor(ax.levels[li], ch); i >= 0 {
		return ax.levels[li][i]
	}
	return nil
}

// MaterialisedLevels returns the number of materialised levels (O(lg lg n)).
func (ax *AppendIndex) MaterialisedLevels() int { return len(ax.depths) }

// Name implements index.Index.
func (ax *AppendIndex) Name() string {
	if ax.opts.Buffered {
		return "pr-buffered"
	}
	return "pr-semidyn"
}

// Len implements index.Index.
func (ax *AppendIndex) Len() int64 { return ax.n }

// Sigma implements index.Index.
func (ax *AppendIndex) Sigma() int { return ax.sigma }

// SizeBits implements index.Index: chains, buffers, directory and layout.
func (ax *AppendIndex) SizeBits() int64 {
	var bits int64
	var members int64
	for _, lvl := range ax.levels {
		for _, m := range lvl {
			bits += int64(m.chain.Blocks()) * int64(ax.disk.BlockBits())
			members++
		}
	}
	if ax.opts.Buffered {
		bits += members * int64(ax.disk.BlockBits())
	}
	bits += members * 4 * 64                               // directory
	bits += int64(ax.nBlocks) * int64(ax.disk.BlockBits()) // layout
	bits += int64(ax.sigma) * 64                           // counts array
	return bits
}

// appendToChain appends position pos to member m's chain (tail block only).
// The single gap code is staged through a pooled writer: one gamma code per
// direct append, no per-append allocation. lastPos is -1 exactly when the
// chain is empty, so the continuation encoder's head gap pos-(-1) = pos+1
// coincides with the canonical head encoding.
func (ax *AppendIndex) appendToChain(tc *iomodel.Touch, m *dynMember, pos int64) error {
	if pos <= m.lastPos {
		return fmt.Errorf("core: append of position %d out of order (last %d)", pos, m.lastPos)
	}
	w := getChainWriter()
	defer putChainWriter(w)
	var enc cbitmap.StreamEncoder
	enc.InitAt(w, m.lastPos)
	enc.Add(pos)
	if err := m.chain.Append(tc, w); err != nil {
		return err
	}
	m.card++
	m.lastPos = pos
	return nil
}
