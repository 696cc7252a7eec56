package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/bitio"
	"repro/internal/container"
	"repro/internal/gamma"
	"repro/internal/hashutil"
	"repro/internal/iomodel"
)

// Serialisation of the core structures for the v2 container. The guiding
// rule is minimality: everything deterministically recomputable from the
// build parameters is recomputed at open, and only what is not — extent
// placement, hash-set cardinalities, block assignments, chain state — is
// written. The static tree's topology is a pure function of (counts,
// branching) (see treeFromCounts), the hash functions regenerate from the
// seed, and materialised depths from (height, stride); so a static shard's
// metadata is O(σ + members) varints regardless of n.
//
// Decoders treat their payload as untrusted even though the container
// checksummed it (integrity is not authenticity): every field is bounded,
// extents are checked against the device's allocated size, and structural
// cross-checks (counts summing to n, children partitioning their parent,
// member counts matching the recomputed skeleton) reject crafted files
// before any query code runs.

// maxSkeletonDepth bounds decoded tree heights and depths: real heights are
// ⌈log_c n⌉ ≤ 40-ish, and the recursive skeleton decoder must not be driven
// into stack exhaustion by a crafted file.
const maxSkeletonDepth = 512

// maxRebuildCount bounds decoded rebuild counters.
const maxRebuildCount = 1 << 40

// maxStoredJ is the most hashed levels a file may declare: containers
// written before maxJ followed the paper stored a level 5 (OpenApprox).
const maxStoredJ = 5

// EncodeMeta appends the static (Theorem 2+3) index's metadata to e, as
// payload revision StaticRevision. The device image is serialised
// separately; the metadata references it by offsets or lengths only. The
// revisions, which the container records beside the payload:
//
//	legacy  counts, the level count (at least 1), per level its depth,
//	        member count, base and every member's length, A's offset, every
//	        node's block and the block count, k and the hashed directory,
//	        then the internal members' orders. The image: the exact levels,
//	        A, then 128-bit node records nothing reads.
//	0       counts, 0 where legacy files stored the level count, the node
//	        records' length and order widths, the level count, per level its
//	        depth, member count and base, A's offset (0 on an image without
//	        A), k and the hashed directory, which lists every set. The node
//	        records are the exact directory: the blocked tree layout
//	        (layout.go) leads the image, after A where it has one.
//	1       as 0, the hashed directory listing only the sets a query can
//	        select (hashedReachable).
//	2       counts, 0, 0 where revision 1 stored the length width (at least
//	        1), k, then the directory stream (directory.go): its length in
//	        bits and its bytes. The image holds the gap streams alone.
//	3       as 2, the image holding a hashed set only where it is shorter
//	        than its member's exact set, and the directory stream saying
//	        which (directory.go).
//
// Up to revision 1 the hashed directory is varints: per j that stores a set
// at a level, the group's base, its stored sets' lengths, then their
// cardWords. A binary from before a revision rejects its files at the
// manifest, and the zeros make a payload of one revision fail under
// another's reader. An image opened from a file of revision 2 or before is
// not re-encoded.
func (ax *Approx) EncodeMeta(e *container.Encoder) error {
	if ax.layout != nil {
		return fmt.Errorf("core: an image with a tree layout is not re-encoded")
	}
	if ax.k > 0 && ax.hmaps[0].perJ[0].priced == nil {
		return fmt.Errorf("core: a hashed directory of revision 2 is not re-encoded")
	}
	if err := ax.checkPlaced(); err != nil {
		return err
	}
	p := planDirectory(ax.levels, ax.hmaps, ax.k)
	ax.encodeMeta(e, p.write(ax.levels, ax.hmaps))
	return nil
}

// encodeMeta appends a revision-2 payload with the directory stream dir, and
// no check that it places the streams where they lie.
func (ax *Approx) encodeMeta(e *container.Encoder, dir *bitio.Writer) {
	tr := ax.tree
	for a := 0; a < tr.sigma; a++ {
		e.U(uint64(tr.prefix[a+1] - tr.prefix[a]))
	}
	e.U(0)
	e.U(0)
	e.U(uint64(ax.k))
	e.U(uint64(dir.Len()))
	e.Raw(dir.Bytes())
}

// hashedVarintBits is what the metadata of a file of revision 1 or before
// spends on the hashed directory of j = 1…groups: the bytes
// encodeHashedGroups writes.
func (ax *Approx) hashedVarintBits(groups int) int64 {
	var e container.Encoder
	ax.encodeHashedGroups(&e, groups)
	return 8 * int64(len(e.Bytes()))
}

// encodeHashedGroups appends the hashed directories of j = 1…groups as
// revision 1 and before wrote them, level by level: per j that stores a set,
// the group's base, its stored sets' lengths and their cardWords. A set that
// is not stored takes no field: the reader derives which those are
// (OpenApprox).
func (ax *Approx) encodeHashedGroups(e *container.Encoder, groups int) {
	for li := range ax.levels {
		for j := range groups {
			arr := &ax.hmaps[li].perJ[j]
			first := slices.IndexFunc(arr.cards, func(c int64) bool { return c > 0 })
			if first < 0 {
				continue
			}
			e.U(uint64(arr.exts[first].Off))
			for i, ext := range arr.exts {
				if arr.stored(i) {
					e.U(uint64(ext.Bits))
				}
			}
			for i := range arr.cards {
				if arr.stored(i) {
					e.U(arr.cardWord(i))
				}
			}
		}
	}
}

// OpenApprox reconstitutes a static index from EncodeMeta's payload of the
// given revision (StaticRevision or before, see EncodeMeta), served from d
// (typically a FileDisk over the image section). The tree, prefix array,
// materialised-level assignment, member ranges and hash functions are all
// recomputed. From revision 2 on the member lengths and orders and the
// hashed directory are decoded from the payload's directory stream, and
// every offset is the sum of the lengths before it, so open reads no image
// block. Before, the member lengths and orders come from the node records,
// in one pass over the layout blocks outside any query's stats (the
// placement replayed, openLayout), and each level's and hashed group's base
// from the payload. From revision 1 on the hashed directory lists only the
// sets hashedReachable keeps, and the others are recorded empty. From
// revision 3 on a listed set that is no shorter than its member's exact set
// is not stored, and it keeps its priced length.
//
// A file written before the records carried the directory (its level count
// where the marker is) takes the legacy branch: the tree at legacyHeight,
// the lengths inline in the level headers, each node's block stored after A
// and the internal members' orders trailing the payload (absent, gamma). A
// file with A's offset where newer files hold 0 holds gamma-coded leaves and
// hashed sets and its layout after A. Both are revision 0.
func OpenApprox(d *iomodel.Disk, sigma, revision int, opts ApproxOptions, dec *container.Decoder) (*Approx, error) {
	opts.OptimalOptions.fill()
	if sigma < 1 || sigma > container.MaxSigma {
		return nil, fmt.Errorf("core: alphabet size %d out of range", sigma)
	}
	if revision < 0 || revision > StaticRevision {
		return nil, fmt.Errorf("core: static payload revision %d unknown", revision)
	}
	tail := d.AllocatedBits()
	if tail <= 0 {
		return nil, fmt.Errorf("core: empty device image")
	}
	counts := make([]int64, sigma)
	var n int64
	for a := range counts {
		counts[a] = int64(dec.UN(container.MaxRows))
		n += counts[a] // at most 2^22 counts of at most 2^40 each: no overflow
	}
	if dec.Err() == nil && n > container.MaxRows {
		return nil, fmt.Errorf("core: row count %d out of range", n)
	}
	nLevels := int(dec.UN(maxSkeletonDepth))
	legacy := nLevels > 0
	height := heightFor
	var lenBits, kBits int
	if legacy {
		height = legacyHeight
	} else {
		lenBits = int(dec.UN(uint64(bits.Len64(uint64(tail)))))
	}
	flat := !legacy && lenBits == 0
	if !legacy && !flat {
		kBits = int(dec.UN(uint64(bits.Len(gamma.MaxOrder))))
		nLevels = int(dec.UN(maxSkeletonDepth))
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	switch {
	case flat && revision < 2:
		return nil, fmt.Errorf("core: revision %d payload holds a directory stream", revision)
	case !flat && revision >= 2:
		return nil, fmt.Errorf("core: revision %d payload holds no directory stream", revision)
	}
	tr, err := treeFromCounts(counts, opts.Branching, height)
	if err != nil {
		return nil, err
	}
	ox := newOptimal(d, tr, opts.OptimalOptions)

	// Recompute the level assignment exactly as BuildOptimal does.
	depths := materialDepths(tr.Height, opts.Stride)
	minz := make([][]int64, len(depths))
	for li, members := range memberLevels(tr, depths) {
		minz[li] = make([]int64, len(members))
		for mi, m := range members {
			minz[li][mi] = minRows(tr.prefix, m)
		}
		ox.levels = append(ox.levels, newMatLevel(depths[li], members))
	}
	ax := &Approx{Optimal: ox, seed: opts.Seed, k: maxJ(n)}
	if flat {
		stored, err := ax.openStored(dec)
		if err != nil {
			return nil, err
		}
		nbits := dec.UN(1 << 40) // Raw holds it to the payload
		raw := dec.Raw((nbits + 7) / 8)
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if err := ax.readDirectory(bitio.NewReader(raw, int(nbits)), revision, minz, stored, tail); err != nil {
			return nil, err
		}
	} else if err := ax.openRecords(dec, revision, legacy, nLevels, lenBits, kBits, minz); err != nil {
		return nil, err
	}
	d.ResetStats()
	return ax, nil
}

// openStored decodes how many hashed levels the payload stores, sets ax.k to
// the levels queries select among and makes their hash functions. Files
// written while maxJ rounded up store one level more than is useful. Its
// directory is decoded and bounds-checked like the others and stays in hmaps
// (SizeBits and SpaceLedger report what the file holds), but queries select
// among the first ax.k levels only. An exact-only index (BuildExactOn)
// stores none: k = 0.
func (ax *Approx) openStored(dec *container.Decoder) (int, error) {
	stored := int(dec.UN(maxStoredJ))
	if err := dec.Err(); err != nil {
		return 0, err
	}
	if stored > 0 && stored < ax.k {
		return 0, fmt.Errorf("core: hash level count %d, below the %d useful levels", stored, ax.k)
	}
	ax.k = min(ax.k, stored)
	rng := rand.New(rand.NewSource(ax.seed))
	for j := 1; j <= ax.k; j++ {
		ax.hs = append(ax.hs, hashutil.NewSplitXOR(rng, 1<<uint(j)))
	}
	return stored, nil
}

// openRecords decodes the rest of a payload of revision 1 or before, whose
// exact directory is the image's node records (or, legacy, the payload's
// level headers), and its varint hashed directory.
func (ax *Approx) openRecords(dec *container.Decoder, revision int, legacy bool, nLevels, lenBits, kBits int, minz [][]int64) error {
	ox, d, tr := ax.Optimal, ax.disk, ax.tree
	tail := d.AllocatedBits()
	if nLevels != len(ox.levels) {
		return fmt.Errorf("core: level count %d, recomputed %d", nLevels, len(ox.levels))
	}
	bases := make([]int64, len(ox.levels))
	for li := range ox.levels {
		lv := &ox.levels[li]
		if got := int(dec.UN(uint64(maxSkeletonDepth))); got != lv.depth {
			return fmt.Errorf("core: level %d depth %d, recomputed %d", li, got, lv.depth)
		}
		if got := int(dec.UN(uint64(len(lv.members)))); got != len(lv.members) {
			return fmt.Errorf("core: level %d member count %d, recomputed %d", li, got, len(lv.members))
		}
		bases[li] = int64(dec.UN(uint64(tail)))
		for mi := range lv.members {
			if legacy {
				lv.members[mi].ext.Bits = int64(dec.UN(uint64(tail)))
			}
		}
	}
	aOff := int64(dec.UN(uint64(tail)))
	revised := !legacy && aOff == 0
	if !revised {
		ox.aExt = iomodel.Extent{Off: aOff, Bits: int64(tr.sigma+1) * 64}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if revision > 0 && !revised {
		return fmt.Errorf("core: revision %d payload in an older layout", revision)
	}
	if ox.aExt.End() > tail {
		return fmt.Errorf("core: prefix array extent exceeds image")
	}
	var err error
	if legacy {
		ox.layout, err = openLegacyLayout(d, tr, dec)
	} else {
		err = ox.openLayout(materialDepths(tr.Height, ox.opts.Stride), lenBits, kBits, revised)
	}
	if err != nil {
		return err
	}
	for li := range ox.levels {
		off := bases[li]
		for mi := range ox.levels[li].members {
			m := &ox.levels[li].members[mi]
			if off > tail-m.ext.Bits {
				return fmt.Errorf("core: level %d member extent [%d,+%d) exceeds image of %d bits", li, off, m.ext.Bits, tail)
			}
			m.ext.Off = off
			off += m.ext.Bits
		}
	}

	stored, err := ax.openStored(dec)
	if err != nil {
		return err
	}
	cardBound := uint64(container.MaxRows)
	if revised {
		cardBound = 2*cardBound + 1
	}
	for li := range ox.levels {
		members := ox.levels[li].members
		listed := func(i, j int) bool { return revision == 0 || hashedReachable(minz[li][i], j+1) }
		hl := hashLevel{perJ: make([]hashArray, stored)}
		for j := 0; j < stored; j++ {
			arr := &hl.perJ[j]
			var off int64
			for i := range members {
				if listed(i, j) {
					off = int64(dec.UN(uint64(tail))) // the group's base
					break
				}
			}
			for i := range members {
				if !listed(i, j) {
					arr.exts = append(arr.exts, iomodel.Extent{})
					continue
				}
				bits := int64(dec.UN(uint64(tail)))
				if off > tail-bits {
					return fmt.Errorf("core: hash extent exceeds image")
				}
				arr.exts = append(arr.exts, iomodel.Extent{Off: off, Bits: bits})
				off += bits
			}
			for i, m := range members {
				if !listed(i, j) { // only revision 1 omits, and its sets carry orders
					arr.cards, arr.orders = append(arr.cards, 0), append(arr.orders, 0)
					continue
				}
				w := dec.UN(cardBound)
				if err := dec.Err(); err != nil {
					return err
				}
				if err := arr.setCard(w, revised, 1<<(j+1), m); err != nil {
					return err
				}
			}
		}
		ax.hmaps = append(ax.hmaps, hl)
	}
	if legacy && dec.More() {
		for li := range ox.levels {
			for mi := range ox.levels[li].members {
				if m := &ox.levels[li].members[mi]; m.internal {
					m.k = uint8(dec.UN(gamma.MaxOrder))
				}
			}
		}
	}
	return dec.Err()
}

// openLegacyLayout decodes the layout of a file written before the records
// carried the directory: every node's block, then the block count.
func openLegacyLayout(d *iomodel.Disk, tr *Tree, dec *container.Decoder) (*treeLayout, error) {
	bb := int64(d.BlockBits())
	totalBlocks := (d.AllocatedBits() + bb - 1) / bb
	nodes := tr.NodeCount()
	if got := int(dec.UN(uint64(nodes))); got != nodes {
		return nil, fmt.Errorf("core: node count %d, recomputed %d", got, nodes)
	}
	for range nodes {
		dec.UN(uint64(totalBlocks - 1)) // the node's block: no query reads it
	}
	l := &treeLayout{disk: d, nblocks: int(dec.UN(uint64(totalBlocks)))}
	return l, dec.Err()
}

// EncodeMeta appends the append-index (Theorem 4/5) metadata to e: counts,
// the skeleton with its historical build weights, per-member chain state and
// buffers, the block layout and the pending root buffer.
func (ax *AppendIndex) EncodeMeta(e *container.Encoder) error {
	e.U(uint64(ax.n))
	e.U(uint64(ax.buildN))
	for _, c := range ax.counts {
		e.U(uint64(c))
	}
	e.U(uint64(ax.RebuildCount))
	e.U(uint64(ax.GlobalRebuildCount))
	e.U(uint64(ax.height))
	e.U(uint64(len(ax.depths)))
	for _, d := range ax.depths {
		e.U(uint64(d))
	}
	// Skeleton, preorder. Spans reconstruct lo/hi (children partition their
	// parent); current weights reconstruct from counts (the weight invariant:
	// weight = Σ counts[a]+1 over the span); buildWeight is historical state.
	var encNode func(v *dynNode)
	encNode = func(v *dynNode) {
		e.U(uint64(v.hi - v.lo))
		e.U(uint64(v.buildWeight))
		e.U(uint64(len(v.children)))
		for _, c := range v.children {
			encNode(c)
		}
	}
	encNode(ax.root)
	for li := range ax.levels {
		e.U(uint64(len(ax.levels[li])))
		for _, m := range ax.levels[li] {
			e.U(uint64(m.card))
			e.U(uint64(m.lastPos + 1))
			e.U(uint64(m.chain.Bits()))
			blocks := m.chain.BlockList()
			e.U(uint64(len(blocks)))
			for _, b := range blocks {
				e.U(uint64(b))
			}
			if ax.opts.Buffered {
				e.U(uint64(m.buf))
				e.U(uint64(m.bufN))
			}
		}
	}
	var encBlk func(v *dynNode)
	encBlk = func(v *dynNode) {
		if blk, ok := ax.nodeBlk[v]; ok {
			e.U(uint64(blk) + 1)
		} else {
			e.U(0)
		}
		for _, c := range v.children {
			encBlk(c)
		}
	}
	encBlk(ax.root)
	e.U(uint64(ax.nBlocks))
	e.U(uint64(len(ax.rootBuf)))
	for _, en := range ax.rootBuf {
		e.U(uint64(en.ch))
		e.U(uint64(en.pos))
	}
	return nil
}

// OpenAppendIndex reconstitutes an append index from EncodeMeta's payload,
// served read-only from d: queries run entirely from the device (chains,
// buffers and the pending root buffer), but Append returns an error — the
// rebuild machinery needs the in-memory position mirror that only the
// building process has.
func OpenAppendIndex(d *iomodel.Disk, sigma int, opts AppendOptions, dec *container.Decoder) (*AppendIndex, error) {
	opts.fill()
	if opts.Branching <= 4 {
		return nil, fmt.Errorf("core: branching parameter %d must exceed 4", opts.Branching)
	}
	if sigma < 1 || sigma > container.MaxSigma {
		return nil, fmt.Errorf("core: alphabet size %d out of range", sigma)
	}
	tail := d.AllocatedBits()
	bb := int64(d.BlockBits())
	if tail <= 0 {
		return nil, fmt.Errorf("core: empty device image")
	}
	totalBlocks := (tail + bb - 1) / bb
	ax := &AppendIndex{
		disk:     d,
		opts:     opts,
		sigma:    sigma,
		byChar:   make([][]int64, sigma),
		readonly: true,
	}
	ax.bufCap = d.BlockBits() / recordBits(dynEntryLayout)
	if opts.Buffered && ax.bufCap < 4 {
		return nil, fmt.Errorf("core: block size %d bits holds fewer than 4 buffered appends", d.BlockBits())
	}
	ax.n = int64(dec.UN(container.MaxRows))
	ax.buildN = int64(dec.UN(uint64(ax.n)))
	ax.counts = make([]int64, sigma)
	var sum int64
	for a := range ax.counts {
		ax.counts[a] = int64(dec.UN(container.MaxRows))
		sum += ax.counts[a]
	}
	if dec.Err() == nil && sum != ax.n {
		return nil, fmt.Errorf("core: counts sum to %d, header says %d rows", sum, ax.n)
	}
	ax.RebuildCount = int(dec.UN(maxRebuildCount))
	ax.GlobalRebuildCount = int(dec.UN(maxRebuildCount))
	declaredHeight := int(dec.UN(maxSkeletonDepth))
	nd := int(dec.UN(maxSkeletonDepth))
	if dec.Err() == nil && nd < 1 {
		return nil, fmt.Errorf("core: no materialised depths")
	}
	prev := 0
	for i := 0; i < nd; i++ {
		dep := int(dec.UN(maxSkeletonDepth))
		if dec.Err() == nil && dep <= prev {
			return nil, fmt.Errorf("core: materialised depths not increasing at %d", dep)
		}
		ax.depths = append(ax.depths, dep)
		prev = dep
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}

	// Skeleton: spans give lo/hi, counts give current weights.
	cpre := make([]int64, sigma+1)
	for a, c := range ax.counts {
		cpre[a+1] = cpre[a] + c
	}
	var decNode func(parent *dynNode, depth int, lo uint32) (*dynNode, error)
	decNode = func(parent *dynNode, depth int, lo uint32) (*dynNode, error) {
		if depth > maxSkeletonDepth {
			return nil, fmt.Errorf("core: skeleton deeper than %d", maxSkeletonDepth)
		}
		span := dec.UN(uint64(sigma-1) - uint64(lo))
		hi := lo + uint32(span)
		v := &dynNode{depth: depth, lo: lo, hi: hi, parent: parent}
		v.weight = cpre[hi+1] - cpre[lo] + int64(hi-lo) + 1
		v.buildWeight = int64(dec.UN(container.MaxRows + container.MaxSigma))
		nc := int(dec.UN(uint64(4 * opts.Branching)))
		if err := dec.Err(); err != nil {
			return nil, err
		}
		if span == 0 && nc != 0 {
			return nil, fmt.Errorf("core: single-character node with %d children", nc)
		}
		if nc > int(span)+1 {
			return nil, fmt.Errorf("core: %d children over %d characters", nc, span+1)
		}
		clo := lo
		for i := 0; i < nc; i++ {
			if clo > hi {
				return nil, fmt.Errorf("core: children overflow [%d,%d]", lo, hi)
			}
			c, err := decNode(v, depth+1, clo)
			if err != nil {
				return nil, err
			}
			v.children = append(v.children, c)
			clo = c.hi + 1
		}
		if nc > 0 && clo != hi+1 {
			return nil, fmt.Errorf("core: children of [%d,%d] end at %d", lo, hi, clo-1)
		}
		return v, nil
	}
	root, err := decNode(nil, 0, 0)
	if err != nil {
		return nil, err
	}
	if root.hi != uint32(sigma-1) {
		return nil, fmt.Errorf("core: skeleton covers [0,%d], alphabet is [0,%d)", root.hi, sigma)
	}
	ax.root, ax.height = root, declaredHeight
	all := ax.scan(nil, root)
	if ax.height > declaredHeight {
		return nil, fmt.Errorf("core: node at depth %d exceeds declared height %d", ax.height, declaredHeight)
	}

	// Members: recompute the per-level node sets from the skeleton exactly as
	// the rebuilders do (memberLevelOf + sort by lo), then attach the
	// serialised chain state in that order.
	ax.levels = make([][]*dynMember, len(ax.depths))
	for _, v := range all {
		if li := ax.memberLevelOf(v); li >= 0 {
			ax.levels[li] = append(ax.levels[li], &dynMember{node: v, level: li, lastPos: -1})
		}
	}
	for li := range ax.levels {
		slices.SortFunc(ax.levels[li], func(a, b *dynMember) int { return cmp.Compare(a.node.lo, b.node.lo) })
		if got := int(dec.UN(uint64(len(ax.levels[li])))); got != len(ax.levels[li]) {
			return nil, fmt.Errorf("core: level %d member count %d, recomputed %d", li, got, len(ax.levels[li]))
		}
		for _, m := range ax.levels[li] {
			m.card = int64(dec.UN(container.MaxRows))
			m.lastPos = int64(dec.UN(1<<48)) - 1
			bits := int64(dec.UN(uint64(tail)))
			nb := int(dec.UN(uint64(totalBlocks)))
			blocks := make([]iomodel.BlockID, 0, nb)
			for i := 0; i < nb; i++ {
				blocks = append(blocks, iomodel.BlockID(dec.UN(uint64(totalBlocks-1))))
			}
			if err := dec.Err(); err != nil {
				return nil, err
			}
			chain, err := iomodel.OpenChainFile(d, blocks, bits)
			if err != nil {
				return nil, err
			}
			m.chain = chain
			if opts.Buffered {
				m.buf = iomodel.BlockID(dec.UN(uint64(totalBlocks - 1)))
				m.bufN = int(dec.UN(uint64(ax.bufCap)))
			}
		}
	}
	ax.nodeBlk = make(map[*dynNode]iomodel.BlockID, len(all))
	for _, v := range all { // all is preorder, matching encBlk
		if raw := dec.UN(uint64(totalBlocks)); raw > 0 {
			ax.nodeBlk[v] = iomodel.BlockID(raw - 1)
		}
	}
	ax.nBlocks = int(dec.UN(uint64(totalBlocks)))
	nrb := int(dec.UN(uint64(ax.bufCap)))
	for i := 0; i < nrb; i++ {
		ch := uint32(dec.UN(uint64(sigma) - 1))
		var pos int64
		if ax.n > 0 {
			pos = int64(dec.UN(uint64(ax.n) - 1))
		} else {
			return nil, fmt.Errorf("core: pending appends with zero rows")
		}
		ax.rootBuf = append(ax.rootBuf, dynEntry{ch: ch, pos: pos})
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	return ax, nil
}

// EncodeColumn appends the append index's per-character position lists — the
// in-memory rebuild mirror (byChar) — to e, as a count plus strictly
// positive deltas per character. OpenAppendIndex leaves the mirror empty and
// the index read-only; DecodeMirror over this payload is what makes a
// reopened index writable again.
func (ax *AppendIndex) EncodeColumn(e *container.Encoder) {
	for a := 0; a < ax.sigma; a++ {
		list := ax.byChar[a]
		e.U(uint64(len(list)))
		prev := int64(-1)
		for _, p := range list {
			e.U(uint64(p - prev)) // positions strictly increase, so deltas ≥ 1
			prev = p
		}
	}
}

// DecodeMirror reconstitutes the rebuild mirror from EncodeColumn's payload
// and clears the index's read-only mark. The payload is untrusted: per-
// character counts must match the decoded metadata, positions must be
// strictly increasing and in [0,n), and the lists together must partition
// the positions exactly — anything else is corruption, rejected before the
// index can accept appends that would build on a broken mirror.
func (ax *AppendIndex) DecodeMirror(dec *container.Decoder) error {
	byChar := make([][]int64, ax.sigma)
	seen := make([]bool, ax.n)
	for a := 0; a < ax.sigma; a++ {
		cnt := int64(dec.UN(container.MaxRows))
		if err := dec.Err(); err != nil {
			return err
		}
		if cnt != ax.counts[a] {
			return fmt.Errorf("core: column list for character %d has %d positions, counts say %d", a, cnt, ax.counts[a])
		}
		capHint := cnt
		if capHint > 1<<16 {
			capHint = 1 << 16 // growth tracks bytes actually decoded
		}
		list := make([]int64, 0, capHint)
		prev := int64(-1)
		for i := int64(0); i < cnt; i++ {
			delta := int64(dec.UN(container.MaxRows))
			if err := dec.Err(); err != nil {
				return err
			}
			pos := prev + delta
			if delta < 1 || pos >= ax.n {
				return fmt.Errorf("core: column list for character %d: position %d after %d invalid for %d rows", a, pos, prev, ax.n)
			}
			if seen[pos] {
				return fmt.Errorf("core: position %d listed under two characters", pos)
			}
			seen[pos] = true
			list = append(list, pos)
			prev = pos
		}
		byChar[a] = list
	}
	// Counts sum to n (checked at open) and every listed position is distinct
	// and in range, so the lists partition [0,n) exactly; no residue check
	// needed.
	ax.byChar = byChar
	ax.readonly = false
	return nil
}

// ValidateAppend checks Append's preconditions without mutating anything.
// The durability layer logs an operation before applying it, and must only
// ever log operations the index will accept: a record whose replay fails
// would poison recovery.
func (ax *AppendIndex) ValidateAppend(ch uint32) error {
	if ax.readonly {
		return fmt.Errorf("core: append index reopened from a file is read-only")
	}
	if int(ch) >= ax.sigma {
		return fmt.Errorf("core: character %d outside alphabet [0,%d)", ch, ax.sigma)
	}
	if ax.n >= 1<<47 {
		return fmt.Errorf("core: position %d outside encodable range", ax.n)
	}
	return nil
}

// ValidateAppend checks Append's preconditions without mutating anything
// (see AppendIndex.ValidateAppend for why the durability layer needs this).
func (dx *Dynamic) ValidateAppend(ch uint32) error {
	if int(ch) >= dx.sigma {
		return fmt.Errorf("core: character %d outside alphabet [0,%d)", ch, dx.sigma)
	}
	return nil
}

// ValidateChange checks Change's preconditions without mutating anything.
func (dx *Dynamic) ValidateChange(i int64, ch uint32) error {
	if i < 0 || i >= dx.n {
		return fmt.Errorf("core: position %d outside [0,%d)", i, dx.n)
	}
	if int(ch) >= dx.sigma {
		return fmt.Errorf("core: character %d outside alphabet [0,%d)", ch, dx.sigma)
	}
	if dx.x[i] == uint32(dx.sigmaEff-1) {
		// Deleted rows stay deleted: resurrecting one would silently break
		// the live-position numbering of the translator.
		return fmt.Errorf("core: position %d is deleted", i)
	}
	return nil
}

// ValidateDelete checks Delete's preconditions without mutating anything
// (deleting an already-deleted row is accepted and idempotent, so only the
// bounds matter).
func (dx *Dynamic) ValidateDelete(i int64) error {
	if i < 0 || i >= dx.n {
		return fmt.Errorf("core: position %d outside [0,%d)", i, dx.n)
	}
	return nil
}

// EncodeMeta appends the dynamic (Theorem 7) index's logical snapshot to e:
// the current string (deleted rows as ∞ markers) and the rebuild counter.
// The structure itself is not stored: its buffered point indexes and
// position translator keep changing under updates, so a frozen file image
// cannot serve them. OpenDynamic bulk-loads them from the string instead,
// the paper's global rebuild applied at the serialisation boundary.
func (dx *Dynamic) EncodeMeta(e *container.Encoder) error {
	e.U(uint64(len(dx.x)))
	for _, ch := range dx.x {
		e.U(uint64(ch))
	}
	e.U(uint64(dx.GlobalRebuildCount))
	return nil
}

// OpenDynamic reconstitutes a dynamic index from EncodeMeta's payload onto
// the writable device d: it decodes the string, stopping at the first decode
// error, and builds the index over it as BuildDynamic does, bulk-loading
// every level and marking the deleted rows in a fresh position translator.
// Answers are identical to the serialised index's; the rebuild clock
// restarts (updatesSinceBuild is zero after a global rebuild, by definition).
func OpenDynamic(d *iomodel.Disk, sigma int, opts DynamicOptions, dec *container.Decoder) (*Dynamic, error) {
	if sigma < 1 || sigma > container.MaxSigma {
		return nil, fmt.Errorf("core: alphabet size %d out of range", sigma)
	}
	n := dec.UN(container.MaxRows)
	// Growth tracks the bytes actually decoded, not the declared count.
	x := make([]uint32, 0, min(n, 1<<16))
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		x = append(x, uint32(dec.UN(uint64(sigma)))) // sigma itself is the ∞ marker
	}
	grc := int(dec.UN(maxRebuildCount))
	if err := dec.Err(); err != nil {
		return nil, err
	}
	dx, err := newDynamic(d, sigma, opts, x)
	if err != nil {
		return nil, err
	}
	dx.GlobalRebuildCount = grc
	return dx, nil
}
