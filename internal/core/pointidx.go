package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// PointIndex is the paper's §4.2 buffered compressed bitmap index
// (Theorem 6): the per-character compressed position lists are stored in
// block-aligned pieces (the first code in each block is absolute, so a block
// can be decoded and updated locally), a c-ary tree is built with these
// blocks as leaves, and each internal node carries a B-bit buffer of pending
// updates. The root buffer is "always kept in the internal memory". Point
// queries run in O(T/B + lg n) I/Os; updates cost amortised O(lg n / b).
type PointIndex struct {
	disk   iomodel.Device
	sigma  int
	c      int
	root   *pnode
	height int

	rootBuf []pentry // the root's buffer lives in internal memory
	bufCap  int      // entries per B-bit buffer

	nLeaves int
	nNodes  int
	// updSeq assigns arrival order so replays are deterministic.
	updSeq uint64
}

// pentry is one buffered update: insert or delete position Pos in the
// position set of character Ch.
type pentry struct {
	del bool
	ch  uint32
	pos int64
	seq uint64
}

// pentryBits is the on-disk width of a buffered update: op bit, 32-bit
// character, 48-bit position and a 32-bit sequence number.
const pentryBits = 1 + 32 + 48 + 32

// pkey orders updates and leaves by (character, position).
type pkey struct {
	ch  uint32
	pos int64
}

func (k pkey) less(o pkey) bool {
	return k.ch < o.ch || (k.ch == o.ch && k.pos < o.pos)
}

// pnode is a tree node: either a leaf (one block of one character's
// positions) or an internal node with children and a disk-resident buffer.
type pnode struct {
	min pkey

	// Internal node state.
	kids []*pnode
	buf  iomodel.BlockID
	bufN int

	// Leaf state.
	leaf  bool
	ch    uint32
	blk   iomodel.BlockID
	count int
}

const (
	// pointLeafHeaderBits is the width of a leaf block's count header; the
	// gap stream fills the rest of the block.
	pointLeafHeaderBits = 32
	// pointUniverse bounds every stored position: buffered updates carry
	// 48-bit positions, and update admits only those below 2^47.
	pointUniverse = 1 << 47
)

// NewPointIndex returns an empty index over alphabet [0,sigma) with
// branching parameter c >= 2.
func NewPointIndex(d iomodel.Device, sigma, c int) (*PointIndex, error) {
	if c < 2 {
		return nil, fmt.Errorf("core: point index branching %d must be >= 2", c)
	}
	if sigma < 1 {
		return nil, fmt.Errorf("core: alphabet size %d", sigma)
	}
	px := &PointIndex{disk: d, sigma: sigma, c: c}
	px.bufCap = d.BlockBits() / pentryBits
	if px.bufCap < 4 {
		return nil, fmt.Errorf("core: block size %d bits holds fewer than 4 buffer entries", d.BlockBits())
	}
	// One empty leaf for character 0 anchors routing; the root is internal.
	leaf := &pnode{leaf: true, ch: 0, blk: d.AllocBlock(), min: pkey{0, 0}}
	px.writeLeaf(d.NewTouch(), leaf, nil)
	px.root = &pnode{min: leaf.min, kids: []*pnode{leaf}, buf: d.AllocBlock()}
	px.height = 2
	px.nLeaves, px.nNodes = 1, 2
	return px, nil
}

// BuildPointIndex bulk-loads the index from a column.
func BuildPointIndex(d iomodel.Device, col workload.Column, c int) (*PointIndex, error) {
	px, err := NewPointIndex(d, col.Sigma, c)
	if err != nil {
		return nil, err
	}
	byChar := make([][]int64, col.Sigma)
	for i, ch := range col.X {
		if int(ch) >= col.Sigma {
			return nil, fmt.Errorf("core: character %d outside alphabet [0,%d)", ch, col.Sigma)
		}
		byChar[ch] = append(byChar[ch], int64(i))
	}
	tc := d.NewTouch()
	var leaves []*pnode
	for a := 0; a < col.Sigma; a++ {
		if len(byChar[a]) == 0 {
			continue
		}
		leaves = append(leaves, px.encodeLeaves(tc, uint32(a), byChar[a])...)
	}
	if len(leaves) == 0 {
		return px, nil
	}
	px.nLeaves = len(leaves)
	px.nNodes = len(leaves)
	level := leaves
	px.height = 1
	for len(level) > 1 || px.height < 2 {
		var up []*pnode
		for i := 0; i < len(level); i += px.c {
			hi := i + px.c
			if hi > len(level) {
				hi = len(level)
			}
			nd := &pnode{min: level[i].min, kids: level[i:hi:hi], buf: d.AllocBlock()}
			up = append(up, nd)
			px.nNodes++
		}
		level = up
		px.height++
	}
	px.root = level[0]
	d.ResetStats()
	return px, nil
}

// encodeLeaves packs one character's sorted, non-empty positions into
// block-sized leaves.
func (px *PointIndex) encodeLeaves(tc *iomodel.Touch, ch uint32, pos []int64) []*pnode {
	var out []*pnode
	for _, piece := range px.splitPositions(pos) {
		leaf := &pnode{leaf: true, ch: ch, blk: px.disk.AllocBlock(), min: pkey{ch, piece[0]}}
		px.writeLeaf(tc, leaf, piece)
		out = append(out, leaf)
	}
	return out
}

// writeLeaf encodes positions into the leaf's block: a count header, then
// the package-wide gap stream. Its first gap, taken from -1, is the paper's
// "first position in each block ... stored as an absolute value" (plus one,
// to stay >= 1); "all the others ... relative to the previous position".
func (px *PointIndex) writeLeaf(tc *iomodel.Touch, leaf *pnode, pos []int64) {
	w := bitio.NewWriter(px.disk.BlockBits())
	w.WriteBits(uint64(len(pos)), pointLeafHeaderBits)
	var e cbitmap.StreamEncoder
	e.Init(w)
	cbitmap.AddSorted(&e, pos)
	leaf.count = len(pos)
	ext := iomodel.Extent{Off: px.disk.BlockOff(leaf.blk), Bits: int64(w.Len())}
	if err := tc.WriteStream(ext, w); err != nil {
		panic(fmt.Sprintf("core: leaf write within a fresh block cannot fail: %v", err))
	}
}

// readLeaf decodes a leaf's positions, charging one block read. Every
// position is validated against [0, pointUniverse).
func (px *PointIndex) readLeaf(tc *iomodel.Touch, leaf *pnode) ([]int64, error) {
	rd, err := tc.Reader(iomodel.Extent{Off: px.disk.BlockOff(leaf.blk), Bits: int64(px.disk.BlockBits())})
	if err != nil {
		return nil, err
	}
	cnt, err := rd.ReadBits(pointLeafHeaderBits)
	if err != nil {
		return nil, err
	}
	// Every stored position costs at least one bit, so a count beyond the
	// block capacity can only be corruption — reject before allocating.
	if cnt > uint64(px.disk.BlockBits()) {
		return nil, fmt.Errorf("core: corrupt leaf block: %w: count %d exceeds block capacity", cbitmap.ErrCorrupt, cnt)
	}
	var s cbitmap.Stream
	if err := s.InitDecode(rd, rd.Pos(), rd.Remaining(), int64(cnt), pointUniverse, 0); err != nil {
		return nil, fmt.Errorf("core: leaf block: %w", err)
	}
	pos := make([]int64, 0, cnt)
	for p, ok := s.Next(); ok; p, ok = s.Next() {
		pos = append(pos, p)
	}
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("core: corrupt leaf block: %w", err)
	}
	return pos, nil
}

// writeBuffer stores a node's buffered updates in its buffer block.
func (px *PointIndex) writeBuffer(tc *iomodel.Touch, nd *pnode, es []pentry) error {
	if len(es) > px.bufCap {
		return fmt.Errorf("core: buffer overflow: %d entries, capacity %d", len(es), px.bufCap)
	}
	w := bitio.NewWriter(px.disk.BlockBits())
	for _, e := range es {
		var d uint64
		if e.del {
			d = 1
		}
		w.WriteBits(d, 1)
		w.WriteBits(uint64(e.ch), 32)
		w.WriteBits(uint64(e.pos), 48)
		w.WriteBits(e.seq, 32)
	}
	nd.bufN = len(es)
	ext := iomodel.Extent{Off: px.disk.BlockOff(nd.buf), Bits: int64(w.Len())}
	return tc.WriteStream(ext, w)
}

// readBuffer loads a node's buffered updates, charging one block read.
func (px *PointIndex) readBuffer(tc *iomodel.Touch, nd *pnode) ([]pentry, error) {
	if nd.bufN == 0 {
		return nil, nil
	}
	rd, err := tc.Reader(iomodel.Extent{Off: px.disk.BlockOff(nd.buf), Bits: int64(nd.bufN) * pentryBits})
	if err != nil {
		return nil, err
	}
	es := make([]pentry, 0, nd.bufN)
	for i := 0; i < nd.bufN; i++ {
		d, _ := rd.ReadBits(1)
		ch, _ := rd.ReadBits(32)
		pos, _ := rd.ReadBits(48)
		seq, err := rd.ReadBits(32)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt buffer block: %w", err)
		}
		es = append(es, pentry{del: d == 1, ch: uint32(ch), pos: int64(pos), seq: seq})
	}
	return es, nil
}

// Insert adds position pos to character ch's set.
func (px *PointIndex) Insert(ch uint32, pos int64) (index.QueryStats, error) {
	return px.update(pentry{ch: ch, pos: pos})
}

// Delete removes position pos from character ch's set (a no-op if absent).
func (px *PointIndex) Delete(ch uint32, pos int64) (index.QueryStats, error) {
	return px.update(pentry{del: true, ch: ch, pos: pos})
}

func (px *PointIndex) update(e pentry) (index.QueryStats, error) {
	var stats index.QueryStats
	if int(e.ch) >= px.sigma {
		return stats, fmt.Errorf("core: character %d outside alphabet [0,%d)", e.ch, px.sigma)
	}
	if e.pos < 0 || e.pos >= pointUniverse {
		return stats, fmt.Errorf("core: position %d outside encodable range", e.pos)
	}
	e.seq = px.updSeq
	px.updSeq++
	px.rootBuf = append(px.rootBuf, e)
	tc := px.disk.NewTouch()
	if len(px.rootBuf) >= px.bufCap {
		// "An update is simply stored in the buffer corresponding to the
		// root ... Whenever a buffer becomes full, a constant fraction of
		// the updates in that buffer are moved to one of its children."
		moved, rest := px.pickDominantChild(px.root, px.rootBuf)
		px.rootBuf = rest
		if err := px.deliver(tc, px.root, moved); err != nil {
			return stats, err
		}
	}
	stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
	return stats, nil
}

// deliver hands a batch (all routed to one child of nd) to that child:
// internal children buffer it, leaves apply it. nd may split afterwards.
func (px *PointIndex) deliver(tc *iomodel.Touch, nd *pnode, batch []pentry) error {
	if len(batch) == 0 {
		return nil
	}
	ci := childFor(nd, pkey{batch[0].ch, batch[0].pos})
	child := nd.kids[ci]
	if child.leaf {
		if err := px.applyLeafBatch(tc, nd, ci, batch); err != nil {
			return err
		}
	} else {
		if err := px.flushInto(tc, child, batch); err != nil {
			return err
		}
	}
	return px.maybeSplit(nd)
}

// childFor returns the index of the child of nd routing key k.
func childFor(nd *pnode, k pkey) int {
	i := sort.Search(len(nd.kids), func(j int) bool { return k.less(nd.kids[j].min) }) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// pickDominantChild partitions entries between the child of nd receiving
// the most updates (returned first) and the remainder. Counting runs over
// the child index slice, not a map, so ties always resolve to the lowest
// child index: the choice — and hence the rebuild layout downstream of it —
// is identical run to run.
func (px *PointIndex) pickDominantChild(nd *pnode, es []pentry) (moved, rest []pentry) {
	counts := make([]int, len(nd.kids))
	for _, e := range es {
		counts[childFor(nd, pkey{e.ch, e.pos})]++
	}
	best, bestN := 0, -1
	for i, n := range counts {
		if n > bestN {
			best, bestN = i, n
		}
	}
	for _, e := range es {
		if childFor(nd, pkey{e.ch, e.pos}) == best {
			moved = append(moved, e)
		} else {
			rest = append(rest, e)
		}
	}
	return moved, rest
}

// flushInto appends a batch of updates (all routed within nd's subtree) to
// internal node nd's buffer, cascading overflows downward.
func (px *PointIndex) flushInto(tc *iomodel.Touch, nd *pnode, batch []pentry) error {
	if nd.leaf {
		return fmt.Errorf("core: internal error: flushInto reached leaf for character %d", nd.ch)
	}
	es, err := px.readBuffer(tc, nd)
	if err != nil {
		return err
	}
	es = append(es, batch...)
	var overflow [][]pentry
	for len(es) >= px.bufCap {
		var moved []pentry
		moved, es = px.pickDominantChild(nd, es)
		overflow = append(overflow, moved)
	}
	if err := px.writeBuffer(tc, nd, es); err != nil {
		return err
	}
	for _, moved := range overflow {
		if err := px.deliver(tc, nd, moved); err != nil {
			return err
		}
	}
	return nil
}

// applyLeafBatch applies a batch of updates to the leaf nd.kids[ci],
// rewriting, splitting or spawning leaves as needed.
func (px *PointIndex) applyLeafBatch(tc *iomodel.Touch, parent *pnode, ci int, batch []pentry) error {
	leaf := parent.kids[ci]
	pos, err := px.readLeaf(tc, leaf)
	if err != nil {
		return err
	}
	// The batch may contain characters not equal to the leaf's (new
	// characters routed here because this leaf had the greatest min <=
	// key). Split by character.
	own, others := batch[:0], []pentry(nil)
	for _, e := range batch {
		if e.ch == leaf.ch {
			own = append(own, e)
		} else {
			others = append(others, e)
		}
	}
	merged := replay(pos, own)

	var repl []*pnode
	if len(merged) > 0 || len(others) == 0 {
		// Re-encode the leaf's character, reusing its block for the first
		// piece and allocating more on overflow.
		pieces := px.splitPositions(merged)
		for i, piece := range pieces {
			var l *pnode
			if i == 0 {
				l = leaf
				// A routing boundary must never move left: an emptied leaf
				// keeps its old min so keys below it keep routing to the
				// left sibling that actually covers them.
				if len(piece) > 0 {
					l.min = pkey{leaf.ch, piece[0]}
				}
			} else {
				l = &pnode{leaf: true, ch: leaf.ch, blk: px.disk.AllocBlock(), min: pkey{leaf.ch, piece[0]}}
				px.nLeaves++
				px.nNodes++
			}
			px.writeLeaf(tc, l, piece)
			repl = append(repl, l)
		}
	} else {
		px.disk.FreeBlock(leaf.blk)
		px.nLeaves--
		px.nNodes--
	}
	// New characters become fresh leaves, in character order.
	slices.SortStableFunc(others, func(a, b pentry) int { return cmp.Compare(a.ch, b.ch) })
	for len(others) > 0 {
		k := 1
		for k < len(others) && others[k].ch == others[0].ch {
			k++
		}
		if ps := replay(nil, others[:k]); len(ps) > 0 {
			ls := px.encodeLeaves(tc, others[0].ch, ps)
			px.nLeaves += len(ls)
			px.nNodes += len(ls)
			repl = append(repl, ls...)
		}
		others = others[k:]
	}
	if len(repl) == 0 {
		// Leaf vanished entirely; keep an empty placeholder to anchor
		// routing (cheap, and avoids empty internal nodes).
		leaf.blk = px.disk.AllocBlock()
		px.writeLeaf(tc, leaf, nil)
		px.nLeaves++
		px.nNodes++
		repl = []*pnode{leaf}
	}
	slices.SortFunc(repl, func(a, b *pnode) int {
		if a.min.less(b.min) {
			return -1
		}
		if b.min.less(a.min) {
			return 1
		}
		return 0
	})
	kids := make([]*pnode, 0, len(parent.kids)-1+len(repl))
	kids = append(kids, parent.kids[:ci]...)
	kids = append(kids, repl...)
	kids = append(kids, parent.kids[ci+1:]...)
	parent.kids = kids
	parent.min = parent.kids[0].min
	return nil
}

// replay applies one character's buffered updates es to its sorted,
// duplicate-free positions pos and returns the result, sorted and
// duplicate-free. It sorts es in place by (position, arrival): the last
// update of a position decides whether it is present, so a delete after an
// insert wins and an insert after a delete stands.
func replay(pos []int64, es []pentry) []int64 {
	slices.SortStableFunc(es, func(a, b pentry) int {
		return cmp.Or(cmp.Compare(a.pos, b.pos), cmp.Compare(a.seq, b.seq))
	})
	out := make([]int64, 0, len(pos)+len(es))
	i := 0
	for j := 0; j < len(es); j++ {
		p := es[j].pos
		if j+1 < len(es) && es[j+1].pos == p {
			continue // a later update of p decides
		}
		for ; i < len(pos) && pos[i] < p; i++ {
			out = append(out, pos[i])
		}
		if i < len(pos) && pos[i] == p {
			i++
		}
		if !es[j].del {
			out = append(out, p)
		}
	}
	return append(out, pos[i:]...)
}

// splitPositions cuts a sorted position list into block-sized pieces.
func (px *PointIndex) splitPositions(pos []int64) [][]int64 {
	if len(pos) == 0 {
		return [][]int64{nil}
	}
	budget := px.disk.BlockBits() - pointLeafHeaderBits
	var out [][]int64
	i := 0
	for i < len(pos) {
		bits := gamma.Len(uint64(pos[i] + 1))
		j := i + 1
		for j < len(pos) && bits+gamma.Len(uint64(pos[j]-pos[j-1])) <= budget {
			bits += gamma.Len(uint64(pos[j] - pos[j-1]))
			j++
		}
		out = append(out, pos[i:j:j])
		i = j
	}
	return out
}

// maybeSplit splits nd if its degree exceeded 4c, propagating to the root.
func (px *PointIndex) maybeSplit(nd *pnode) error {
	if len(nd.kids) <= 4*px.c {
		return nil
	}
	// Split in place: nd keeps the left half; a sibling takes the right.
	// The sibling is inserted by the caller's parent on its next overflow
	// check — to keep the invariant simple we split eagerly here by
	// restructuring: nd becomes an internal node over two halves.
	mid := len(nd.kids) / 2
	tc := px.disk.NewTouch()
	es, err := px.readBuffer(tc, nd)
	if err != nil {
		return err
	}
	left := &pnode{min: nd.kids[0].min, kids: append([]*pnode(nil), nd.kids[:mid]...), buf: px.disk.AllocBlock()}
	right := &pnode{min: nd.kids[mid].min, kids: append([]*pnode(nil), nd.kids[mid:]...), buf: px.disk.AllocBlock()}
	px.nNodes += 2
	var lefts, rights []pentry
	for _, e := range es {
		if (pkey{e.ch, e.pos}).less(right.min) {
			lefts = append(lefts, e)
		} else {
			rights = append(rights, e)
		}
	}
	if err := px.writeBuffer(tc, left, lefts); err != nil {
		return err
	}
	if err := px.writeBuffer(tc, right, rights); err != nil {
		return err
	}
	nd.kids = []*pnode{left, right}
	nd.bufN = 0
	if err := px.writeBuffer(tc, nd, nil); err != nil {
		return err
	}
	px.height++ // local height growth; queries track actual depth
	return nil
}

// PointQuery returns the (compressed) position set of character ch,
// reflecting all buffered updates. Cost is O(T/B + lg n) I/Os: the buffers
// on the root-to-leaf paths for ch plus the leaf blocks of ch.
func (px *PointIndex) PointQuery(ch uint32) (bm *cbitmap.Bitmap, stats index.QueryStats, err error) {
	if int(ch) >= px.sigma {
		return nil, stats, fmt.Errorf("core: character %d outside alphabet [0,%d)", ch, px.sigma)
	}
	tc := px.disk.NewTouch()
	defer tc.Close()
	defer func() {
		stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
		stats.FailedReads = tc.FailedReads()
	}()
	// Collect the leaf contents and the updates in every buffer on the paths.
	var leafPos []int64
	var pending []pentry
	var walk func(nd *pnode) error
	walk = func(nd *pnode) error {
		if nd.leaf {
			if nd.ch != ch {
				return nil
			}
			pos, err := px.readLeaf(tc, nd)
			if err != nil {
				return err
			}
			stats.BitsRead += int64(len(pos)) * 2 // informational
			leafPos = append(leafPos, pos...)
			return nil
		}
		es, err := px.readBuffer(tc, nd)
		if err != nil {
			return err
		}
		for _, e := range es {
			if e.ch == ch {
				pending = append(pending, e)
			}
		}
		lo := childFor(nd, pkey{ch, 0})
		hi := childFor(nd, pkey{ch, pointUniverse - 1})
		for i := lo; i <= hi; i++ {
			if err := walk(nd.kids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(px.root); err != nil {
		return nil, stats, err
	}
	for _, e := range px.rootBuf {
		if e.ch == ch {
			pending = append(pending, e)
		}
	}
	slices.Sort(leafPos)
	bm, err = cbitmap.FromPositions(pointUniverse, replay(slices.Compact(leafPos), pending))
	if err != nil {
		return nil, stats, err
	}
	stats.BitsRead = int64(bm.SizeBits())
	return bm, stats, nil
}

// SizeBits returns the structure's space: leaf blocks, buffer blocks and
// directory entries.
func (px *PointIndex) SizeBits() int64 {
	return int64(px.nLeaves)*int64(px.disk.BlockBits()) + // leaf blocks
		int64(px.nNodes-px.nLeaves)*int64(px.disk.BlockBits()) + // buffers
		int64(px.nNodes)*4*64 // directory
}

// Sigma returns the alphabet size.
func (px *PointIndex) Sigma() int { return px.sigma }
