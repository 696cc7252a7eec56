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
	disk  *iomodel.Disk
	sigma int
	c     int
	root  *pnode

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

// pentryLayout is the on-disk layout of a buffered update: op bit, 32-bit
// character, 48-bit position and a 32-bit sequence number.
var pentryLayout = []int{1, 32, 48, 32}

// pkey orders updates and leaves by (character, position).
type pkey struct {
	ch  uint32
	pos int64
}

func (e pentry) key() pkey { return pkey{e.ch, e.pos} }

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
	leaf bool
	ch   uint32
	blk  iomodel.BlockID
	bits int // header and gap stream, as written
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
func NewPointIndex(d *iomodel.Disk, sigma, c int) (*PointIndex, error) {
	return loadPointIndex(d, sigma, c, nil)
}

// BuildPointIndex bulk-loads the index from a column.
func BuildPointIndex(d *iomodel.Disk, col workload.Column, c int) (*PointIndex, error) {
	byChar, err := col.Group()
	if err != nil {
		return nil, err
	}
	px, err := loadPointIndex(d, col.Sigma, c, byChar)
	if err == nil {
		d.ResetStats()
	}
	return px, err
}

// loadPointIndex, the one constructor, bulk-loads the index from byChar,
// character a's sorted, duplicate-free positions at byChar[a]: they fill
// block-sized leaves in character order, and every c nodes of a level get a
// parent with an empty buffer, up to an internal root. With no positions, one
// empty leaf for character 0 anchors routing.
func loadPointIndex(d *iomodel.Disk, sigma, c int, byChar [][]int64) (*PointIndex, error) {
	if c < 2 {
		return nil, fmt.Errorf("core: point index branching %d must be >= 2", c)
	}
	if sigma < 1 {
		return nil, fmt.Errorf("core: alphabet size %d", sigma)
	}
	px := &PointIndex{disk: d, sigma: sigma, c: c, bufCap: d.BlockBits() / recordBits(pentryLayout)}
	if px.bufCap < 4 {
		return nil, fmt.Errorf("core: block size %d bits holds fewer than 4 buffer entries", d.BlockBits())
	}
	tc := d.NewTouch()
	defer tc.Close()
	var leaves []*pnode
	for a, pos := range byChar {
		if len(pos) == 0 {
			continue
		}
		ls, err := px.encodeLeaves(tc, uint32(a), pos)
		if err != nil {
			return nil, err
		}
		leaves = append(leaves, ls...)
	}
	if len(leaves) == 0 {
		var err error
		if leaves, err = px.encodeLeaves(tc, 0, nil); err != nil {
			return nil, err
		}
	}
	px.nLeaves = len(leaves)
	px.nNodes = len(leaves)
	level := leaves
	for { // at least once: the root is internal
		var up []*pnode
		for i := 0; i < len(level); i += px.c {
			hi := min(i+px.c, len(level))
			up = append(up, &pnode{min: level[i].min, kids: level[i:hi:hi], buf: d.AllocBlock()})
			px.nNodes++
		}
		if level = up; len(level) == 1 {
			break
		}
	}
	px.root = level[0]
	return px, nil
}

// encodeLeaves packs one character's sorted positions into block-sized
// leaves; no positions make one empty leaf keyed at position 0.
func (px *PointIndex) encodeLeaves(tc *iomodel.Touch, ch uint32, pos []int64) (out []*pnode, err error) {
	for _, piece := range px.splitPositions(pos) {
		leaf := &pnode{leaf: true, ch: ch, blk: px.disk.AllocBlock(), min: pkey{ch, 0}}
		if len(piece) > 0 {
			leaf.min.pos = piece[0]
		}
		if leaf.bits, err = writeLeafBlock(tc, px.disk, leaf.blk, piece); err != nil {
			return nil, err
		}
		out = append(out, leaf)
	}
	return out, nil
}

// free gives back the blocks under nd: leaves and buffers.
func (px *PointIndex) free(nd *pnode) {
	if nd.leaf {
		px.disk.FreeBlock(nd.blk)
		return
	}
	px.disk.FreeBlock(nd.buf)
	for _, k := range nd.kids {
		px.free(k)
	}
}

// The updatable kinds' two block formats are written and read here alone: a
// leaf block of sorted positions (this index's and the position translator's
// leaves) and a buffer block of fixed-width update records (this index's and
// the buffered append index's). A single-block write fills at most its block.

// writeLeafBlock writes the sorted, duplicate-free positions pos into block
// blk — a count header, then the package-wide gap stream — and returns the
// bits written. The first gap, taken from -1, is the paper's "first position
// in each block ... stored as an absolute value" (plus one, to stay >= 1);
// "all the others ... relative to the previous position".
func writeLeafBlock(tc *iomodel.Touch, d *iomodel.Disk, blk iomodel.BlockID, pos []int64) (bits int, err error) {
	w := bitio.NewWriter(d.BlockBits())
	w.WriteBits(uint64(len(pos)), pointLeafHeaderBits)
	var e cbitmap.StreamEncoder
	e.Init(w)
	cbitmap.AddSorted(&e, pos)
	return w.Len(), tc.WriteStream(d.BlockExtent(blk), w)
}

// openLeaf reads the first bits bits of leaf block blk — header and gap
// stream — into cb, charging one block read, and opens s over the stream,
// validating every position against [0,univ).
func openLeaf(tc *iomodel.Touch, d *iomodel.Disk, blk iomodel.BlockID, bits int, cb *chunkBuf, univ int64, s *cbitmap.Stream) error {
	if err := tc.ReaderInto(iomodel.Extent{Off: d.BlockOff(blk), Bits: int64(bits)}, cb.w); err != nil {
		return err
	}
	cb.r.Init(cb.w.Bytes(), cb.w.Len())
	cnt, err := cb.r.ReadBits(pointLeafHeaderBits)
	if err != nil {
		return err
	}
	// Every stored position costs at least one bit, so a count beyond the
	// block capacity can only be corruption — reject before decoding.
	if cnt > uint64(d.BlockBits()) {
		return fmt.Errorf("core: corrupt leaf block: %w: count %d exceeds block capacity", cbitmap.ErrCorrupt, cnt)
	}
	if err := s.InitDecode(&cb.r, cb.r.Pos(), cb.r.Remaining(), int64(cnt), univ, 0, 0); err != nil {
		return fmt.Errorf("core: leaf block: %w", err)
	}
	return nil
}

// drainLeaf appends the positions of the leaf stream s to out, leaving out
// those of drop (sorted by position).
func drainLeaf(s *cbitmap.Stream, out []int64, drop []pentry) ([]int64, error) {
	for p, ok := s.Next(); ok; p, ok = s.Next() {
		for len(drop) > 0 && drop[0].pos < p {
			drop = drop[1:]
		}
		if len(drop) > 0 && drop[0].pos == p {
			continue
		}
		out = append(out, p)
	}
	if err := s.Err(); err != nil {
		return out, fmt.Errorf("core: corrupt leaf block: %w", err)
	}
	return out, nil
}

// readLeaf decodes a leaf's positions, charging one block read. Every
// position is validated against [0, pointUniverse).
func (px *PointIndex) readLeaf(tc *iomodel.Touch, leaf *pnode) ([]int64, error) {
	var s cbitmap.Stream
	if err := openLeaf(tc, px.disk, leaf.blk, leaf.bits, newChunkBuf(), pointUniverse, &s); err != nil {
		return nil, err
	}
	return drainLeaf(&s, make([]int64, 0, s.Left()), nil)
}

// A buffer record is up to four unsigned fields, stored in order at the bit
// widths of its layout; recordBits is the record's width.
func recordBits(layout []int) (bits int) {
	for _, b := range layout {
		bits += b
	}
	return bits
}

// writeRecords stores es at the head of block blk, each as the fields pack
// returns for it, charging one write. The records are staged through a
// pooled writer, so steady-state buffer churn does not allocate.
func writeRecords[E any](tc *iomodel.Touch, d *iomodel.Disk, blk iomodel.BlockID, es []E, layout []int, pack func(E) [4]uint64) error {
	w := getChainWriter()
	defer putChainWriter(w)
	for _, e := range es {
		f := pack(e)
		for k, bits := range layout {
			w.WriteBits(f[k], bits)
		}
	}
	return tc.WriteStream(d.BlockExtent(blk), w)
}

// readRecords appends to es the n records at the head of block blk, each
// made by unpack from its fields, charging one read; the bits pass through
// cb. The fields pass by value, so neither cb nor its reader escapes.
func readRecords[E any](tc *iomodel.Touch, d *iomodel.Disk, blk iomodel.BlockID, n int, layout []int, cb *chunkBuf, es []E, unpack func([4]uint64) E) ([]E, error) {
	if n == 0 {
		return es, nil
	}
	if err := tc.ReaderInto(iomodel.Extent{Off: d.BlockOff(blk), Bits: int64(n * recordBits(layout))}, cb.w); err != nil {
		return es, err
	}
	cb.r.Init(cb.w.Bytes(), cb.w.Len())
	es = slices.Grow(es, n)
	for range n {
		var f [4]uint64
		for k, bits := range layout {
			v, err := cb.r.ReadBits(bits)
			if err != nil {
				return es, fmt.Errorf("core: corrupt buffer block: %w", err)
			}
			f[k] = v
		}
		es = append(es, unpack(f))
	}
	return es, nil
}

// writeBuffer stores a node's buffered updates in its buffer block.
func (px *PointIndex) writeBuffer(tc *iomodel.Touch, nd *pnode, es []pentry) error {
	nd.bufN = len(es)
	return writeRecords(tc, px.disk, nd.buf, es, pentryLayout, func(e pentry) [4]uint64 {
		var d uint64
		if e.del {
			d = 1
		}
		return [4]uint64{d, uint64(e.ch), uint64(e.pos), e.seq}
	})
}

// readBuffer appends a node's buffered updates to es, charging one block
// read; the bits pass through cb.
func (px *PointIndex) readBuffer(tc *iomodel.Touch, nd *pnode, cb *chunkBuf, es []pentry) ([]pentry, error) {
	return readRecords(tc, px.disk, nd.buf, nd.bufN, pentryLayout, cb, es, func(f [4]uint64) pentry {
		return pentry{del: f[0] == 1, ch: uint32(f[1]), pos: int64(f[2]), seq: f[3]}
	})
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
	defer tc.Close()
	if len(px.rootBuf) >= px.bufCap {
		// "An update is simply stored in the buffer corresponding to the
		// root ... Whenever a buffer becomes full, a constant fraction of
		// the updates in that buffer are moved to one of its children."
		_, moved, rest := dominant(px.rootBuf, len(px.root.kids), px.root.route)
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
	ci := childFor(nd, batch[0].key())
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

// route returns the index of the child of nd that update e routes to.
func (nd *pnode) route(e pentry) int { return childFor(nd, e.key()) }

// dominant is a full buffer's flush choice ("a constant fraction of the
// updates in that buffer are moved to one of its children"): the destination
// in [0,n) that dest routes most of es to (dest -1: none), the lowest on a tie
// so the layout is identical run to run, and es split in order between the
// updates routed there and the rest. best is -1 if dest routes none.
func dominant[E any](es []E, n int, dest func(E) int) (best int, moved, rest []E) {
	counts := make([]int, n)
	for _, e := range es {
		if i := dest(e); i >= 0 {
			counts[i]++
		}
	}
	best, bestN := -1, 0
	for i, c := range counts {
		if c > bestN {
			best, bestN = i, c
		}
	}
	if best < 0 {
		return -1, nil, es
	}
	for _, e := range es {
		if dest(e) == best {
			moved = append(moved, e)
		} else {
			rest = append(rest, e)
		}
	}
	return best, moved, rest
}

// flushInto appends a batch of updates (all routed within nd's subtree) to
// internal node nd's buffer, cascading overflows downward.
func (px *PointIndex) flushInto(tc *iomodel.Touch, nd *pnode, batch []pentry) error {
	if nd.leaf {
		return fmt.Errorf("core: internal error: flushInto reached leaf for character %d", nd.ch)
	}
	es, err := px.readBuffer(tc, nd, newChunkBuf(), nil)
	if err != nil {
		return err
	}
	es = append(es, batch...)
	var overflow [][]pentry
	for len(es) >= px.bufCap {
		var moved []pentry
		_, moved, es = dominant(es, len(nd.kids), nd.route)
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
			if l.bits, err = writeLeafBlock(tc, px.disk, l.blk, piece); err != nil {
				return err
			}
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
			ls, err := px.encodeLeaves(tc, others[0].ch, ps)
			if err != nil {
				return err
			}
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
		if leaf.bits, err = writeLeafBlock(tc, px.disk, leaf.blk, nil); err != nil {
			return err
		}
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

// lastUpdates sorts buffered updates in place by key and arrival and returns,
// in es's storage, each key's last update: the one that decides whether the
// position is present, so a delete after an insert wins and an insert after
// a delete stands. replay and collect apply updates through it alone.
func lastUpdates(es []pentry) []pentry {
	slices.SortFunc(es, func(a, b pentry) int {
		return cmp.Or(cmp.Compare(a.ch, b.ch), cmp.Compare(a.pos, b.pos), cmp.Compare(a.seq, b.seq))
	})
	out := es[:0]
	for j, e := range es {
		if j+1 < len(es) && es[j+1].key() == e.key() {
			continue // a later update of the key decides
		}
		out = append(out, e)
	}
	return out
}

// replay applies one character's buffered updates es (reordered in place) to
// its sorted, duplicate-free positions pos and returns the result, sorted and
// duplicate-free.
func replay(pos []int64, es []pentry) []int64 {
	es = lastUpdates(es)
	out := make([]int64, 0, len(pos)+len(es))
	i := 0
	for _, e := range es {
		for ; i < len(pos) && pos[i] < e.pos; i++ {
			out = append(out, pos[i])
		}
		if i < len(pos) && pos[i] == e.pos {
			i++
		}
		if !e.del {
			out = append(out, e.pos)
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
	defer tc.Close()
	es, err := px.readBuffer(tc, nd, newChunkBuf(), nil)
	if err != nil {
		return err
	}
	left := &pnode{min: nd.kids[0].min, kids: append([]*pnode(nil), nd.kids[:mid]...), buf: px.disk.AllocBlock()}
	right := &pnode{min: nd.kids[mid].min, kids: append([]*pnode(nil), nd.kids[mid:]...), buf: px.disk.AllocBlock()}
	px.nNodes += 2
	var lefts, rights []pentry
	for _, e := range es {
		if e.key().less(right.min) {
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
	return nil
}

// PointQuery returns the (compressed) position set of character ch over the
// position universe [0, 2^47), reflecting all buffered updates: collect over
// the one bin, then the merge. Cost is O(T/B + lg n) I/Os: the buffers on the
// root-to-leaf paths for ch plus the leaf blocks of ch.
func (px *PointIndex) PointQuery(ch uint32) (bm *cbitmap.Bitmap, stats index.QueryStats, err error) {
	if int(ch) >= px.sigma {
		return nil, stats, fmt.Errorf("core: character %d outside alphabet [0,%d)", ch, px.sigma)
	}
	tc := px.disk.NewTouch()
	defer tc.Close()
	defer sessionStats(tc, &stats)
	sc := getScratch()
	defer sc.release()
	if stats.BitsRead, err = px.collect(tc, ch, ch+1, sc, pointUniverse); err != nil {
		return nil, stats, err
	}
	if err = sc.addOverlay(pointUniverse); err != nil {
		return nil, stats, err
	}
	bm, err = sc.merge(pointUniverse, false)
	return bm, stats, err
}

// collect reads into sc, in the caller's session, the position sets of bins
// [lo,hi) as of every buffered update, for a merge over [0,univ). One descent
// over the bins' key range reads each buffer on its paths once, so a run of
// bins costs at most what PointQuery costs for each of them alone. Every leaf
// joins the merge as a validating stream over its device bits, whose count
// collect returns as the bits read (as the append index counts chain bits,
// not buffer bits). Each key's last update decides it (lastUpdates, as in
// replay): a final insert adds its position to sc.overlay; a final delete can
// lie only in the leaf whose key range holds it, which is then decoded
// instead, its surviving positions joining sc.overlay.
func (px *PointIndex) collect(tc *iomodel.Touch, lo, hi uint32, sc *queryScratch, univ int64) (bits int64, err error) {
	sc.leaves, sc.pending = sc.leaves[:0], sc.pending[:0]
	if err := px.descend(tc, px.root, lo, hi, sc); err != nil {
		return 0, err
	}
	for _, e := range px.rootBuf {
		if e.ch >= lo && e.ch < hi {
			sc.pending = append(sc.pending, e)
		}
	}
	last := lastUpdates(sc.pending)
	dels := last[:0] // the final deletes, in key order
	for _, e := range last {
		if e.del {
			dels = append(dels, e)
		} else {
			sc.overlay = append(sc.overlay, e.pos)
		}
	}
	for k, leaf := range sc.leaves {
		for len(dels) > 0 && dels[0].key().less(leaf.min) {
			dels = dels[1:] // below this leaf, past the earlier ones: in no leaf
		}
		j := 0
		for j < len(dels) && dels[j].ch == leaf.ch && (k+1 == len(sc.leaves) || dels[j].key().less(sc.leaves[k+1].min)) {
			j++
		}
		s := sc.newStream()
		if err := openLeaf(tc, px.disk, leaf.blk, leaf.bits, sc.nextBuf(), univ, s); err != nil {
			return bits, err
		}
		bits += int64(leaf.bits)
		if j == 0 {
			continue
		}
		// A leaf holding a final delete joins the overlay instead.
		sc.streams = sc.streams[:len(sc.streams)-1]
		if sc.overlay, err = drainLeaf(s, sc.overlay, dels[:j]); err != nil {
			return bits, err
		}
		dels = dels[j:]
	}
	return bits, nil
}

// descend appends to sc the leaves of bins [lo,hi) under nd, in key order,
// and the updates for those bins buffered on the way.
func (px *PointIndex) descend(tc *iomodel.Touch, nd *pnode, lo, hi uint32, sc *queryScratch) error {
	if nd.leaf {
		if nd.ch >= lo && nd.ch < hi {
			sc.leaves = append(sc.leaves, nd)
		}
		return nil
	}
	if nd.bufN > 0 {
		from := len(sc.pending)
		es, err := px.readBuffer(tc, nd, sc.nextBuf(), sc.pending)
		if err != nil {
			return err
		}
		sc.pending = es[:from]
		for _, e := range es[from:] {
			if e.ch >= lo && e.ch < hi {
				sc.pending = append(sc.pending, e)
			}
		}
	}
	for i := childFor(nd, pkey{lo, 0}); i <= childFor(nd, pkey{hi - 1, pointUniverse - 1}); i++ {
		if err := px.descend(tc, nd.kids[i], lo, hi, sc); err != nil {
			return err
		}
	}
	return nil
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
