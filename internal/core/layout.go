package core

import (
	"repro/internal/bitio"
	"repro/internal/iomodel"
)

// nodeRecordBits is the on-disk footprint of one tree-structure node record:
// weight, record-range start, child pointer and the node's bitmap-directory
// entry, each O(lg n) bits. 128 bits covers all of them comfortably for the
// string lengths used here (the paper budgets O(lg n) per pointer).
const nodeRecordBits = 128

// treeLayout places the tree structure on disk in the paper's blocked
// fashion: "starting from the root, we store the top d = Θ(lg b) levels in a
// block with pointers to each of the subtrees at level d+1", recursively.
// Concretely each block receives a BFS-connected top region of up to
// cap = B/nodeRecordBits nodes, so any root-to-leaf path touches
// O(lg n / lg cap) = O(lg_b n) structure blocks. blockOf maps a node ID to
// the block holding its record; query traversals charge a read of each
// distinct structure block they visit.
type treeLayout struct {
	disk    *iomodel.Disk
	blockOf []iomodel.BlockID
	nblocks int
}

// newTreeLayout writes the structure of t to d and returns the layout.
func newTreeLayout(d *iomodel.Disk, t *Tree) *treeLayout {
	l := &treeLayout{disk: d, blockOf: make([]iomodel.BlockID, len(t.Nodes))}
	cap := max(d.BlockBits()/nodeRecordBits, 1) // layoutBits assumes the same
	// pending holds subtree roots awaiting placement. Each block is filled
	// by BFS over one subtree; overflow subtrees are deferred, and a block
	// with leftover room pulls further pending subtrees ("we merge the
	// blocks so that no block is more than half empty").
	pending := []*Node{t.Root}
	// Structure blocks are written once at build time, in one session.
	tc := d.NewTouch()
	defer tc.Close()
	for len(pending) > 0 {
		blk := d.AllocBlock()
		l.nblocks++
		w := bitio.NewWriter(d.BlockBits())
		count := 0
		for len(pending) > 0 && count < cap {
			queue := []*Node{pending[0]}
			pending = pending[1:]
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				if count == cap {
					pending = append(pending, v)
					continue
				}
				l.blockOf[v.ID] = blk
				count++
				w.WriteBits(uint64(v.Weight()), 64)
				w.WriteBits(uint64(v.Start), 64)
				queue = append(queue, v.Children...)
			}
		}
		_ = tc.WriteStream(d.BlockExtent(blk), w)
	}
	return l
}

// layoutBits bounds the bits newTreeLayout adds to the image: it fills every
// block but the last, after padding the tail to a block boundary.
func layoutBits(d *iomodel.Disk, t *Tree) int64 {
	perBlock := max(d.BlockBits()/nodeRecordBits, 1)
	return int64(len(t.Nodes)/perBlock+2) * int64(d.BlockBits())
}

// sizeBits returns the space occupied by the structure blocks.
func (l *treeLayout) sizeBits() int64 {
	return int64(l.nblocks) * int64(l.disk.BlockBits())
}

// ioSession is the read surface tree traversals charge through: an
// iomodel.Touch (a query's session, or a shared-scan batch's, which also
// attributes the read to the batch's current query).
type ioSession interface {
	ReadBits(pos int64, n int) (uint64, error)
}

// charge marks the structure block holding v as read in the session. The
// read can fail on a fault-injecting device; callers propagate the error so
// a failed structure-block read aborts (and can retry) the query.
func (l *treeLayout) charge(tc ioSession, v *Node) error {
	blk := l.blockOf[v.ID]
	// Touch one bit of the block; the session dedupes repeated touches.
	_, err := tc.ReadBits(l.disk.BlockOff(blk), 1)
	return err
}
