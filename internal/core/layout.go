package core

import (
	"fmt"

	"repro/internal/gamma"
	"repro/internal/iomodel"
)

// legacyRecordBits is the node record of static images written before the
// records carried the member directory: weight and record-range start, 64
// bits each, which no query ever decoded. Their metadata stores every node's
// block and every member's length instead (OpenApprox's legacy branch).
const legacyRecordBits = 128

// treeLayout is the tree structure as files of revision 1 and before placed
// it on disk, in the paper's blocked fashion: "starting from the root, we
// store the top d = Θ(lg b) levels in a block with pointers to each of the
// subtrees at level d+1", recursively. Each block received a BFS-connected
// top region of up to B/recordBits nodes (placeLayout), so any root-to-leaf
// path touches O(lg n / lg cap) = O(lg_b n) structure blocks. The blocks led
// the image, from block 0 (after A on an image that holds A), so a reopen
// needs no pointer to them.
//
// A node's record is its member's directory entry: the length of the
// member's gap stream in lenBits, then its exp-Golomb order in kBits (both
// zero for a node that is no member). A member's offset is its level's base
// plus the lengths of the members before it, so the records and the
// per-level bases are the whole exact directory.
//
// No query walks the blocks: the tree is rebuilt from the counts and the
// records are read once at open, which is what the paper's internal memory
// of (|Σ| lg n)^δ blocks holds. Revision 2 keeps the same lengths and orders
// in the metadata's directory stream (directory.go), a few bits per member
// where a record takes a few tens per node, member or not, padded to whole
// blocks; no new file has a layout, and only the open path of older files
// replays it.
type treeLayout struct {
	disk           *iomodel.Disk
	nblocks        int
	lenBits, kBits int // 0, 0 for a legacy layout
}

// recordBits returns the width of one node record.
func (l *treeLayout) recordBits() int {
	if l.lenBits == 0 {
		return legacyRecordBits
	}
	return l.lenBits + l.kBits
}

// perBlock returns how many node records fit in a block of d.
func perBlock(d *iomodel.Disk, recordBits int) int { return max(d.BlockBits()/recordBits, 1) }

// placeLayout lays out the nodes of t on d from block first, records of
// lenBits+kBits to a block as many as fit, and calls visit with each node
// and the bit position of its record, in increasing position. Each block is
// filled by BFS over one subtree; overflow subtrees are deferred, and a
// block with leftover room pulls further pending subtrees ("we merge the
// blocks so that no block is more than half empty"). The placement is a
// pure function of the topology and the record width, so a reopen replays
// the writer's.
func placeLayout(d *iomodel.Disk, t *Tree, first iomodel.BlockID, lenBits, kBits int, visit func(v *Node, pos int64)) *treeLayout {
	l := &treeLayout{disk: d, lenBits: lenBits, kBits: kBits}
	width := l.recordBits()
	cap := perBlock(d, width)
	pending := []*Node{t.Root}
	for ; len(pending) > 0; l.nblocks++ {
		blk := first + iomodel.BlockID(l.nblocks)
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
				visit(v, d.BlockOff(blk)+int64(count*width))
				count++
				queue = append(queue, v.Children...)
			}
		}
	}
	return l
}

// openLayout replays the placement of records lenBits+kBits wide
// from the first block after A (block 0 on an image without A), reads the
// blocks in one pass outside any query's session, and gives every member the
// length and order its node's record holds. A record must fit its node: no
// order above gamma.MaxOrder, none on a leaf unless leafOrders (files written
// before coded leaves in gamma), and all zero for a node that is no member.
func (ox *Optimal) openLayout(depths []int, lenBits, kBits int, leafOrders bool) error {
	d, t := ox.disk, ox.tree
	bb := int64(d.BlockBits())
	first := iomodel.BlockID((ox.aExt.End() + bb - 1) / bb)
	pos := make([]int64, len(t.Nodes))
	l := placeLayout(d, t, first, lenBits, kBits, func(v *Node, p int64) { pos[v.ID] = p })
	ext := iomodel.Extent{Off: d.BlockOff(first), Bits: l.sizeBits()}
	if ext.End() > d.AllocatedBits() {
		return fmt.Errorf("core: tree layout of %d blocks from block %d exceeds image of %d bits", l.nblocks, first, d.AllocatedBits())
	}
	r, err := d.Peek(ext)
	if err != nil {
		return err
	}
	recs := make([]uint64, len(t.Nodes))
	for id, p := range pos {
		if err := r.Seek(int(p)); err != nil {
			return err
		}
		if recs[id], err = r.ReadBits(lenBits + kBits); err != nil {
			return err
		}
	}
	ox.layout = l
	isMember := make([]bool, len(t.Nodes))
	eachMember(t, depths, func(v *Node, li, mi int) {
		m := &ox.levels[li].members[mi]
		m.ext.Bits, m.k = int64(recs[v.ID]>>kBits), uint8(recs[v.ID]&(1<<kBits-1))
		isMember[v.ID] = true
	})
	for _, v := range t.Nodes {
		k := recs[v.ID] & (1<<kBits - 1)
		switch {
		case !isMember[v.ID] && recs[v.ID] != 0:
			return fmt.Errorf("core: node %d is no member but its record holds %#x", v.ID, recs[v.ID])
		case k > gamma.MaxOrder || (k > 0 && v.IsLeaf() && !leafOrders):
			return fmt.Errorf("core: node %d (leaf %v) at order %d", v.ID, v.IsLeaf(), k)
		}
	}
	return nil
}

// sizeBits returns the space occupied by the structure blocks.
func (l *treeLayout) sizeBits() int64 {
	return int64(l.nblocks) * int64(l.disk.BlockBits())
}
