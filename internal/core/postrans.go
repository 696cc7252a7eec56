package core

import (
	"fmt"

	"repro/internal/gamma"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// PositionTranslator is the paper's §4 deletion preamble: "Maintain a
// B-tree over the deleted positions with subtree sizes maintained in all
// nodes — this allows translating positions back and forth between the two
// systems using O(log_b n) I/Os, and space O(n) bits (positions in leaf
// nodes should be efficiently encoded, e.g., using gamma-coded differences).
// If the number of deleted characters exceeds a constant fraction of all
// characters, global rebuilding is performed to reduce the space."
//
// The two systems: "raw" positions are the index's stable row ids (deleted
// rows keep their ids); "live" positions number only the surviving rows,
// 0-based in raw order. The translator is an on-disk B-tree whose leaves
// hold gamma-coded deleted positions and whose internal nodes hold, per
// child, the child's maximum raw position and its count of deleted
// positions.
type PositionTranslator struct {
	disk *iomodel.Disk
	n    int64 // raw universe size

	root    *ptNode
	deleted int64
	leafCap int
	fanout  int
	nBlocks int
}

// ptNode is a B-tree node. Leaves store sorted deleted positions (encoded
// into their block on every mutation); internal nodes store children with
// cached (maxPos, count) routing data mirrored in memory and accounted on
// disk.
type ptNode struct {
	leaf bool
	blk  iomodel.BlockID

	// Leaf state.
	pos []int64 // sorted deleted raw positions

	// Internal state.
	kids []*ptNode
	maxP int64 // maximum raw position in subtree (-1 if empty)
	cnt  int64 // deleted positions in subtree
}

// NewPositionTranslator returns a translator for raw positions [0,n).
func NewPositionTranslator(d *iomodel.Disk, n int64) (*PositionTranslator, error) {
	pt := &PositionTranslator{disk: d, n: n}
	// Leaf capacity: worst-case gamma code is 2 lg n + 1 bits.
	worst := 2*bitsLen(n) + 1
	pt.leafCap = (d.BlockBits() - pointLeafHeaderBits) / worst
	if pt.leafCap < 4 {
		return nil, fmt.Errorf("core: block size %d bits too small for position translation leaves", d.BlockBits())
	}
	pt.fanout = 8
	leaf := &ptNode{leaf: true, blk: d.AllocBlock(), maxP: -1}
	pt.nBlocks++
	pt.root = leaf
	return pt, nil
}

func bitsLen(v int64) int {
	l := 1
	for x := uint64(v); x > 1; x >>= 1 {
		l++
	}
	return l
}

// N returns the raw universe size.
func (pt *PositionTranslator) N() int64 { return pt.n }

// Deleted returns the number of deleted positions.
func (pt *PositionTranslator) Deleted() int64 { return pt.deleted }

// Live returns the number of surviving positions.
func (pt *PositionTranslator) Live() int64 { return pt.n - pt.deleted }

// SizeBits returns the structure's space (whole blocks, as a disk-resident
// tree occupies them).
func (pt *PositionTranslator) SizeBits() int64 {
	return int64(pt.nBlocks) * int64(pt.disk.BlockBits())
}

// writeLeaf refreshes a leaf's routing data and writes its positions in the
// point index's leaf format — a 32-bit count, then the gamma-coded gaps —
// charging I/Os.
func (pt *PositionTranslator) writeLeaf(tc *iomodel.Touch, nd *ptNode) error {
	nd.maxP = -1
	if len(nd.pos) > 0 {
		nd.maxP = nd.pos[len(nd.pos)-1]
	}
	nd.cnt = int64(len(nd.pos))
	_, err := writeLeafBlock(tc, pt.disk, nd.blk, nd.pos)
	return err
}

// split returns the index at which a leaf holding pos splits, or 0 when it
// is kept: within leafCap positions and within its block. leafCap bounds the
// gaps of the universe the translator was created over; positions appended
// since (Extend) code longer gaps, and a leaf too big for its block splits
// where its encoded bits balance, since halving the count need not halve
// the bits.
func (pt *PositionTranslator) split(pos []int64) int {
	bits, prev := pointLeafHeaderBits, int64(-1)
	for _, p := range pos {
		bits += gamma.Len(uint64(p - prev))
		prev = p
	}
	if bits <= pt.disk.BlockBits() {
		if len(pos) <= pt.leafCap {
			return 0
		}
		return len(pos) / 2
	}
	acc := pointLeafHeaderBits
	prev = -1
	for i, p := range pos {
		if acc += gamma.Len(uint64(p - prev)); acc > bits/2 {
			return min(max(i, 1), len(pos)-1)
		}
		prev = p
	}
	return len(pos) - 1
}

// chargeRead marks a node's block read.
func (pt *PositionTranslator) chargeRead(tc *iomodel.Touch, nd *ptNode) {
	_, _ = tc.ReadBits(pt.disk.BlockOff(nd.blk), 1)
}

// Delete records raw position p as deleted. Duplicate deletions are
// idempotent. Cost: O(log_b n) I/Os plus splits.
func (pt *PositionTranslator) Delete(p int64) (stats index.QueryStats, err error) {
	if p < 0 || p >= pt.n {
		return stats, fmt.Errorf("core: position %d outside [0,%d)", p, pt.n)
	}
	tc := pt.disk.NewTouch()
	defer tc.Close()
	defer func() { stats.Reads, stats.Writes = tc.Reads(), tc.Writes() }()
	added, split, err := pt.insert(tc, pt.root, p)
	if err != nil {
		return stats, err
	}
	if split != nil {
		// Root split: new root above.
		old := pt.root
		pt.root = &ptNode{
			blk:  pt.disk.AllocBlock(),
			kids: []*ptNode{old, split},
		}
		pt.nBlocks++
		pt.refresh(pt.root)
	}
	if added {
		pt.deleted++
	}
	return stats, nil
}

// refresh recomputes an internal node's routing data from its children.
func (pt *PositionTranslator) refresh(nd *ptNode) {
	nd.cnt = 0
	nd.maxP = -1
	for _, k := range nd.kids {
		nd.cnt += k.cnt
		if k.maxP > nd.maxP {
			nd.maxP = k.maxP
		}
	}
}

// insert adds p under nd; returns whether a new position was added and a
// new right sibling if nd split.
func (pt *PositionTranslator) insert(tc *iomodel.Touch, nd *ptNode, p int64) (bool, *ptNode, error) {
	pt.chargeRead(tc, nd)
	if nd.leaf {
		// Binary insert.
		lo, hi := 0, len(nd.pos)
		for lo < hi {
			mid := (lo + hi) / 2
			if nd.pos[mid] < p {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(nd.pos) && nd.pos[lo] == p {
			return false, nil, nil // idempotent
		}
		nd.pos = append(nd.pos, 0)
		copy(nd.pos[lo+1:], nd.pos[lo:])
		nd.pos[lo] = p
		mid := pt.split(nd.pos)
		if mid == 0 {
			return true, nil, pt.writeLeaf(tc, nd)
		}
		right := &ptNode{leaf: true, blk: pt.disk.AllocBlock(), pos: append([]int64(nil), nd.pos[mid:]...)}
		pt.nBlocks++
		nd.pos = nd.pos[:mid:mid]
		if err := pt.writeLeaf(tc, nd); err != nil {
			return true, nil, err
		}
		if err := pt.writeLeaf(tc, right); err != nil {
			return true, nil, err
		}
		return true, right, nil
	}
	// Internal: route to the first child with maxP >= p, else the last.
	ci := len(nd.kids) - 1
	for i, k := range nd.kids {
		if k.maxP >= p {
			ci = i
			break
		}
	}
	added, split, err := pt.insert(tc, nd.kids[ci], p)
	if err != nil {
		return added, nil, err
	}
	if split != nil {
		nd.kids = append(nd.kids, nil)
		copy(nd.kids[ci+2:], nd.kids[ci+1:])
		nd.kids[ci+1] = split
	}
	pt.refresh(nd)
	if len(nd.kids) <= 2*pt.fanout {
		return added, nil, nil
	}
	mid := len(nd.kids) / 2
	right := &ptNode{blk: pt.disk.AllocBlock(), kids: append([]*ptNode(nil), nd.kids[mid:]...)}
	pt.nBlocks++
	nd.kids = nd.kids[:mid:mid]
	pt.refresh(nd)
	pt.refresh(right)
	return added, right, nil
}

// RawToLive translates a raw position to its live ordinal: the number of
// surviving positions strictly before p. If p itself is deleted, the live
// ordinal of the next surviving position is returned with live=false.
func (pt *PositionTranslator) RawToLive(p int64) (int64, bool, index.QueryStats, error) {
	var stats index.QueryStats
	if p < 0 || p >= pt.n {
		return 0, false, stats, fmt.Errorf("core: position %d outside [0,%d)", p, pt.n)
	}
	tc := pt.disk.NewTouch()
	defer tc.Close()
	// deletedBefore = number of deleted positions < p; isDel whether p deleted.
	var deletedBefore int64
	isDel := false
	nd := pt.root
	for !nd.leaf {
		pt.chargeRead(tc, nd)
		next := nd.kids[len(nd.kids)-1]
		for i, k := range nd.kids {
			if k.maxP >= p || i == len(nd.kids)-1 {
				next = k
				break
			}
			deletedBefore += k.cnt
		}
		nd = next
	}
	pt.chargeRead(tc, nd)
	for _, q := range nd.pos {
		if q < p {
			deletedBefore++
		} else {
			if q == p {
				isDel = true
			}
			break
		}
	}
	stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
	return p - deletedBefore, !isDel, stats, nil
}

// LiveToRaw translates a live ordinal back to the raw position of the
// (live+1)-th surviving row, in O(log_b n) I/Os: descend by subtree counts.
func (pt *PositionTranslator) LiveToRaw(live int64) (int64, index.QueryStats, error) {
	var stats index.QueryStats
	if live < 0 || live >= pt.Live() {
		return 0, stats, fmt.Errorf("core: live position %d outside [0,%d)", live, pt.Live())
	}
	tc := pt.disk.NewTouch()
	defer tc.Close()
	// Find the raw position p with (p - deleted(<p)) == live and p not
	// deleted: descend by live counts, then finish within the leaf.
	var deletedBefore int64
	nd := pt.root
	for !nd.leaf {
		pt.chargeRead(tc, nd)
		routed := false
		for i, k := range nd.kids {
			// Raw positions up to k.maxP; live positions available through
			// this child: (k.maxP+1) - (deletedBefore + k.cnt).
			if i == len(nd.kids)-1 || k.maxP+1-(deletedBefore+k.cnt) > live {
				nd = k
				routed = true
				break
			}
			deletedBefore += k.cnt
		}
		if !routed {
			break
		}
	}
	pt.chargeRead(tc, nd)
	// Within the leaf: scan its deleted positions, maintaining the count of
	// deletions before the candidate raw position.
	p := live + deletedBefore
	for _, q := range nd.pos {
		if q <= p {
			deletedBefore++
			p = live + deletedBefore
		} else {
			break
		}
	}
	stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
	if p >= pt.n {
		return 0, stats, fmt.Errorf("core: live position %d has no raw mapping", live)
	}
	return p, stats, nil
}

// NeedsRebuild reports whether deletions exceed half of all positions — the
// paper's global-rebuilding trigger ("if the number of deleted characters
// exceeds a constant fraction of all characters").
func (pt *PositionTranslator) NeedsRebuild() bool {
	return pt.deleted > pt.n/2
}

// Extend grows the raw universe to newN (appends add live positions at the
// end; the tree is untouched since they carry no deletions).
func (pt *PositionTranslator) Extend(newN int64) error {
	if newN < pt.n {
		return fmt.Errorf("core: cannot shrink universe from %d to %d", pt.n, newN)
	}
	pt.n = newN
	return nil
}
