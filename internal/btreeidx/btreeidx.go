// Package btreeidx implements the classic external-memory secondary index
// the paper positions at one extreme of its unified view: a bulk-loaded
// B+-tree over (key, rid) pairs. A range query descends the tree in
// O(lg_b n) I/Os and then scans leaves, reading the answer as an *explicit*
// position list of Θ(lg n) bits per result — up to a factor Ω(lg n) more
// than the compressed answer the paper's structure reads.
package btreeidx

import (
	"fmt"
	"math/bits"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

const (
	countBits = 32
	childBits = 32
	noNext    = uint64(1<<childBits - 1)
)

// Index is a static B+-tree secondary index on a simulated disk.
type Index struct {
	disk    *iomodel.Disk
	n       int64
	sigma   int
	keyBits int
	posBits int
	recBits int
	leafCap int
	intCap  int
	root    iomodel.BlockID
	height  int // 1 = root is a leaf
	nblocks int
}

// Build bulk-loads a B+-tree over the (key, rid) pairs of col, sorted by
// (key, rid). Each tree node occupies one disk block.
func Build(d *iomodel.Disk, col workload.Column) (*Index, error) {
	n := int64(col.Len())
	if n == 0 {
		return nil, fmt.Errorf("btreeidx: empty column")
	}
	ix := &Index{
		disk:    d,
		n:       n,
		sigma:   col.Sigma,
		keyBits: max(1, bits.Len(uint(col.Sigma-1))),
		posBits: max(1, bits.Len(uint(n-1))),
	}
	ix.recBits = ix.keyBits + ix.posBits
	bb := d.BlockBits()
	ix.leafCap = (bb - countBits - childBits) / ix.recBits
	ix.intCap = (bb - countBits) / (ix.keyBits + childBits)
	if ix.leafCap < 2 || ix.intCap < 2 {
		return nil, fmt.Errorf("btreeidx: block size %d bits too small for records of %d bits", bb, ix.recBits)
	}

	// Records by key; positions ascend within a key.
	byChar, err := col.Group()
	if err != nil {
		return nil, err
	}

	// One session writes every node.
	tc := d.NewTouch()
	defer tc.Close()

	// Chunk the sorted records into leaf payloads, then write leaves with
	// forward links (block ids are allocated up front so next pointers are
	// known).
	type nodeRef struct {
		blk    iomodel.BlockID
		maxKey uint32
	}
	var leaves []nodeRef
	type chunk struct {
		keys []uint32
		pos  []int64
	}
	var chunks []chunk
	var curKeys []uint32
	var curPos []int64
	for a := 0; a < col.Sigma; a++ {
		for _, p := range byChar[a] {
			if len(curKeys) == ix.leafCap {
				chunks = append(chunks, chunk{curKeys, curPos})
				curKeys, curPos = nil, nil
			}
			curKeys = append(curKeys, uint32(a))
			curPos = append(curPos, p)
		}
	}
	if len(curKeys) > 0 {
		chunks = append(chunks, chunk{curKeys, curPos})
	}
	blks := make([]iomodel.BlockID, len(chunks))
	for i := range chunks {
		blks[i] = d.AllocBlock()
		ix.nblocks++
	}
	for i, ch := range chunks {
		next := noNext
		if i+1 < len(chunks) {
			next = uint64(blks[i+1])
		}
		w := bitio.NewWriter(bb)
		w.WriteBits(uint64(len(ch.keys)), countBits)
		w.WriteBits(next, childBits)
		for j := range ch.keys {
			w.WriteBits(uint64(ch.keys[j]), ix.keyBits)
			w.WriteBits(uint64(ch.pos[j]), ix.posBits)
		}
		if err := tc.WriteStream(d.BlockExtent(blks[i]), w); err != nil {
			return nil, err
		}
		leaves = append(leaves, nodeRef{blk: blks[i], maxKey: ch.keys[len(ch.keys)-1]})
	}

	// Build internal levels bottom-up.
	level := leaves
	ix.height = 1
	for len(level) > 1 {
		var up []nodeRef
		for i := 0; i < len(level); i += ix.intCap {
			hi := i + ix.intCap
			if hi > len(level) {
				hi = len(level)
			}
			blk := d.AllocBlock()
			ix.nblocks++
			w := bitio.NewWriter(bb)
			w.WriteBits(uint64(hi-i), countBits)
			for _, ch := range level[i:hi] {
				w.WriteBits(uint64(ch.maxKey), ix.keyBits)
				w.WriteBits(uint64(ch.blk), childBits)
			}
			if err := tc.WriteStream(d.BlockExtent(blk), w); err != nil {
				return nil, err
			}
			up = append(up, nodeRef{blk: blk, maxKey: level[hi-1].maxKey})
		}
		level = up
		ix.height++
	}
	ix.root = level[0].blk
	// Build-time writes are not query costs.
	d.ResetStats()
	return ix, nil
}

// Name implements index.Index.
func (ix *Index) Name() string { return "btree" }

// Len implements index.Index.
func (ix *Index) Len() int64 { return ix.n }

// Sigma implements index.Index.
func (ix *Index) Sigma() int { return ix.sigma }

// SizeBits implements index.Index: whole blocks, as a disk-resident tree
// occupies them.
func (ix *Index) SizeBits() int64 { return int64(ix.nblocks) * int64(ix.disk.BlockBits()) }

// Height returns the number of levels (1 = single leaf).
func (ix *Index) Height() int { return ix.height }

func (ix *Index) readNode(t *iomodel.Touch, blk iomodel.BlockID) (*bitio.Reader, error) {
	return t.Reader(iomodel.Extent{Off: ix.disk.BlockOff(blk), Bits: int64(ix.disk.BlockBits())})
}

// Query implements index.Index: descend to the first leaf that can contain
// lo, then scan right while keys stay ≤ hi.
func (ix *Index) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	if err := r.Valid(ix.sigma); err != nil {
		return nil, index.QueryStats{}, err
	}
	t := ix.disk.NewTouch()
	defer t.Close()
	var stats index.QueryStats
	blk := ix.root
	for lvl := ix.height; lvl > 1; lvl-- {
		rd, err := ix.readNode(t, blk)
		if err != nil {
			return nil, stats, err
		}
		cnt, err := rd.ReadBits(countBits)
		if err != nil {
			return nil, stats, err
		}
		stats.BitsRead += countBits + int64(cnt)*int64(ix.keyBits+childBits)
		next := iomodel.BlockID(-1)
		for i := uint64(0); i < cnt; i++ {
			mk, err1 := rd.ReadBits(ix.keyBits)
			ch, err2 := rd.ReadBits(childBits)
			if err1 != nil || err2 != nil {
				return nil, stats, fmt.Errorf("btreeidx: corrupt internal node")
			}
			if next < 0 && uint32(mk) >= r.Lo {
				next = iomodel.BlockID(ch)
			}
		}
		if next < 0 {
			// All keys below lo: empty result.
			stats.Reads, stats.Writes = t.Reads(), t.Writes()
			return cbitmap.Empty(ix.n), stats, nil
		}
		blk = next
	}
	// Scan leaves.
	var out []int64
	for {
		rd, err := ix.readNode(t, blk)
		if err != nil {
			return nil, stats, err
		}
		cnt, err := rd.ReadBits(countBits)
		if err != nil {
			return nil, stats, err
		}
		next, err := rd.ReadBits(childBits)
		if err != nil {
			return nil, stats, err
		}
		stats.BitsRead += countBits + childBits + int64(cnt)*int64(ix.recBits)
		done := false
		for i := uint64(0); i < cnt; i++ {
			k, err1 := rd.ReadBits(ix.keyBits)
			p, err2 := rd.ReadBits(ix.posBits)
			if err1 != nil || err2 != nil {
				return nil, stats, fmt.Errorf("btreeidx: corrupt leaf")
			}
			if uint32(k) > r.Hi {
				done = true
				break
			}
			if uint32(k) >= r.Lo {
				out = append(out, int64(p))
			}
		}
		if done || next == noNext {
			break
		}
		blk = iomodel.BlockID(next)
	}
	stats.Reads, stats.Writes = t.Reads(), t.Writes()
	bm, err := cbitmap.FromUnsorted(ix.n, out)
	if err != nil {
		return nil, stats, err
	}
	return bm, stats, nil
}

var _ index.Index = (*Index)(nil)
