package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// charSkeleton is the character-granularity weight-balanced tree of
// Theorems 4, 5 and 7 with its materialisation rule: the one copy of
// everything AppendIndex and Dynamic share above their member stores.
type charSkeleton struct {
	root   *dynNode
	height int   // deepest node depth seen since the last global rebuild
	depths []int // materialised depths, increasing
}

// reset makes root the whole skeleton and returns its nodes in preorder:
// height is its deepest node, depths the Theorem 2 rule over that height.
func (sk *charSkeleton) reset(root *dynNode, stride int) []*dynNode {
	sk.root, sk.height = root, 0
	all := sk.scan(nil, root)
	sk.depths = materialDepths(sk.height, stride)
	return all
}

// scan appends v's subtree to all in preorder, raising height to the deepest
// node it meets.
func (sk *charSkeleton) scan(all []*dynNode, v *dynNode) []*dynNode {
	all = append(all, v)
	if v.depth > sk.height {
		sk.height = v.depth
	}
	for _, c := range v.children {
		all = sk.scan(all, c)
	}
	return all
}

// memberLevelOf returns the materialised level index for node v, or -1.
// Leaves go to the first materialised level at or below their depth
// (clamped to the last level); internal nodes are members only at
// materialised depths strictly above the last level — the last level is
// leaves-only ("store all the leaves explicitly"), which keeps frontier
// tiling valid even when later subtree rebuilds create leaves deeper than
// the original height.
func (sk *charSkeleton) memberLevelOf(v *dynNode) int {
	i := sort.SearchInts(sk.depths, v.depth)
	if v.isLeaf() {
		return min(i, len(sk.depths)-1)
	}
	if i < len(sk.depths)-1 && sk.depths[i] == v.depth {
		return i
	}
	return -1
}

// levelForDepth maps a cover node's depth to the materialised level whose
// members tile it.
func (sk *charSkeleton) levelForDepth(d int) int {
	return min(sort.SearchInts(sk.depths, d), len(sk.depths)-1)
}

// cover decomposes the character range [lo,hi] into maximal subtrees,
// calling descended (when non-nil) on every node the walk passes through to
// reach them.
func (sk *charSkeleton) cover(lo, hi uint32, descended func(*dynNode)) []*dynNode {
	var out []*dynNode
	var rec func(v *dynNode)
	rec = func(v *dynNode) {
		if v.hi < lo || v.lo > hi {
			return
		}
		if lo <= v.lo && v.hi <= hi {
			out = append(out, v)
			return
		}
		if descended != nil {
			descended(v)
		}
		for _, c := range v.children {
			rec(c)
		}
	}
	rec(sk.root)
	return out
}

// clone deep-copies the skeleton, recording the old-to-new node mapping in
// nodes when it is non-nil (AppendIndex's members and layout table reference
// nodes by pointer, so they need remapping).
func (sk *charSkeleton) clone(nodes map[*dynNode]*dynNode) charSkeleton {
	var rec func(v, parent *dynNode) *dynNode
	rec = func(v, parent *dynNode) *dynNode {
		cp := &dynNode{depth: v.depth, lo: v.lo, hi: v.hi, weight: v.weight, buildWeight: v.buildWeight, parent: parent}
		if nodes != nil {
			nodes[v] = cp
		}
		for _, c := range v.children {
			cp.children = append(cp.children, rec(c, cp))
		}
		return cp
	}
	return charSkeleton{root: rec(sk.root, nil), height: sk.height, depths: slices.Clone(sk.depths)}
}

// charSpan is one tile of a materialised level: anything holding the
// character range of a skeleton node.
type charSpan interface {
	charLo() uint32
	charHi() uint32
}

func (m *dynMember) charLo() uint32 { return m.node.lo }
func (m *dynMember) charHi() uint32 { return m.node.hi }
func (b dynBin) charLo() uint32     { return b.lo }
func (b dynBin) charHi() uint32     { return b.hi }

// tileFor returns the index in tiles — one level's tiles, sorted by
// character — of the tile holding ch, or -1.
func tileFor[T charSpan](tiles []T, ch uint32) int {
	i := sort.Search(len(tiles), func(j int) bool { return tiles[j].charLo() > ch }) - 1
	if i < 0 || tiles[i].charHi() < ch {
		return -1
	}
	return i
}

// tilesWithin returns the index range [i,j) of level li's tiles that tile
// the character range [lo,hi] of a cover node at that level's frontier.
func tilesWithin[T charSpan](tiles []T, li int, lo, hi uint32) (int, int, error) {
	i := sort.Search(len(tiles), func(j int) bool { return tiles[j].charLo() >= lo })
	j := i
	for j < len(tiles) && tiles[j].charHi() <= hi {
		j++
	}
	if i == j || tiles[i].charLo() != lo || tiles[j-1].charHi() != hi {
		return 0, 0, fmt.Errorf("core: level %d does not tile chars [%d,%d]", li, lo, hi)
	}
	return i, j, nil
}

// collectSides runs collect over the characters an answer is merged from: r
// itself, or — for a dense answer, whose complement the merge inverts (§2.1)
// — the two sides of r, the right one up to last, the kind's last stored
// character. A side with no characters is not collected.
func collectSides(r index.Range, complement bool, last uint32, collect func(lo, hi uint32) error) error {
	if !complement {
		return collect(r.Lo, r.Hi)
	}
	if r.Lo > 0 {
		if err := collect(0, r.Lo-1); err != nil {
			return err
		}
	}
	if r.Hi < last {
		return collect(r.Hi+1, last)
	}
	return nil
}

// charReader is an updatable kind as queryUpdatable reads it:
// queryCharStreams adds to sc, in the session tc, the streams of the cover of
// the characters [lo,hi] and every update of theirs still pending in a buffer,
// and returns the bits of the streams it read.
type charReader interface {
	queryCharStreams(tc *iomodel.Touch, lo, hi uint32, sc *queryScratch) (bits int64, err error)
}

// queryUpdatable is the one query of the updatable kinds over z of their n
// rows. In one session, kind reads into the scratch the cover of r — or, for
// a dense answer, of r's sides up to last — with its pending updates as the
// overlay; then the streams and the overlay merge over [0,n), complemented
// for a dense answer. Stats stand even when the query fails, so retry layers
// can account every attempt.
func queryUpdatable(ctx context.Context, kind charReader, d *iomodel.Disk, r index.Range, n, z int64, last uint32) (out *cbitmap.Bitmap, stats index.QueryStats, err error) {
	tc := d.NewTouch()
	defer tc.Close()
	defer sessionStats(tc, &stats)
	sc := getScratch()
	defer sc.release()
	if err = ctx.Err(); err != nil {
		return nil, stats, err
	}
	complement := z > n/2
	err = collectSides(r, complement, last, func(lo, hi uint32) error {
		bits, err := kind.queryCharStreams(tc, lo, hi, sc)
		stats.BitsRead += bits
		return err
	})
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		err = sc.addOverlay(n)
	}
	if err != nil {
		return nil, stats, err
	}
	out, err = sc.merge(n, complement)
	return out, stats, err
}
