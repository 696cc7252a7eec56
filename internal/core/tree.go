// Package core implements the paper's data structures: the warm-up index of
// Theorem 1, the optimal static secondary index of Theorem 2, approximate
// queries (Theorem 3), the semi-dynamic and buffered variants (Theorems 4–5),
// the buffered compressed bitmap index (Theorem 6) and the fully dynamic
// index (Theorem 7).
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/workload"
)

// DefaultBranching is the weight-balanced tree's branching parameter c.
// The paper requires a constant c > 4.
const DefaultBranching = 8

// Node is a node of the pruned weight-balanced tree W (§2.2). The tree is
// built over the multiset of the n characters of x ordered primarily by
// character and secondarily by position, so every node covers a contiguous
// range of "records" [Start, End) — and, crucially, every alphabet range
// query [al,ar] corresponds to a contiguous record range, making the
// canonical query cover a segment decomposition.
type Node struct {
	ID       int
	Depth    int   // root is at depth 0
	Start    int64 // first record covered (inclusive)
	End      int64 // one past the last record covered
	CharLo   uint32
	CharHi   uint32
	Children []*Node // nil for pruned leaves (single-character subtrees)
	Parent   *Node
}

// Weight returns the node's weight: the number of records below it.
func (v *Node) Weight() int64 { return v.End - v.Start }

// IsLeaf reports whether v is a pruned leaf.
func (v *Node) IsLeaf() bool { return len(v.Children) == 0 }

// Tree is the pruned weight-balanced tree over a column, together with the
// record order it is built on.
type Tree struct {
	Root   *Node
	Nodes  []*Node // by ID
	Height int     // maximum leaf depth
	C      int     // branching parameter

	n     int64
	sigma int
	// prefix[a] = number of records with character < a (the paper's array A
	// shifted by one: prefix has sigma+1 entries, prefix[sigma] = n).
	prefix []int64
}

// BuildTree constructs the pruned weight-balanced tree for col with
// branching parameter c (> 4 per §2.2).
func BuildTree(col workload.Column, c int) (*Tree, error) {
	prefix, err := col.Prefix()
	if err != nil {
		return nil, err
	}
	return newTree(prefix, c, heightFor)
}

// legacyHeight is the height rule of static images written before their node
// records carried the member directory: ⌈log n / log c⌉ in floating point,
// one level too tall wherever the quotient rounds above an integer (n = c^e
// for n = 7^5, 5^3, 8^7 and others). Those images reopen with the topology
// they were built with.
func legacyHeight(n int64, c int) int {
	return max(int(math.Ceil(math.Log(float64(n))/math.Log(float64(c)))), 1)
}

// newTree builds the node structure over a column's prefix counts (σ+1
// entries, the last n) and assigns preorder IDs; height(n, c) is the leaf
// depth of the unpruned tree. Topology is a pure function of (prefix, c,
// height): the recursive build consults characters only through charOf,
// which reads prefix — this is what makes the tree reconstructible from
// counts alone.
func newTree(prefix []int64, c int, height func(n int64, c int) int) (*Tree, error) {
	if c <= 4 {
		return nil, fmt.Errorf("core: branching parameter %d must exceed 4", c)
	}
	sigma := len(prefix) - 1
	if prefix[sigma] == 0 {
		return nil, fmt.Errorf("core: empty column")
	}
	t := &Tree{C: c, n: prefix[sigma], sigma: sigma, prefix: prefix}
	// Height: all leaves of the unpruned tree sit at depth h with node
	// weight Θ(n/c^d) at depth d.
	t.Root = t.build(nil, 0, 0, t.n, height(t.n, t.C))
	var assign func(v *Node)
	assign = func(v *Node) {
		v.ID = len(t.Nodes)
		t.Nodes = append(t.Nodes, v)
		if v.Depth > t.Height {
			t.Height = v.Depth
		}
		for _, ch := range v.Children {
			assign(ch)
		}
	}
	assign(t.Root)
	return t, nil
}

// treeFromCounts rebuilds the pruned weight-balanced tree from per-character
// occurrence counts alone — the reopen path for serialised static indexes.
// The returned tree is topologically identical to BuildTree's over any
// column with these counts: the tree holds no positions (queries read them
// from the on-device bitmaps), and everything it does hold — prefix, node
// ranges, charOf — depends only on counts and the height rule the image was
// built under.
func treeFromCounts(counts []int64, c int, height func(n int64, c int) int) (*Tree, error) {
	prefix := make([]int64, len(counts)+1)
	for a, cnt := range counts {
		if cnt < 0 {
			return nil, fmt.Errorf("core: negative count for character %d", a)
		}
		if prefix[a] > math.MaxInt64-cnt {
			return nil, fmt.Errorf("core: row count overflow")
		}
		prefix[a+1] = prefix[a] + cnt
	}
	return newTree(prefix, c, height)
}

// charOf returns the character of record r.
func (t *Tree) charOf(r int64) uint32 {
	// prefix is sorted; find a with prefix[a] <= r < prefix[a+1].
	a := sort.Search(len(t.prefix), func(i int) bool { return t.prefix[i] > r }) - 1
	return uint32(a)
}

// RecordRange returns the record interval [lo,hi) holding all occurrences
// of characters in [al,ar].
func (t *Tree) RecordRange(al, ar uint32) (int64, int64) {
	return t.prefix[al], t.prefix[ar+1]
}

// Count returns z = |I[al;ar]| using the prefix array (the paper's A).
func (t *Tree) Count(al, ar uint32) int64 {
	return t.prefix[ar+1] - t.prefix[al]
}

// build constructs the subtree covering records [start,end) at the given
// depth; h is the target leaf depth of the unpruned tree.
func (t *Tree) build(parent *Node, depth int, start, end int64, h int) *Node {
	v := &Node{Depth: depth, Start: start, End: end, Parent: parent}
	v.CharLo = t.charOf(start)
	v.CharHi = t.charOf(end - 1)
	if v.CharLo == v.CharHi {
		// All records share one character: prune (§2.2).
		return v
	}
	w := end - start
	// Target child weight c^(h-depth-1); clamp the child count to [2, 4c].
	target := math.Pow(float64(t.C), float64(h-depth-1))
	k := int(math.Round(float64(w) / target))
	if k < 2 {
		k = 2
	}
	if k > 4*t.C {
		k = 4 * t.C
	}
	if int64(k) > w {
		k = int(w)
	}
	for i := 0; i < k; i++ {
		cs := start + int64(i)*w/int64(k)
		ce := start + int64(i+1)*w/int64(k)
		if cs == ce {
			continue
		}
		v.Children = append(v.Children, t.build(v, depth+1, cs, ce, h))
	}
	return v
}

// CoverAppend appends to dst the canonical cover of the record range
// [qlo,qhi): the O(lg n) maximal subtrees whose record ranges lie inside it
// (at most a constant number per level for constant c). The descent runs
// over the in-memory tree and reads no block: the paper's bound prices the
// O(lg_b n) structure blocks of §2.2's search, which its internal-memory
// assumption ((|Σ| lg n)^δ blocks) holds resident. Appending lets the planner
// reuse one pooled buffer for every cover it computes.
func (t *Tree) CoverAppend(dst []*Node, qlo, qhi int64) []*Node {
	var rec func(v *Node)
	rec = func(v *Node) {
		if v.End <= qlo || v.Start >= qhi {
			return
		}
		if qlo <= v.Start && v.End <= qhi {
			dst = append(dst, v)
			return
		}
		for _, ch := range v.Children {
			rec(ch)
		}
	}
	rec(t.Root)
	return dst
}

// Validate checks the structural invariants the analysis relies on and is
// used by tests and the semi-dynamic rebuilder:
//   - children partition the parent's record range in order;
//   - pruned leaves cover exactly one character;
//   - internal nodes cover at least two characters (pruning is maximal);
//   - node weight at depth d is O(n/c^(d-O(1))) — checked loosely as
//     weight*c^d <= slack*n*c^2;
//   - per level, each character appears in at most 8c leaves.
func (t *Tree) Validate() error {
	leafPerLevelChar := make(map[[2]int]int)
	var rec func(v *Node) error
	rec = func(v *Node) error {
		if v.IsLeaf() {
			if v.CharLo != v.CharHi {
				return fmt.Errorf("core: leaf %d covers characters [%d,%d]", v.ID, v.CharLo, v.CharHi)
			}
			key := [2]int{v.Depth, int(v.CharLo)}
			leafPerLevelChar[key]++
			if leafPerLevelChar[key] > 8*t.C {
				return fmt.Errorf("core: character %d has more than %d leaves at depth %d", v.CharLo, 8*t.C, v.Depth)
			}
			return nil
		}
		if v.CharLo == v.CharHi {
			return fmt.Errorf("core: internal node %d covers a single character (pruning not maximal)", v.ID)
		}
		expect := v.Start
		for _, ch := range v.Children {
			if ch.Start != expect {
				return fmt.Errorf("core: node %d children do not partition (gap at %d)", v.ID, expect)
			}
			if ch.Depth != v.Depth+1 {
				return fmt.Errorf("core: node %d child depth %d, want %d", v.ID, ch.Depth, v.Depth+1)
			}
			expect = ch.End
			if err := rec(ch); err != nil {
				return err
			}
		}
		if expect != v.End {
			return fmt.Errorf("core: node %d children end at %d, want %d", v.ID, expect, v.End)
		}
		return nil
	}
	if err := rec(t.Root); err != nil {
		return err
	}
	// Loose weight-balance check.
	for _, v := range t.Nodes {
		bound := float64(t.n) * float64(t.C*t.C) / math.Pow(float64(t.C), float64(v.Depth))
		if float64(v.Weight()) > bound {
			return fmt.Errorf("core: node %d at depth %d has weight %d > bound %.0f", v.ID, v.Depth, v.Weight(), bound)
		}
	}
	return nil
}

// N returns the string length.
func (t *Tree) N() int64 { return t.n }

// Sigma returns the alphabet size.
func (t *Tree) Sigma() int { return t.sigma }
