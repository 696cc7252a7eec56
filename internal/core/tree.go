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
// canonical query cover a segment decomposition. A node is a value: the tree
// derives it, and its children, from the prefix counts (Tree.Fanout).
type Node struct {
	Start int64 // first record covered (inclusive)
	End   int64 // one past the last record covered
	Depth int   // root is at depth 0
}

// Weight returns the node's weight: the number of records below it.
func (v Node) Weight() int64 { return v.End - v.Start }

// child returns child i of v's k children: the i-th of k equal slices of its
// records, rounded down at both ends. Each is nonempty, since k <= Weight.
func (v Node) child(i, k int) Node {
	w := v.Weight()
	return Node{Start: v.Start + int64(i)*w/int64(k), End: v.Start + int64(i+1)*w/int64(k), Depth: v.Depth + 1}
}

// maxDepth bounds a node's depth: every child holds at most half its
// parent's records, rounded up, so below 2^63 records no internal node lies
// deeper than 62.
const maxDepth = 64

// Tree is the pruned weight-balanced tree over a column: a rule over the
// prefix counts, not a structure of nodes. Child i of an internal node of
// weight w with k children spans [Start + i·w/k, Start + (i+1)·w/k), where
// k comes from w and the depth (Fanout); a node whose records share one
// character is a pruned leaf. Every walk derives the nodes it visits.
type Tree struct {
	Height int // maximum leaf depth
	C      int // branching parameter

	n     int64
	sigma int
	// prefix[a] = number of records with character < a (the paper's array A
	// shifted by one: prefix has sigma+1 entries, prefix[sigma] = n).
	prefix []int64
	// target[d] is c^(h-d-1), the target child weight of a node at depth d
	// for the leaf depth h of the unpruned tree.
	target [maxDepth]float64
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

// newTree returns the tree over a column's prefix counts (σ+1 entries, the
// last n); height(n, c) is the leaf depth of the unpruned tree. Topology is a
// pure function of (prefix, c, height): the split rule consults characters
// only through charOf, which reads prefix — this is what makes the tree
// reconstructible from counts alone. One walk finds the height.
func newTree(prefix []int64, c int, height func(n int64, c int) int) (*Tree, error) {
	if c <= 4 {
		return nil, fmt.Errorf("core: branching parameter %d must exceed 4", c)
	}
	sigma := len(prefix) - 1
	if prefix[sigma] == 0 {
		return nil, fmt.Errorf("core: empty column")
	}
	t := &Tree{C: c, n: prefix[sigma], sigma: sigma, prefix: prefix}
	// All leaves of the unpruned tree sit at depth h, with node weight
	// Θ(n/c^d) at depth d.
	h := height(t.n, c)
	for d := range t.target {
		t.target[d] = math.Pow(float64(c), float64(h-d-1))
	}
	t.preorder(func(v Node, leaf bool) {
		if leaf {
			t.Height = max(t.Height, v.Depth)
		}
	})
	return t, nil
}

// treeFromCounts rebuilds the pruned weight-balanced tree from per-character
// occurrence counts alone — the reopen path for serialised static indexes.
// The returned tree is topologically identical to BuildTree's over any
// column with these counts: the tree holds no positions (queries read them
// from the on-device bitmaps), and everything it derives — node ranges,
// charOf — depends only on counts and the height rule the image was built
// under.
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

// root returns the root: every record, at depth 0.
func (t *Tree) root() Node { return Node{End: t.n} }

// Fanout returns how many children v has: none for a pruned leaf, whose
// records share one character (§2.2), else split's count.
func (t *Tree) Fanout(v Node) int {
	if t.prefix[t.charOf(v.Start)+1] >= v.End {
		return 0
	}
	return t.split(v)
}

// split returns the child count of internal node v: its weight over the
// target child weight at its depth, rounded, clamped to [2, 4c] and to the
// weight.
func (t *Tree) split(v Node) int {
	w := v.Weight()
	k := min(max(int(math.Round(float64(w)/t.target[v.Depth])), 2), 4*t.C)
	return int(min(int64(k), w))
}

// preorder calls f with every node and whether it is a pruned leaf, each
// node before its children and children in record order.
func (t *Tree) preorder(f func(v Node, leaf bool)) { t.walk(t.root(), f) }

func (t *Tree) walk(v Node, f func(v Node, leaf bool)) {
	k := t.Fanout(v)
	f(v, k == 0)
	for i := range k {
		t.walk(v.child(i, k), f)
	}
}

// NodeCount returns the number of nodes, O(σ lg n), by one walk.
func (t *Tree) NodeCount() (count int) {
	t.preorder(func(Node, bool) { count++ })
	return count
}

// cover calls f with each node of the canonical cover of the record range
// [qlo,qhi), in record order: the O(lg n) maximal subtrees whose record
// ranges lie inside it (at most a constant number per level for constant c).
// The descent visits only the children that overlap the range and needs no
// node's characters: a query's record range is character-aligned
// (RecordRange), so a pruned leaf lies wholly inside it or wholly outside,
// and every node the descent splits is internal. It reads no block: the
// paper's bound prices the O(lg_b n) structure blocks of §2.2's search, which
// its internal-memory assumption ((|Σ| lg n)^δ blocks) holds resident.
func (t *Tree) cover(qlo, qhi int64, f func(v Node) error) error {
	if qlo >= qhi {
		return nil
	}
	return t.descend(t.root(), qlo, qhi, f)
}

func (t *Tree) descend(v Node, qlo, qhi int64, f func(v Node) error) error {
	if qlo <= v.Start && v.End <= qhi {
		return f(v)
	}
	w, k := v.Weight(), t.split(v)
	i := 0
	if qlo > v.Start {
		// The first child to end past qlo: ⌈(qlo−Start+1)·k/w⌉ − 1.
		i = int(((qlo-v.Start+1)*int64(k)+w-1)/w) - 1
	}
	for ; i < k; i++ {
		ch := v.child(i, k)
		if ch.Start >= qhi {
			break
		}
		if err := t.descend(ch, qlo, qhi, f); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the structural invariants the analysis relies on; the
// tests call it. The rule itself makes children partition their parent's
// records in order, and makes a node a pruned leaf exactly when its records
// share one character. Validate checks the balance the analysis adds:
//   - node weight at depth d is O(n/c^(d-O(1))) — checked loosely as
//     weight*c^d <= slack*n*c^2;
//   - per level, each character appears in at most 8c leaves.
func (t *Tree) Validate() error {
	leafPerLevelChar := make(map[[2]int]int)
	var err error
	t.preorder(func(v Node, leaf bool) {
		if err != nil {
			return
		}
		bound := float64(t.n) * float64(t.C*t.C) / math.Pow(float64(t.C), float64(v.Depth))
		if float64(v.Weight()) > bound {
			err = fmt.Errorf("core: node %+v has weight %d > bound %.0f", v, v.Weight(), bound)
		} else if leaf {
			a := t.charOf(v.Start)
			key := [2]int{v.Depth, int(a)}
			if leafPerLevelChar[key]++; leafPerLevelChar[key] > 8*t.C {
				err = fmt.Errorf("core: character %d has more than %d leaves at depth %d", a, 8*t.C, v.Depth)
			}
		}
	})
	return err
}

// N returns the string length.
func (t *Tree) N() int64 { return t.n }

// Sigma returns the alphabet size.
func (t *Tree) Sigma() int { return t.sigma }
