package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func TestBuildTreeInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		col  workload.Column
	}{
		{"uniform", workload.Uniform(5000, 64, 1)},
		{"zipf", workload.Zipf(5000, 64, 1.3, 2)},
		{"runs", workload.Runs(5000, 16, 40, 3)},
		{"sorted", workload.Sorted(5000, 32)},
		{"binary", workload.Uniform(1000, 2, 4)},
		{"tiny", workload.Column{X: []uint32{3, 1, 4, 1, 5}, Sigma: 8}},
		{"single-char", workload.Column{X: []uint32{2, 2, 2, 2}, Sigma: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := BuildTree(tc.col, DefaultBranching)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if tr.Root.Start != 0 || tr.Root.End != int64(tc.col.Len()) {
				t.Fatalf("root covers [%d,%d)", tr.Root.Start, tr.Root.End)
			}
		})
	}
}

func TestBuildTreeRejects(t *testing.T) {
	col := workload.Uniform(100, 4, 5)
	if _, err := BuildTree(col, 4); err == nil {
		t.Fatal("c=4 accepted (paper requires c > 4)")
	}
	if _, err := BuildTree(workload.Column{Sigma: 4}, 8); err == nil {
		t.Fatal("empty column accepted")
	}
	if _, err := BuildTree(workload.Column{X: []uint32{9}, Sigma: 4}, 8); err == nil {
		t.Fatal("out-of-alphabet character accepted")
	}
}

func TestTreeNodeCountIsSigmaLog(t *testing.T) {
	// The pruned tree has O(σ lg n) nodes.
	col := workload.Uniform(1<<16, 32, 6)
	tr, err := BuildTree(col, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	// lg n = 16, σ = 32: allow a generous constant.
	if len(tr.Nodes) > 32*16*16 {
		t.Fatalf("%d nodes for sigma=32, n=2^16", len(tr.Nodes))
	}
}

func TestRecordRangeAndCount(t *testing.T) {
	col := workload.Column{X: []uint32{0, 2, 2, 1, 0, 3}, Sigma: 4}
	tr, err := BuildTree(col, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	// byChar: 0 -> {0,4}, 1 -> {3}, 2 -> {1,2}, 3 -> {5}; prefix 0,2,3,5,6.
	if lo, hi := tr.RecordRange(1, 2); lo != 2 || hi != 5 {
		t.Fatalf("RecordRange(1,2) = [%d,%d)", lo, hi)
	}
	if z := tr.Count(0, 3); z != 6 {
		t.Fatalf("Count(0,3) = %d", z)
	}
	if z := tr.Count(3, 3); z != 1 {
		t.Fatalf("Count(3,3) = %d", z)
	}
}

// TestPositionsSortedAndComplete: the level pass hands a member every one of
// its records' positions, in increasing order, wherever the member lies.
func TestPositionsSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	col := workload.Uniform(2000, 16, 8)
	tr, err := BuildTree(col, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	sc := newLevelScratch[uint32](tr.prefix, col.X)
	positions := tr.positionsRef(col.X)
	for trial := 0; trial < 30; trial++ {
		lo := rng.Int63n(2000)
		hi := lo + rng.Int63n(2000-lo) + 1
		if err := sc.scatter([]member{{start: lo, end: hi}}); err != nil {
			t.Fatalf("[%d,%d): %v", lo, hi, err)
		}
		ps := sc.slab[lo:hi]
		for i := 1; i < len(ps); i++ {
			if ps[i] <= ps[i-1] {
				t.Fatalf("positions not sorted at %d", i)
			}
		}
		for i, p := range positions(lo, hi) {
			if int64(ps[i]) != p {
				t.Fatalf("[%d,%d): position %d = %d, want %d", lo, hi, i, ps[i], p)
			}
		}
	}
	// Full range = all positions 0..n-1.
	if err := sc.scatter([]member{{start: 0, end: 2000}}); err != nil {
		t.Fatal(err)
	}
	for i, p := range sc.slab {
		if p != uint32(i) {
			t.Fatalf("full range: position %d = %d", i, p)
		}
	}
}

func TestCoverDisjointAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	col := workload.Zipf(3000, 64, 1.0, 10)
	tr, err := BuildTree(col, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		al := uint32(rng.Intn(64))
		ar := al + uint32(rng.Intn(64-int(al)))
		qlo, qhi := tr.RecordRange(al, ar)
		if qlo == qhi {
			continue
		}
		cover := tr.Cover(qlo, qhi)
		var total int64
		prevEnd := qlo
		for _, v := range cover {
			if v.Start != prevEnd {
				t.Fatalf("cover not contiguous: node starts at %d, expected %d", v.Start, prevEnd)
			}
			prevEnd = v.End
			total += v.Weight()
		}
		if prevEnd != qhi || total != qhi-qlo {
			t.Fatalf("cover [%d,%d): ends at %d, total %d", qlo, qhi, prevEnd, total)
		}
	}
}

func TestCoverSizeLogarithmic(t *testing.T) {
	col := workload.Uniform(1<<18, 1024, 11)
	tr, err := BuildTree(col, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		al := uint32(rng.Intn(1024))
		ar := al + uint32(rng.Intn(1024-int(al)))
		qlo, qhi := tr.RecordRange(al, ar)
		cover := tr.Cover(qlo, qhi)
		// O(1) per level with constant 8c = 64 per level is the worst case;
		// in practice far fewer. Height is O(log_c n) ~ 6.
		if len(cover) > 8*DefaultBranching*(tr.Height+1) {
			t.Fatalf("cover size %d for height %d", len(cover), tr.Height)
		}
	}
}

func TestCharOfPosOf(t *testing.T) {
	col := workload.Column{X: []uint32{1, 0, 1, 3}, Sigma: 4}
	tr, err := BuildTree(col, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	// records: (0,pos1) (1,pos0) (1,pos2) (3,pos3); the level pass over
	// one-record members leaves record r's position in slab[r].
	wantChars := []uint32{0, 1, 1, 3}
	wantPos := []uint32{1, 0, 2, 3}
	sc := newLevelScratch[uint32](tr.prefix, col.X)
	if err := sc.scatter([]member{{start: 0, end: 1}, {start: 1, end: 2}, {start: 2, end: 3}, {start: 3, end: 4}}); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 4; r++ {
		if c := tr.charOf(r); c != wantChars[r] {
			t.Fatalf("charOf(%d) = %d, want %d", r, c, wantChars[r])
		}
		if p := sc.slab[r]; p != wantPos[r] {
			t.Fatalf("position of record %d = %d, want %d", r, p, wantPos[r])
		}
	}
}

// TestTreeHeightAtPowerOfBranching: a static tree's height is ⌈log_c n⌉ by
// integer powers (heightFor). The floating-point quotient older images were
// built with (legacyHeight) reads one too tall at these n = c^e, and a tree
// built for the taller target splits its root in two instead of c. Each n
// small enough to build is built both ways.
func TestTreeHeightAtPowerOfBranching(t *testing.T) {
	for _, tc := range []struct{ c, e int }{
		{8, 7}, {8, 9}, {5, 3}, {5, 6}, {6, 3}, {6, 6}, {7, 3}, {7, 5}, {7, 6},
	} {
		n := int64(1)
		for range tc.e {
			n *= int64(tc.c)
		}
		if got, old := heightFor(n, tc.c), legacyHeight(n, tc.c); got != tc.e || old != tc.e+1 {
			t.Errorf("n = %d^%d: height %d, legacy %d; want %d, %d", tc.c, tc.e, got, old, tc.e, tc.e+1)
		}
		for _, m := range []int64{n - 1, n + 1} {
			if got, old := heightFor(m, tc.c), legacyHeight(m, tc.c); got != old {
				t.Errorf("n = %d (c = %d): height %d, legacy %d", m, tc.c, got, old)
			}
		}
		if n > 1<<17 {
			continue
		}
		col := workload.Uniform(int(n), 16, n)
		tr, err := BuildTree(col, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		prefix, _ := col.Prefix()
		old, err := newTree(prefix, tc.c, legacyHeight)
		if err != nil {
			t.Fatal(err)
		}
		if got, was := len(tr.Root.Children), len(old.Root.Children); got != tc.c || was != 2 {
			t.Errorf("n = %d^%d: root has %d children (legacy height: %d), want %d (2)", tc.c, tc.e, got, was, tc.c)
		}
	}
}

// TestHeightForNoOverflow: heightFor stays exact where the next power of c
// would overflow an int64, at the largest branching a container may declare.
func TestHeightForNoOverflow(t *testing.T) {
	for _, tc := range []struct {
		w    int64
		c, h int
	}{
		{1 << 62, 1 << 21, 3},
		{math.MaxInt64, 1 << 30, 3},
		{1 << 60, 1 << 30, 2},
		{1<<60 + 1, 1 << 30, 3},
		{math.MaxInt64, 2, 63},
	} {
		if got := heightFor(tc.w, tc.c); got != tc.h {
			t.Errorf("heightFor(%d, %d) = %d, want %d", tc.w, tc.c, got, tc.h)
		}
	}
}
