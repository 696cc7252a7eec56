package core

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// buildAppendOracle drives an AppendIndex and a mirror column together.
func appendAndCheck(t *testing.T, ax *AppendIndex, col *workload.Column, ch uint32) {
	t.Helper()
	if _, err := ax.Append(ch); err != nil {
		t.Fatalf("append %d: %v", ch, err)
	}
	col.X = append(col.X, ch)
}

func checkAppendIndex(t *testing.T, ax *AppendIndex, col workload.Column, q workload.RangeQuery) index.QueryStats {
	t.Helper()
	got, stats, err := ax.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
	if err != nil {
		t.Fatalf("%s query [%d,%d]: %v", ax.Name(), q.Lo, q.Hi, err)
	}
	want := workload.BruteForce(col, q)
	gp := got.Positions()
	if len(gp) != len(want) {
		t.Fatalf("%s query [%d,%d]: %d results, want %d", ax.Name(), q.Lo, q.Hi, len(gp), len(want))
	}
	for i := range want {
		if gp[i] != want[i] {
			t.Fatalf("%s query [%d,%d]: result %d = %d, want %d", ax.Name(), q.Lo, q.Hi, i, gp[i], want[i])
		}
	}
	return stats
}

func testAppendVariant(t *testing.T, buffered bool) {
	col := workload.Uniform(500, 32, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ax, err := BuildAppendIndex(d, col, AppendOptions{Buffered: buffered})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4000; i++ {
		ch := uint32(rng.Intn(32))
		if rng.Float64() < 0.3 {
			ch = uint32(rng.Intn(4)) // skew some characters to force rebuilds
		}
		appendAndCheck(t, ax, &col, ch)
		if i%500 == 499 {
			for _, q := range workload.RandomRanges(8, 32, 1+rng.Intn(16), int64(i)) {
				checkAppendIndex(t, ax, col, q)
			}
			checkAppendIndex(t, ax, col, workload.RangeQuery{Lo: 0, Hi: 31})
		}
	}
	if ax.Len() != int64(col.Len()) {
		t.Fatalf("Len = %d, want %d", ax.Len(), col.Len())
	}
	for _, q := range workload.RandomRanges(20, 32, 5, 99) {
		checkAppendIndex(t, ax, col, q)
	}
}

func TestSemiDynAppendAndQuery(t *testing.T)  { testAppendVariant(t, false) }
func TestBufferedAppendAndQuery(t *testing.T) { testAppendVariant(t, true) }

func TestAppendFromEmpty(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		col := workload.Column{Sigma: 16}
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ax, err := BuildAppendIndex(d, col, AppendOptions{Buffered: buffered})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			appendAndCheck(t, ax, &col, uint32(rng.Intn(16)))
		}
		for _, q := range workload.RandomRanges(20, 16, 4, 4) {
			checkAppendIndex(t, ax, col, q)
		}
	}
}

func TestAppendTriggersRebuilds(t *testing.T) {
	col := workload.Uniform(200, 16, 5)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ax, err := BuildAppendIndex(d, col, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer one character: its leaf must repeatedly violate weight balance.
	for i := 0; i < 2000; i++ {
		appendAndCheck(t, ax, &col, 7)
	}
	if ax.RebuildCount+ax.GlobalRebuildCount < 2 {
		t.Fatalf("no rebuilds after heavy skew (local %d, global %d)", ax.RebuildCount, ax.GlobalRebuildCount)
	}
	checkAppendIndex(t, ax, col, workload.RangeQuery{Lo: 7, Hi: 7})
	checkAppendIndex(t, ax, col, workload.RangeQuery{Lo: 0, Hi: 15})
	checkAppendIndex(t, ax, col, workload.RangeQuery{Lo: 8, Hi: 15})
}

// TestRebuildAllHeightAtPowerOfBranching: the global rebuild's target height
// is ⌈log_c(n+σ)⌉ by integer powers, as the subtree rebuild's and Theorem 7's.
// A float logarithm reads one too tall exactly at n+σ = c^k, and a skeleton
// built for the taller target splits its root in two instead of c.
func TestRebuildAllHeightAtPowerOfBranching(t *testing.T) {
	const c = 5
	for _, tc := range []struct{ n, sigma, height int }{{100, 25, 3}, {15000, 625, 6}} {
		if got := heightFor(int64(tc.n+tc.sigma), c); got != tc.height {
			t.Fatalf("heightFor(%d, %d) = %d, want %d", tc.n+tc.sigma, c, got, tc.height)
		}
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 4096})
		ax, err := BuildAppendIndex(d, workload.Uniform(tc.n, tc.sigma, 1), AppendOptions{Branching: c})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(ax.root.children); got != c {
			t.Errorf("n+σ = %d = %d^%d: root has %d children, want %d", tc.n+tc.sigma, c, tc.height, got, c)
		}
		if ax.height > tc.height {
			t.Errorf("n+σ = %d = %d^%d: skeleton height %d exceeds ⌈log_c(n+σ)⌉", tc.n+tc.sigma, c, tc.height, ax.height)
		}
	}
}

func TestSemiDynAppendCost(t *testing.T) {
	// Theorem 4: amortised O(lg lg n) I/Os per append. With lg lg n ~ 4-5,
	// the average should be a small constant.
	col := workload.Uniform(1000, 64, 6)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 4096})
	ax, err := BuildAppendIndex(d, col, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var total int64
	const appends = 20000
	for i := 0; i < appends; i++ {
		st, err := ax.Append(uint32(rng.Intn(64)))
		if err != nil {
			t.Fatal(err)
		}
		total += int64(st.Reads + st.Writes)
	}
	per := float64(total) / appends
	levels := float64(len(ax.depths))
	if per > 4*levels+4 {
		t.Fatalf("amortised append cost %.2f I/Os for %v materialised levels", per, levels)
	}
}

func TestBufferedAppendCheaperThanDirect(t *testing.T) {
	// Theorem 5 vs Theorem 4: buffering cuts amortised append I/Os.
	mk := func(buffered bool) float64 {
		col := workload.Uniform(1000, 64, 8)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
		ax, err := BuildAppendIndex(d, col, AppendOptions{Buffered: buffered})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		var total int64
		const appends = 20000
		for i := 0; i < appends; i++ {
			st, err := ax.Append(uint32(rng.Intn(64)))
			if err != nil {
				t.Fatal(err)
			}
			total += int64(st.Reads + st.Writes)
		}
		return float64(total) / appends
	}
	direct := mk(false)
	buffered := mk(true)
	if buffered >= direct {
		t.Fatalf("buffered appends (%.3f I/Os) not cheaper than direct (%.3f)", buffered, direct)
	}
}

func TestAppendErrors(t *testing.T) {
	col := workload.Uniform(10, 4, 10)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ax, err := BuildAppendIndex(d, col, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ax.Append(4); err == nil {
		t.Fatal("out-of-alphabet append accepted")
	}
	if _, _, err := ax.Query(index.Range{Lo: 2, Hi: 1}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := BuildAppendIndex(d, col, AppendOptions{Branching: 3}); err == nil {
		t.Fatal("c=3 accepted")
	}
}

func TestAppendComplementQueries(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		col := workload.Uniform(2000, 8, 11)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ax, err := BuildAppendIndex(d, col, AppendOptions{Buffered: buffered})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 500; i++ {
			appendAndCheck(t, ax, &col, uint32(rng.Intn(8)))
		}
		// Dense range triggers the complement path.
		checkAppendIndex(t, ax, col, workload.RangeQuery{Lo: 0, Hi: 6})
		checkAppendIndex(t, ax, col, workload.RangeQuery{Lo: 1, Hi: 7})
		checkAppendIndex(t, ax, col, workload.RangeQuery{Lo: 0, Hi: 7})
	}
}
