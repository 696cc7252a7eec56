package core

import (
	"math/rand"
	"testing"

	"repro/internal/entropy"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

func checkIndexAgainstBrute(t *testing.T, ix index.Index, col workload.Column, q workload.RangeQuery) index.QueryStats {
	t.Helper()
	got, stats, err := ix.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
	if err != nil {
		t.Fatalf("%s query [%d,%d]: %v", ix.Name(), q.Lo, q.Hi, err)
	}
	want := workload.BruteForce(col, q)
	gp := got.Positions()
	if len(gp) != len(want) {
		t.Fatalf("%s query [%d,%d]: %d results, want %d", ix.Name(), q.Lo, q.Hi, len(gp), len(want))
	}
	for i := range want {
		if gp[i] != want[i] {
			t.Fatalf("%s query [%d,%d]: result %d = %d, want %d", ix.Name(), q.Lo, q.Hi, i, gp[i], want[i])
		}
	}
	return stats
}

func TestOptimalCorrectnessExhaustiveSmall(t *testing.T) {
	col := workload.Uniform(1500, 16, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 16; lo++ {
		for hi := lo; hi < 16; hi++ {
			checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: uint32(lo), Hi: uint32(hi)})
		}
	}
}

func TestOptimalCorrectnessDistributions(t *testing.T) {
	for _, tc := range []struct {
		name string
		col  workload.Column
	}{
		{"uniform", workload.Uniform(8000, 128, 2)},
		{"zipf1.2", workload.Zipf(8000, 128, 1.2, 3)},
		{"runs", workload.Runs(8000, 64, 30, 4)},
		{"markov", workload.Markov(8000, 64, 0.9, 5)},
		{"sorted", workload.Sorted(8000, 100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
			ix, err := BuildOptimalDefault(d, tc.col)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range workload.RandomRanges(40, tc.col.Sigma, 1+tc.col.Sigma/8, 6) {
				checkIndexAgainstBrute(t, ix, tc.col, q)
			}
			// Full range and point queries.
			checkIndexAgainstBrute(t, ix, tc.col, workload.RangeQuery{Lo: 0, Hi: uint32(tc.col.Sigma - 1)})
			checkIndexAgainstBrute(t, ix, tc.col, workload.RangeQuery{Lo: 0, Hi: 0})
			checkIndexAgainstBrute(t, ix, tc.col, workload.RangeQuery{Lo: uint32(tc.col.Sigma - 1), Hi: uint32(tc.col.Sigma - 1)})
		})
	}
}

func TestOptimalDenseAnswerUsesComplement(t *testing.T) {
	col := workload.Uniform(4000, 8, 7)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	// Range covering 7 of 8 characters: z ~ 7n/8 > n/2.
	stats := checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: 0, Hi: 6})
	// The complement trick reads the bitmaps for the single missing
	// character, which is far smaller than the direct answer: the bits the
	// range's own cover would read.
	tc := d.NewTouch()
	defer tc.Close()
	var direct QueryPlan
	qlo, qhi := ix.tree.RecordRange(0, 6)
	if err := ix.planCover(tc, qlo, qhi, &direct); err != nil {
		t.Fatal(err)
	}
	var directBits int64
	for _, c := range direct.Chunks {
		directBits += spanOf(ix.exactDir(c.Level), c.I, c.J).Bits
	}
	if stats.BitsRead >= directBits {
		t.Fatalf("complement trick did not reduce bits read: %d vs %d", stats.BitsRead, directBits)
	}
}

func TestOptimalStrides(t *testing.T) {
	col := workload.Zipf(6000, 64, 0.8, 8)
	for _, stride := range []int{1, 2, 4} {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ix, err := BuildOptimal(d, col, OptimalOptions{Stride: stride})
		if err != nil {
			t.Fatalf("stride %d: %v", stride, err)
		}
		for _, q := range workload.RandomRanges(25, 64, 9, int64(stride)) {
			checkIndexAgainstBrute(t, ix, col, q)
		}
	}
}

func TestOptimalBranchingSweep(t *testing.T) {
	col := workload.Uniform(5000, 64, 9)
	for _, c := range []int{5, 8, 16} {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ix, err := BuildOptimal(d, col, OptimalOptions{Branching: c})
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		for _, q := range workload.RandomRanges(25, 64, 13, int64(c)) {
			checkIndexAgainstBrute(t, ix, col, q)
		}
	}
}

func TestOptimalSpaceTracksEntropy(t *testing.T) {
	// Theorem 2: bitmap payload is O(nH0 + n). Sweep Zipf skew and check
	// payload bits per character decrease with H0 and stay within a
	// constant factor band of (H0 + 1).
	n := 1 << 14
	for _, theta := range []float64{0, 1.0, 2.0} {
		col := workload.Zipf(n, 256, theta, 10)
		h0 := entropy.H0String(col.X, col.Sigma)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 4096})
		ix, err := BuildOptimalDefault(d, col)
		if err != nil {
			t.Fatal(err)
		}
		perChar := float64(ix.BitmapBits()) / float64(n)
		if perChar > 16*(h0+1) {
			t.Fatalf("theta=%v: %.1f bits/char vs H0=%.2f — constant factor too large", theta, perChar, h0)
		}
	}
}

func TestOptimalBitsReadNearOutputBound(t *testing.T) {
	// Theorem 2: bits read are O(z lg(n/z)), i.e., within a constant factor
	// of the compressed answer size.
	col := workload.Uniform(1<<15, 256, 11)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	for _, ell := range []int{4, 16, 64} {
		for _, q := range workload.RandomRanges(5, 256, ell, int64(ell)) {
			got, stats, err := ix.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
			if err != nil {
				t.Fatal(err)
			}
			z := got.Card()
			if z == 0 {
				continue
			}
			bound := entropy.AnswerBound(int64(col.Len()), z)
			if float64(stats.BitsRead) > 32*bound+float64(8*d.BlockBits()) {
				t.Fatalf("ell=%d z=%d: read %d bits, answer bound %.0f", ell, z, stats.BitsRead, bound)
			}
		}
	}
}

func TestOptimalIOsIncludeSearchTerm(t *testing.T) {
	// Even a tiny answer costs some I/Os (tree search + per-level waste),
	// but far fewer than reading a flat bitmap level.
	col := workload.Uniform(1<<16, 512, 12)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 4096})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := ix.Query(index.Range{Lo: 100, Hi: 100})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reads == 0 {
		t.Fatal("point query charged no I/Os")
	}
	// Search term is O(lg_b n + lg lg n + cover-chunks): generous cap.
	if stats.Reads > 200 {
		t.Fatalf("point query reads = %d", stats.Reads)
	}
}

func TestOptimalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		n := 200 + rng.Intn(5000)
		sigma := 2 + rng.Intn(256)
		var col workload.Column
		switch trial % 3 {
		case 0:
			col = workload.Uniform(n, sigma, int64(trial))
		case 1:
			col = workload.Zipf(n, sigma, rng.Float64()*2, int64(trial))
		default:
			col = workload.Runs(n, sigma, 1+rng.Float64()*20, int64(trial))
		}
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 512 << uint(rng.Intn(3))})
		ix, err := BuildOptimalDefault(d, col)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.RandomRanges(15, sigma, 1+rng.Intn(sigma), int64(trial*31)) {
			checkIndexAgainstBrute(t, ix, col, q)
		}
	}
}

func TestOptimalSingleCharacterString(t *testing.T) {
	col := workload.Column{X: []uint32{5, 5, 5, 5, 5, 5}, Sigma: 8}
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: 5, Hi: 5})
	checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: 0, Hi: 4})
	checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: 0, Hi: 7})
}

func TestOptimalInvalidQueries(t *testing.T) {
	col := workload.Uniform(100, 8, 14)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Query(index.Range{Lo: 3, Hi: 2}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, _, err := ix.Query(index.Range{Lo: 0, Hi: 8}); err == nil {
		t.Fatal("out-of-alphabet range accepted")
	}
}

func TestMaterialDepths(t *testing.T) {
	got := materialDepths(9, 2)
	want := []int{1, 2, 4, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	got = materialDepths(3, 1)
	want = []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("stride 1: got %v", got)
	}
	got = materialDepths(1, 2)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("height 1: got %v", got)
	}
}
