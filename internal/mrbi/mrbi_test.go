package mrbi

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

func checkAgainstBrute(t *testing.T, ix *Index, col workload.Column, q workload.RangeQuery) {
	t.Helper()
	got, _, err := ix.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
	if err != nil {
		t.Fatalf("query [%d,%d]: %v", q.Lo, q.Hi, err)
	}
	want := workload.BruteForce(col, q)
	gp := got.Positions()
	if len(gp) != len(want) {
		t.Fatalf("query [%d,%d]: %d results, want %d", q.Lo, q.Hi, len(gp), len(want))
	}
	for i := range want {
		if gp[i] != want[i] {
			t.Fatalf("query [%d,%d]: result %d = %d, want %d", q.Lo, q.Hi, i, gp[i], want[i])
		}
	}
}

func TestCorrectnessAllRanges(t *testing.T) {
	// Exhaustive over a small alphabet: every [lo,hi].
	col := workload.Uniform(2000, 16, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := Build(d, col, 2)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 16; lo++ {
		for hi := lo; hi < 16; hi++ {
			checkAgainstBrute(t, ix, col, workload.RangeQuery{Lo: uint32(lo), Hi: uint32(hi)})
		}
	}
}

func TestCorrectnessVariousW(t *testing.T) {
	col := workload.Zipf(3000, 100, 1.0, 2)
	for _, w := range []int{2, 4, 10} {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ix, err := Build(d, col, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.RandomRanges(40, 100, 17, int64(w)) {
			checkAgainstBrute(t, ix, col, q)
		}
	}
}

func TestCoverSize(t *testing.T) {
	col := workload.Uniform(1000, 256, 3)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ix, err := Build(d, col, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Cover of any range uses at most 2(w-1) bins per level.
	maxPerLevel := 2 * (4 - 1)
	for _, q := range workload.RandomRanges(200, 256, 100, 4) {
		refs := ix.cover(int64(q.Lo), int64(q.Hi))
		perLevel := map[int]int{}
		for _, ref := range refs {
			perLevel[ref.level]++
		}
		for l, c := range perLevel {
			if l < ix.Levels()-1 && c > maxPerLevel {
				t.Fatalf("query [%d,%d]: %d bins at level %d", q.Lo, q.Hi, c, l)
			}
		}
	}
}

func TestCoverDisjointComplete(t *testing.T) {
	col := workload.Uniform(100, 64, 5)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := Build(d, col, 2)
	if err != nil {
		t.Fatal(err)
	}
	for lo := int64(0); lo < 64; lo += 7 {
		for hi := lo; hi < 64; hi += 5 {
			covered := map[int64]int{}
			for _, ref := range ix.cover(lo, hi) {
				width := int64(1)
				for l := 0; l < ref.level; l++ {
					width *= 2
				}
				for c := ref.bin * width; c < (ref.bin+1)*width && c < 64; c++ {
					covered[c]++
				}
			}
			for c := lo; c <= hi; c++ {
				if covered[c] != 1 {
					t.Fatalf("range [%d,%d]: char %d covered %d times", lo, hi, c, covered[c])
				}
			}
			if int64(len(covered)) != hi-lo+1 {
				t.Fatalf("range [%d,%d]: cover spills outside", lo, hi)
			}
		}
	}
}

func TestSpaceGrowsWithLevels(t *testing.T) {
	// More levels (smaller w) = more space: w=2 should use more bits than
	// a flat bitmap index (level 0 alone).
	col := workload.Uniform(1<<14, 256, 6)
	d2 := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ixW2, err := Build(d2, col, 2)
	if err != nil {
		t.Fatal(err)
	}
	d16 := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ixW16, err := Build(d16, col, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ixW2.SizeBits() <= ixW16.SizeBits() {
		t.Fatalf("w=2 (%d bits) should use more space than w=16 (%d bits)",
			ixW2.SizeBits(), ixW16.SizeBits())
	}
	if ixW2.Levels() <= ixW16.Levels() {
		t.Fatalf("levels: w=2 %d, w=16 %d", ixW2.Levels(), ixW16.Levels())
	}
}

func TestFewerBitsReadThanFlatOnWideRanges(t *testing.T) {
	// The point of binning: a wide range reads coarse bins, far fewer bits
	// than the sum of per-character bitmaps.
	col := workload.Uniform(1<<15, 256, 7)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ix, err := Build(d, col, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := ix.Query(index.Range{Lo: 0, Hi: 255})
	if err != nil {
		t.Fatal(err)
	}
	// Full range = one coarsest bin (+ alignment), so bits read should be
	// about n*lg(n/n)=O(n) not n*lg(sigma).
	flatBits := int64(0)
	for _, e := range ix.levels[0].Exts {
		flatBits += e.Bits
	}
	if stats.BitsRead > flatBits/2 {
		t.Fatalf("full-range read %d bits, flat level is %d", stats.BitsRead, flatBits)
	}
}

func TestInvalid(t *testing.T) {
	col := workload.Uniform(100, 8, 8)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	if _, err := Build(d, col, 1); err == nil {
		t.Fatal("w=1 accepted")
	}
	ix, err := Build(d, col, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Query(index.Range{Lo: 3, Hi: 2}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestNonPowerSigma(t *testing.T) {
	// Sigma not a power of w: padding bins must not break queries.
	col := workload.Uniform(2000, 37, 9)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := Build(d, col, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.RandomRanges(50, 37, 9, 10) {
		checkAgainstBrute(t, ix, col, q)
	}
	checkAgainstBrute(t, ix, col, workload.RangeQuery{Lo: 0, Hi: 36})
}

func TestRandomizedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		n := 100 + rng.Intn(2000)
		sigma := 2 + rng.Intn(300)
		w := 2 + rng.Intn(6)
		col := workload.Markov(n, sigma, rng.Float64(), int64(trial))
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
		ix, err := Build(d, col, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.RandomRanges(10, sigma, 1+rng.Intn(sigma), int64(trial*7)) {
			checkAgainstBrute(t, ix, col, q)
		}
	}
}

// TestBinsEncodeTheirRows pins the bytes: bin b of level l is the
// FromPositions encoding of the rows whose characters it covers, placed right
// after bin b-1 (after the previous level's last bin for b = 0), whatever the
// alphabet leaves empty.
func TestBinsEncodeTheirRows(t *testing.T) {
	for _, tc := range []struct {
		col workload.Column
		w   int
	}{
		{workload.Uniform(3000, 16, 13), 2},
		{workload.Zipf(5000, 100, 1.6, 14), 4},
		{workload.Runs(4000, 37, 20, 15), 3},
		{workload.Uniform(50, 1, 16), 2},
	} {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
		ix, err := Build(d, tc.col, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		tch := d.NewTouch()
		next := int64(0)
		for l, lv := range ix.levels {
			for b, ext := range lv.Exts {
				var pos []int64
				for i, c := range tc.col.X {
					if int64(c)/lv.Width == int64(b) {
						pos = append(pos, int64(i))
					}
				}
				want := cbitmap.MustFromPositions(ix.n, pos)
				ww := bitio.NewWriter(want.SizeBits())
				want.EncodeTo(ww)
				rd, err := tch.Reader(ext)
				if err != nil {
					t.Fatal(err)
				}
				got := bitio.NewWriter(int(ext.Bits))
				if err := got.CopyBits(rd, int(ext.Bits)); err != nil {
					t.Fatal(err)
				}
				if ext.Off != next || lv.Cards[b] != want.Card() || ext.Bits != int64(want.SizeBits()) || !bytes.Equal(got.Bytes(), ww.Bytes()) {
					t.Fatalf("σ=%d w=%d level %d bin %d: extent %+v card %d, want offset %d, %d bits, card %d",
						tc.col.Sigma, tc.w, l, b, ext, lv.Cards[b], next, want.SizeBits(), want.Card())
				}
				next = ext.End()
			}
		}
		tch.Close()
	}
}
