package core

import (
	"math/rand"
	"testing"

	"repro/internal/iomodel"
	"repro/internal/workload"
)

func TestWarmupCorrectnessExhaustive(t *testing.T) {
	col := workload.Uniform(1200, 16, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := BuildWarmup(d, col, WarmupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 16; lo++ {
		for hi := lo; hi < 16; hi++ {
			checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: uint32(lo), Hi: uint32(hi)})
		}
	}
}

func TestWarmupNonPowerOfTwoSigma(t *testing.T) {
	col := workload.Uniform(3000, 23, 2)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := BuildWarmup(d, col, WarmupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < 23; lo += 3 {
		for hi := lo; hi < 23; hi += 2 {
			checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: uint32(lo), Hi: uint32(hi)})
		}
	}
	checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: 0, Hi: 22})
}

func TestWarmupCoverShape(t *testing.T) {
	col := workload.Uniform(100, 64, 3)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := BuildWarmup(d, col, WarmupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for lo := int64(0); lo < 64; lo += 5 {
		for hi := lo; hi < 64; hi += 7 {
			var plan QueryPlan
			ix.cover(&plan, lo, hi)
			// At most 2 nodes per level.
			perLevel := map[int]int{}
			covered := map[int64]int{}
			for _, cn := range plan.Chunks {
				perLevel[cn.Level]++
				if perLevel[cn.Level] > 2 {
					t.Fatalf("[%d,%d]: %d nodes at level %d", lo, hi, perLevel[cn.Level], cn.Level)
				}
				width := ix.levels[cn.Level].width
				for c := int64(cn.I) * width; c < int64(cn.J)*width; c++ {
					covered[c]++
				}
			}
			for c := lo; c <= hi; c++ {
				if covered[c] != 1 {
					t.Fatalf("[%d,%d]: char %d covered %d times", lo, hi, c, covered[c])
				}
			}
			if int64(len(covered)) != hi-lo+1 {
				t.Fatalf("[%d,%d]: cover spills (%d chars)", lo, hi, len(covered))
			}
		}
	}
}

func TestWarmupComplementTrick(t *testing.T) {
	col := workload.Uniform(4000, 8, 4)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ix, err := BuildWarmup(d, col, WarmupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stats := checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: 1, Hi: 7})
	dNo := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ixNo, err := BuildWarmup(dNo, col, WarmupOptions{NoComplement: true})
	if err != nil {
		t.Fatal(err)
	}
	statsNo := checkIndexAgainstBrute(t, ixNo, col, workload.RangeQuery{Lo: 1, Hi: 7})
	if stats.BitsRead >= statsNo.BitsRead {
		t.Fatalf("complement trick did not reduce bits read: %d vs %d", stats.BitsRead, statsNo.BitsRead)
	}
}

func TestWarmupSpaceIsNLg2Sigma(t *testing.T) {
	// Space grows with lg²σ: doubling σ (at fixed n) increases space.
	n := 1 << 13
	var prev int64
	for _, sigma := range []int{16, 64, 256} {
		col := workload.Uniform(n, sigma, 5)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ix, err := BuildWarmup(d, col, WarmupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.SizeBits() <= prev {
			t.Fatalf("sigma=%d: size %d did not grow (prev %d)", sigma, ix.SizeBits(), prev)
		}
		prev = ix.SizeBits()
	}
}

func TestWarmupRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		n := 100 + rng.Intn(3000)
		sigma := 2 + rng.Intn(128)
		col := workload.Zipf(n, sigma, rng.Float64()*1.5, int64(trial))
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
		ix, err := BuildWarmup(d, col, WarmupOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range workload.RandomRanges(15, sigma, 1+rng.Intn(sigma), int64(trial*17)) {
			checkIndexAgainstBrute(t, ix, col, q)
		}
	}
}

func TestWarmupRejects(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	if _, err := BuildWarmup(d, workload.Column{Sigma: 4}, WarmupOptions{}); err == nil {
		t.Fatal("empty column accepted")
	}
	if _, err := BuildWarmup(d, workload.Column{X: []uint32{5}, Sigma: 4}, WarmupOptions{}); err == nil {
		t.Fatal("out-of-alphabet character accepted")
	}
}
