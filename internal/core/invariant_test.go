package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/iomodel"
	"repro/internal/workload"
)

// TestOptimalFrontierTiling checks the invariant the query algorithm lives
// on: for EVERY tree node u (any potential cover subtree), the members of
// u's materialised level tile u's record range exactly — one contiguous
// chunk, no gaps, no overlap.
func TestOptimalFrontierTiling(t *testing.T) {
	for _, tc := range []struct {
		name   string
		col    workload.Column
		stride int
	}{
		{"uniform-s2", workload.Uniform(6000, 64, 1), 2},
		{"uniform-s1", workload.Uniform(6000, 64, 1), 1},
		{"zipf", workload.Zipf(6000, 256, 1.2, 2), 2},
		{"runs", workload.Runs(6000, 32, 25, 3), 2},
		{"heavy-char", workload.Column{X: heavySkew(4000), Sigma: 16}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
			ix, err := BuildOptimal(d, tc.col, OptimalOptions{Stride: tc.stride})
			if err != nil {
				t.Fatal(err)
			}
			ix.tree.preorder(func(v Node, _ bool) {
				lv := &ix.levels[ix.levelFor(v.Depth)]
				i, j, err := lv.chunk(v.Start, v.End)
				if err != nil {
					t.Fatalf("node %+v: %v", v, err)
				}
				// The chunk must be internally contiguous.
				for k := i + 1; k < j; k++ {
					if lv.members[k].start != lv.members[k-1].end {
						t.Fatalf("node %+v: member gap at chunk index %d", v, k)
					}
				}
			})
		})
	}
}

// heavySkew builds a column where one character holds half the positions —
// the case the paper handles by alphabet expansion and our record-splitting
// construction handles by splitting the character across subtrees.
func heavySkew(n int) []uint32 {
	x := make([]uint32, n)
	for i := range x {
		if i%2 == 0 {
			x[i] = 7
		} else {
			x[i] = uint32(i % 16)
		}
	}
	return x
}

// checkSkeletonTiling fails unless every node of sk — any potential cover
// subtree — is tiled exactly by the tiles of its materialised level.
func checkSkeletonTiling[T charSpan](t *testing.T, label string, sk *charSkeleton, levels [][]T) {
	t.Helper()
	for _, v := range sk.scan(nil, sk.root) {
		li := sk.levelForDepth(v.depth)
		if _, _, err := tilesWithin(levels[li], li, v.lo, v.hi); err != nil {
			t.Fatalf("%s: node depth %d chars [%d,%d]: %v", label, v.depth, v.lo, v.hi, err)
		}
	}
}

// TestAppendIndexFrontierTiling checks the same invariant for the
// character-granularity skeleton under both kinds that embed it, including
// after rebuilds.
func TestAppendIndexFrontierTiling(t *testing.T) {
	col := workload.Uniform(500, 64, 4)
	t.Run("append", func(t *testing.T) {
		ax, err := BuildAppendIndex(iomodel.NewDisk(iomodel.Config{BlockBits: 1024}), col, AppendOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkSkeletonTiling(t, "initial", &ax.charSkeleton, ax.levels)
		// Skewed appends trigger subtree rebuilds; the invariant must survive.
		for i := 0; i < 3000; i++ {
			if _, err := ax.Append(uint32(i % 5)); err != nil {
				t.Fatal(err)
			}
		}
		checkSkeletonTiling(t, "after skewed appends", &ax.charSkeleton, ax.levels)
		if ax.RebuildCount+ax.GlobalRebuildCount == 0 {
			t.Fatal("expected rebuilds from skewed appends")
		}
	})
	t.Run("dynamic", func(t *testing.T) {
		dx, err := BuildDynamic(iomodel.NewDisk(iomodel.Config{BlockBits: 4096}), col, DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkSkeletonTiling(t, "initial", &dx.charSkeleton, dx.members)
		built := dx.GlobalRebuildCount
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 900; i++ {
			pos := rng.Int63n(dx.n)
			switch i % 3 {
			case 0:
				if dx.ValidateChange(pos, uint32(i%5)) == nil { // a deleted row stays deleted
					_, err = dx.Change(pos, uint32(i%5))
				}
			case 1:
				_, err = dx.Delete(pos)
			case 2:
				_, err = dx.Append(uint32(i % 5))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if dx.GlobalRebuildCount == built {
			t.Fatal("expected a global rebuild from 900 updates over 500 rows")
		}
		checkSkeletonTiling(t, "after churn", &dx.charSkeleton, dx.members)
	})
}

// pointMembers counts the tiles under the cover of the one character c.
func pointMembers[T charSpan](t *testing.T, sk *charSkeleton, levels [][]T, c uint32) int {
	t.Helper()
	n := 0
	for _, u := range sk.cover(c, c, nil) {
		li := sk.levelForDepth(u.depth)
		i, j, err := tilesWithin(levels[li], li, u.lo, u.hi)
		if err != nil {
			t.Fatal(err)
		}
		n += j - i
	}
	return n
}

// TestOneCharacterOneMember is the census behind ordered = false in the
// character-tree kinds' merges: the cover of one character is one leaf and a
// leaf is one member, so a point query has nothing to concatenate — unlike
// the static index, whose record-granularity tree splits a character across
// members (QueryPlan.Ordered).
func TestOneCharacterOneMember(t *testing.T) {
	const sigma = 256
	col := workload.Zipf(4000, sigma, 1.2, 7)
	appends := workload.Zipf(20000, sigma, 1.2, 8).X
	census := func(t *testing.T, members func(c uint32) int) {
		t.Helper()
		for c := uint32(0); c < sigma; c++ {
			if got := members(c); got != 1 {
				t.Fatalf("character %d: %d members, want 1", c, got)
			}
		}
	}
	for _, buffered := range []bool{false, true} {
		t.Run(fmt.Sprintf("append/buffered=%v", buffered), func(t *testing.T) {
			ax, err := BuildAppendIndex(iomodel.NewDisk(iomodel.Config{BlockBits: 4096}), col, AppendOptions{Buffered: buffered})
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range appends {
				if _, err := ax.Append(ch); err != nil {
					t.Fatal(err)
				}
			}
			census(t, func(c uint32) int { return pointMembers(t, &ax.charSkeleton, ax.levels, c) })
		})
	}
	t.Run("dynamic", func(t *testing.T) {
		dx, err := BuildDynamic(iomodel.NewDisk(iomodel.Config{BlockBits: 4096}), col, DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range appends {
			if _, err := dx.Append(ch); err != nil {
				t.Fatal(err)
			}
		}
		census(t, func(c uint32) int { return pointMembers(t, &dx.charSkeleton, dx.members, c) })
	})
	t.Run("warmup", func(t *testing.T) {
		wx, err := BuildWarmup(iomodel.NewDisk(iomodel.Config{BlockBits: 4096}), col)
		if err != nil {
			t.Fatal(err)
		}
		census(t, func(c uint32) int {
			var plan QueryPlan
			wx.cover(&plan, int64(c), int64(c))
			n := 0
			for _, ch := range plan.Chunks {
				n += ch.J - ch.I
			}
			return n
		})
	})
}

// TestOptimalLargeScale is a soak test at a realistic size (skipped with
// -short): n = 2^19, σ = 2^12.
func TestOptimalLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	col := workload.Zipf(1<<19, 1<<12, 0.9, 5)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 32768})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.RandomRanges(20, 1<<12, 64, 6) {
		checkIndexAgainstBrute(t, ix, col, q)
	}
	checkIndexAgainstBrute(t, ix, col, workload.RangeQuery{Lo: 0, Hi: 1<<12 - 1})
}
