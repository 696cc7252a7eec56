package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// queryConcurrently starts readers on snap, a clone of an index holding the
// column x, and returns the group they finish in. The expected answers are
// taken before the readers start, so the caller may go on mutating x.
func queryConcurrently(t *testing.T, snap index.Index, x []uint32, sigma int) *sync.WaitGroup {
	t.Helper()
	col := workload.Column{X: x, Sigma: sigma}
	ranges := []workload.RangeQuery{{Lo: 0, Hi: 0}, {Lo: 3, Hi: 11}, {Lo: 0, Hi: uint32(sigma - 2)}, {Lo: 20, Hi: uint32(sigma - 1)}}
	want := make([][]int64, len(ranges))
	for i, q := range ranges {
		want[i] = workload.BruteForce(col, q)
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range ranges {
				got, _, err := snap.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
				if err != nil {
					t.Errorf("%s clone query [%d,%d]: %v", snap.Name(), q.Lo, q.Hi, err)
				} else if !slices.Equal(got.Positions(), want[i]) {
					t.Errorf("%s clone query [%d,%d]: %d rows, want %d", snap.Name(), q.Lo, q.Hi, got.Card(), len(want[i]))
				}
			}
		}()
	}
	return &wg
}

// TestCloneReadOnlyConcurrentReaders: a clone is what readers query while the
// live index goes on rebuilding. Under -race it fails if the clone shares a
// skeleton node, a depth table or a member directory with the original; in
// any mode it fails if a later update shows through.
func TestCloneReadOnlyConcurrentReaders(t *testing.T) {
	const sigma = 32
	col := workload.Uniform(400, sigma, 5)
	t.Run("append-buffered", func(t *testing.T) {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ax, err := BuildAppendIndex(d, col, AppendOptions{Buffered: true})
		if err != nil {
			t.Fatal(err)
		}
		x := slices.Clone(col.X)
		for round := 0; round < 6; round++ {
			snap, err := ax.CloneReadOnly(d.Freeze())
			if err != nil {
				t.Fatal(err)
			}
			wg := queryConcurrently(t, snap, slices.Clone(x), sigma)
			for i := 0; i < 300; i++ { // skewed: subtree and global rebuilds
				ch := uint32(i % 3)
				if _, err := ax.Append(ch); err != nil {
					t.Fatal(err)
				}
				x = append(x, ch)
			}
			wg.Wait()
		}
		if ax.RebuildCount == 0 || ax.GlobalRebuildCount < 2 {
			t.Fatalf("expected subtree and global rebuilds behind the clones, got %d and %d", ax.RebuildCount, ax.GlobalRebuildCount)
		}
	})
	t.Run("dynamic", func(t *testing.T) {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 4096})
		dx, err := BuildDynamic(d, col, DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		x := slices.Clone(col.X)
		for round := 0; round < 4; round++ {
			wg := queryConcurrently(t, dx.CloneReadOnly(d.Freeze()), slices.Clone(x), sigma)
			for i := 0; i < 300; i++ {
				pos, ch := int64(i*7)%dx.n, uint32(i%3)
				switch {
				case i%3 == 0:
					_, err = dx.Append(ch)
					x = append(x, ch)
				case i%3 == 1 && x[pos] != sigma: // a deleted row stays deleted
					_, err = dx.Change(pos, ch)
					x[pos] = ch
				case i%3 == 2:
					_, err = dx.Delete(pos)
					x[pos] = sigma // outside every queried range
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
		}
		if dx.GlobalRebuildCount < 2 {
			t.Fatalf("expected a global rebuild behind the clones, got %d", dx.GlobalRebuildCount)
		}
	})
}
