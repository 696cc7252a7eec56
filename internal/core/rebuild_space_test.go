package core

import (
	"math/rand"
	"testing"

	"repro/internal/iomodel"
	"repro/internal/workload"
)

// TestRebuildsGiveBackBlocks: a global rebuild frees the blocks of the
// structure it replaces, so the device space in use stays within a constant
// of what the index accounts for, however many rebuilds run: Theorem 7's
// under changes and deletes within 1.05× (its SizeBits counts every
// structure on the device, the position translator included, and reads
// 0.91–0.93 of the space in use), the buffered append index's under appends
// within 1.5×.
func TestRebuildsGiveBackBlocks(t *testing.T) {
	check := func(t *testing.T, d *iomodel.Disk, rebuilds int, size int64, bound float64) {
		t.Helper()
		if used := d.UsedBits(); float64(used) > bound*float64(size) {
			t.Fatalf("after %d global rebuilds: device holds %d bits in use, index accounts for %d (bound %.2fx)", rebuilds, used, size, bound)
		}
	}
	t.Run("dynamic", func(t *testing.T) {
		const n, sigma = 1 << 12, 64
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 4096})
		dx, err := BuildDynamic(d, workload.Uniform(n, sigma, 11), DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, d, dx.GlobalRebuildCount, dx.SizeBits(), 1.05)
		rng := rand.New(rand.NewSource(12))
		for seen := dx.GlobalRebuildCount; dx.GlobalRebuildCount < 9; {
			i := rng.Int63n(n)
			if rng.Intn(8) == 0 {
				_, err = dx.Delete(i)
			} else if dx.ValidateChange(i, 0) == nil {
				_, err = dx.Change(i, uint32(rng.Intn(sigma)))
			}
			if err != nil {
				t.Fatal(err)
			}
			if dx.GlobalRebuildCount != seen {
				seen = dx.GlobalRebuildCount
				check(t, d, seen, dx.SizeBits(), 1.05)
			}
		}
	})
	t.Run("append-buffered", func(t *testing.T) {
		const sigma = 64
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 4096})
		ax, err := BuildAppendIndex(d, workload.Uniform(1<<10, sigma, 13), AppendOptions{Buffered: true})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(14))
		for seen := ax.GlobalRebuildCount; ax.GlobalRebuildCount < 5; {
			if _, err := ax.Append(uint32(rng.Intn(sigma))); err != nil {
				t.Fatal(err)
			}
			if ax.GlobalRebuildCount != seen {
				seen = ax.GlobalRebuildCount
				check(t, d, seen, ax.SizeBits(), 1.5)
			}
		}
	})
}
