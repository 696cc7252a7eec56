package core

import (
	"testing"

	"repro/internal/entropy"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// TestTheoremConformance measures the constants Theorem 2's O hides on small
// static indexes — n = 2^12…2^14 rows over σ = 256, uniform and zipf-1
// columns — and pins the largest ratio seen: the member bits a query reads
// over lg C(n,z) (QueryBitsBound) and the blocks it reads over
// z lg(n/z)/B + lg_b n + lg lg n (QueryBlocksBound), across ranges of 1 to
// 128 characters, and SizeBits over nH₀ + n + σ lg²n (SpaceBitsBound). A pin is the value
// measured when it was set plus a margin of 0.05 (the runs are seeded, so
// the margin only absorbs floating-point noise): a change that raises either
// constant fails here, and one that lowers it should lower the pin. The space
// counted is the payload, A and the blocked tree layout, whose node records
// are the member directory.
func TestTheoremConformance(t *testing.T) {
	const (
		sigma     = 256
		blockBits = 2048
		queryPin  = 3.61 // measured 3.564; 4.173 while every member was gamma-coded
		blocksPin = 3.16 // measured 3.113; 3.888 while planning read A and the structure blocks
		spacePin  = 2.81 // measured 2.760; 9.642 with 128-bit node records and a nominal 128-bit directory entry per member, 9.827 before that while every member was gamma-coded
	)
	var maxQuery, maxBlocks, maxSpace float64
	for _, n := range []int{1 << 12, 1 << 13, 1 << 14} {
		for _, col := range []workload.Column{workload.Uniform(n, sigma, int64(n)), workload.Zipf(n, sigma, 1.0, int64(n))} {
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ox, err := BuildOptimal(d, col, OptimalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h0 := entropy.H0String(col.X, sigma)
			space := float64(ox.SizeBits()) / SpaceBitsBound(int64(n), sigma, h0)
			query, blocks := 0.0, 0.0
			for _, length := range []int{1, 2, 8, 32, 128} {
				for _, q := range workload.RandomRanges(20, sigma, length, int64(length)) {
					_, st, err := ox.Query(index.Range{Lo: q.Lo, Hi: q.Hi})
					if err != nil {
						t.Fatal(err)
					}
					z := ox.tree.Count(q.Lo, q.Hi)
					if bound := QueryBitsBound(int64(n), z); bound > 0 {
						query = max(query, float64(st.BitsRead)/bound)
					}
					blocks = max(blocks, float64(st.Reads)/QueryBlocksBound(int64(n), z, blockBits))
				}
			}
			t.Logf("n = %d, H0 = %.2f: query bits %.3f x lg C(n,z), blocks %.3f x (z lg(n/z)/B + lg_b n + lg lg n), space %.3f x (nH0 + n + σ lg²n)",
				n, h0, query, blocks, space)
			maxQuery, maxBlocks, maxSpace = max(maxQuery, query), max(maxBlocks, blocks), max(maxSpace, space)
		}
	}
	if maxQuery > queryPin {
		t.Errorf("a query read %.3f x lg C(n,z) bits, pinned at %.2f", maxQuery, queryPin)
	}
	if maxBlocks > blocksPin {
		t.Errorf("a query read %.3f x (z lg(n/z)/B + lg_b n + lg lg n) blocks, pinned at %.2f", maxBlocks, blocksPin)
	}
	if maxSpace > spacePin {
		t.Errorf("an index took %.3f x (nH0 + n + σ lg²n) bits, pinned at %.2f", maxSpace, spacePin)
	}
}
