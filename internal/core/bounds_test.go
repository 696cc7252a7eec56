package core

import (
	"testing"

	"repro/internal/entropy"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// TestTheoremConformance measures the constants Theorems 2 and 3 hide on
// small static indexes — n = 2^12…2^14 rows over σ = 256, uniform and zipf-1
// columns — and pins the largest ratio seen: the member bits a query reads
// over lg C(n,z) (QueryBitsBound) and the blocks it reads over
// z lg(n/z)/B + lg_b n + lg lg n (QueryBlocksBound), across ranges of 1 to
// 128 characters, the bits an approximate query answered from a hashed level
// reads over z lg(1/ε) (ApproxBitsBound) at ε = 1/4, 1/16 and 1/256, and the
// exact structure's SizeBits over nH₀ + n + σ lg²n (SpaceBitsBound), and the
// approximate index's over the same bound. A pin is
// the value measured when it was set plus a margin of 0.05 (the runs are
// seeded, so the margin only absorbs floating-point noise): a change that
// raises a constant fails here, and one that lowers it should lower the pin.
// The space counted is the payload and the member directory stream the
// metadata holds.
func TestTheoremConformance(t *testing.T) {
	const (
		sigma     = 256
		blockBits = 2048
		queryPin  = 3.24 // measured 3.186; 3.564 while leaves were gamma-coded, 4.173 while every member was
		blocksPin = 3.12 // measured 3.070; 3.113 while leaves were gamma-coded, 3.888 while planning read A and the structure blocks
		spacePin  = 2.03 // measured 1.972; 2.233 while the image held the blocked tree layout, 2.760 while leaves were gamma-coded and the image held A, 9.642 with 128-bit node records and a nominal 128-bit directory entry per member, 9.827 before that while every member was gamma-coded
		approxPin = 4.96 // measured 4.909; 7.409 while leaves and hashed sets were gamma-coded
		// approxSpacePin is the approximate kind's whole SizeBits, hashed sets
		// and their directory included, over the same space bound.
		approxSpacePin = 2.76 // measured 2.703; 2.737 while every reachable hashed set was stored, shorter than its exact member or not, 3.184 while the image held the blocked tree layout and the hashed directory was varints, 4.149 while every hashed set was stored, reachable by a query or not
	)
	var maxQuery, maxBlocks, maxSpace, maxApprox, maxApproxSpace float64
	for _, n := range []int{1 << 12, 1 << 13, 1 << 14} {
		for _, col := range []workload.Column{workload.Uniform(n, sigma, int64(n)), workload.Zipf(n, sigma, 1.0, int64(n))} {
			d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
			ax, err := BuildApprox(d, col, ApproxOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ox := ax.Optimal
			h0 := entropy.H0String(col.X, sigma)
			space := float64(ox.SizeBits()) / SpaceBitsBound(int64(n), sigma, h0)
			approxSpace := float64(ax.SizeBits()) / SpaceBitsBound(int64(n), sigma, h0)
			query, blocks, approx := 0.0, 0.0, 0.0
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
					for _, eps := range []float64{1.0 / 4, 1.0 / 16, 1.0 / 256} {
						res, st, err := ax.ApproxQuery(index.Range{Lo: q.Lo, Hi: q.Hi}, eps)
						if err != nil {
							t.Fatal(err)
						}
						if !res.IsExact() {
							approx = max(approx, float64(st.BitsRead)/ApproxBitsBound(z, eps))
						}
					}
				}
			}
			t.Logf("n = %d, H0 = %.2f: query bits %.3f x lg C(n,z), blocks %.3f x (z lg(n/z)/B + lg_b n + lg lg n), approximate bits %.3f x z lg(1/ε), space %.3f x (nH0 + n + σ lg²n), with the hashed sets %.3f x",
				n, h0, query, blocks, approx, space, approxSpace)
			maxQuery, maxBlocks, maxSpace, maxApprox = max(maxQuery, query), max(maxBlocks, blocks), max(maxSpace, space), max(maxApprox, approx)
			maxApproxSpace = max(maxApproxSpace, approxSpace)
		}
	}
	if maxQuery > queryPin {
		t.Errorf("a query read %.3f x lg C(n,z) bits, pinned at %.2f", maxQuery, queryPin)
	}
	if maxBlocks > blocksPin {
		t.Errorf("a query read %.3f x (z lg(n/z)/B + lg_b n + lg lg n) blocks, pinned at %.2f", maxBlocks, blocksPin)
	}
	if maxApprox > approxPin {
		t.Errorf("an approximate query read %.3f x z lg(1/ε) bits, pinned at %.2f", maxApprox, approxPin)
	}
	if maxApproxSpace > approxSpacePin {
		t.Errorf("an approximate index took %.3f x (nH0 + n + σ lg²n) bits, pinned at %.2f", maxApproxSpace, approxSpacePin)
	}
	if maxSpace > spacePin {
		t.Errorf("an index took %.3f x (nH0 + n + σ lg²n) bits, pinned at %.2f", maxSpace, spacePin)
	}
}
