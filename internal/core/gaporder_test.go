package core

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

var gapOrderCensus = flag.Bool("core.gaporder", false, "print the gap-code census behind hypotheses/gap-order")

// TestGapOrderCensus prints, for one scan-wide-sized shard (2^18 rows over
// σ = 1024) of each generator, what the exp-Golomb orders of the internal
// members save against gamma-coding them: payload bits per row of internal
// members and of leaves, stored and gamma-coded, the share of internal
// members left at order 0, and the member bits a query reads, stored and
// gamma-coded, for 400 scan-wide ranges (64 to 192 characters) and for every
// point key. The clustered generators (runs, markov) are the vanishing point:
// their members' gaps are mostly 1, so best order is 0 and nothing moves.
func TestGapOrderCensus(t *testing.T) {
	if !*gapOrderCensus {
		t.Skip("needs -core.gaporder; see hypotheses/gap-order/run.sh")
	}
	const n, sigma = 1 << 18, 1024
	gens := []struct {
		name string
		col  workload.Column
	}{
		{"uniform", workload.Uniform(n, sigma, 42)},
		{"zipf-1.0", workload.Zipf(n, sigma, 1.0, 42)},
		{"zipf-2.0", workload.Zipf(n, sigma, 2.0, 42)},
		{"runs-64", workload.Runs(n, sigma, 64, 42)},
		{"markov-0.99", workload.Markov(n, sigma, 0.99, 42)},
	}
	rng := rand.New(rand.NewSource(42))
	var wide []index.Range
	for len(wide) < 400 {
		l := 64 + rng.Intn(129)
		lo := rng.Intn(sigma - l + 1)
		wide = append(wide, index.Range{Lo: uint32(lo), Hi: uint32(lo + l - 1)})
	}
	for _, g := range gens {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 4096})
		ox, err := BuildOptimal(d, g.col, OptimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Every member's gamma cost, read back from the device.
		tc := d.NewTouch()
		gammaOf := make([][]int64, len(ox.levels))
		var inStored, inGamma, leafStored, inMembers, inZero int64
		for li, lv := range ox.levels {
			for _, m := range lv.members {
				r, err := tc.Reader(m.ext)
				if err != nil {
					t.Fatal(err)
				}
				var s cbitmap.Stream
				if err := s.InitDecode(r, 0, r.Len(), m.rows(), ox.tree.n, 0, uint(m.k)); err != nil {
					t.Fatal(err)
				}
				bits, prev := int64(0), int64(-1)
				for p, ok := s.Next(); ok; p, ok = s.Next() {
					bits += int64(gamma.Len(uint64(p - prev)))
					prev = p
				}
				gammaOf[li] = append(gammaOf[li], bits)
				if m.internal {
					inStored, inGamma, inMembers = inStored+m.ext.Bits, inGamma+bits, inMembers+1
					if m.k == 0 {
						inZero++
					}
				} else {
					leafStored += m.ext.Bits
				}
			}
		}
		tc.Close()
		// The member bits a query plan reads, stored and gamma-coded.
		read := func(rs []index.Range) (stored, gammaBits float64) {
			for _, r := range rs {
				plan, _, err := ox.PlanQuery(r)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range plan.Chunks {
					for k := c.I; k < c.J; k++ {
						stored += float64(ox.levels[c.Level].members[k].ext.Bits)
						gammaBits += float64(gammaOf[c.Level][k])
					}
				}
			}
			return stored / float64(len(rs)), gammaBits / float64(len(rs))
		}
		var points []index.Range
		for c := uint32(0); c < sigma; c++ {
			points = append(points, index.Range{Lo: c, Hi: c})
		}
		ws, wg := read(wide)
		ps, pg := read(points)
		perRow := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/n) }
		fmt.Printf("gaporder gen=%s internal_gamma=%s internal_stored=%s leaves=%s internal_k0=%d/%d wide_gamma=%.0f wide_stored=%.0f wide_saved=%.3f point_gamma=%.0f point_stored=%.0f\n",
			g.name, perRow(inGamma), perRow(inStored), perRow(leafStored), inZero, inMembers,
			wg, ws, 1-ws/wg, pg, ps)
	}
}
