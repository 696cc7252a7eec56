package core

import (
	"flag"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

var leafOrderCensus = flag.Bool("core.leaforder", false, "print the gap-code census behind hypotheses/leaf-order")

// TestLeafOrderCensus prints, for one point-pread-sized index (2^19 rows over
// σ = 1024) of each generator, what the exp-Golomb orders of the leaves and
// of the hashed sets save: bits per row of leaves (gamma, stored at their
// best orders, leaves left at order 0) and of the hashed sets (gamma, stored
// at hashedOrder's orders, at the spread order alone — hashedOrder unbounded
// by the member's — and at each set's best order), the exact bits a point
// query reads (stored against gamma) and how many approximate point queries
// at ε = 1/16 answer from a hashed level. runs and markov are the vanishing
// point: their gaps are mostly 1, so best order is 0 and nothing moves.
func TestLeafOrderCensus(t *testing.T) {
	if !*leafOrderCensus {
		t.Skip("needs -core.leaforder; see hypotheses/leaf-order/run.sh")
	}
	const n, sigma = 1 << 19, 1024
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
	for _, g := range gens {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 32768})
		ax, err := BuildApprox(d, g.col, ApproxOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		codes, err := ax.PayloadUnderCodes()
		if err != nil {
			t.Fatal(err)
		}
		var leaves, hashed CodeBits
		for _, l := range codes {
			leaves.Add(l.Leaves)
			for _, h := range l.Hashed {
				hashed.Add(h)
			}
		}
		spread := spreadOrderBits(t, ax)
		var pointStored, pointGamma float64
		hashedAnswers := 0
		for c := uint32(0); c < sigma; c++ {
			r := index.Range{Lo: c, Hi: c}
			plan, _, err := ax.PlanQuery(r)
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range plan.Chunks {
				for i := ch.I; i < ch.J; i++ {
					var c CodeBits
					tc := d.NewTouch()
					if err := priceStream(tc, &ax.levels[ch.Level], i, n, &c); err != nil {
						t.Fatal(err)
					}
					tc.Close()
					pointStored += float64(c.Stored)
					pointGamma += float64(c.Gamma)
				}
			}
			res, _, err := ax.ApproxQuery(r, 1.0/16)
			if err != nil {
				t.Fatal(err)
			}
			if !res.IsExact() {
				hashedAnswers++
			}
		}
		perRow := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/n) }
		fmt.Printf("leaforder gen=%s leaves_gamma=%s leaves_stored=%s leaves_k0=%d/%d hashed_gamma=%s hashed_stored=%s hashed_spread=%s hashed_best=%s point_gamma=%.0f point_stored=%.0f approx_hashed=%d/%d\n",
			g.name, perRow(leaves.Gamma), perRow(leaves.Stored), leaves.Orders[0], sum(leaves.Orders),
			perRow(hashed.Gamma), perRow(hashed.Stored), perRow(spread), perRow(hashed.BestK),
			pointGamma/sigma, pointStored/sigma, hashedAnswers, sigma)
	}
}

// spreadOrderBits returns what ax's hashed sets would take at the spread
// order alone: max(0, ⌊lg(2^lgU/card)⌋ − 1), whatever the member's order.
func spreadOrderBits(t *testing.T, ax *Approx) int64 {
	tc := ax.disk.NewTouch()
	defer tc.Close()
	var total int64
	for _, hl := range ax.hmaps {
		for j := range hl.perJ {
			arr := &hl.perJ[j]
			lgU := 1 << uint(j+1)
			for i := range arr.exts {
				ext, card, k := arr.entry(i)
				r, err := tc.Reader(ext)
				if err != nil {
					t.Fatal(err)
				}
				var s cbitmap.Stream
				if err := s.InitDecode(r, 0, r.Len(), card, int64(1)<<uint(lgU), 0, k); err != nil {
					t.Fatal(err)
				}
				ks := uint(0)
				if card > 0 {
					ks = uint(max(0, lgU-bits.Len64(uint64(card-1))-1))
				}
				prev := int64(-1)
				for p, ok := s.Next(); ok; p, ok = s.Next() {
					total += int64(gamma.LenK(uint64(p-prev), ks))
					prev = p
				}
			}
		}
	}
	return total
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}
