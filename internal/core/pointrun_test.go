package core

import (
	"flag"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

var pointRunCensus = flag.Bool("core.pointrun", false, "print the point-run census behind hypotheses/point-run")

// TestPointRunCensus prints, for point-pread's column (n = 2^19, σ = 1024,
// zipf 1.0, seed 42), the members of each ordered point plan — per plan
// (mean, p50, p90, max) and per member (bits, rows) — and the share of
// members a concatenation re-encodes, those at another order than the one
// that codes most of the plan's bits (the kernel's vote counts the bits
// behind each head, which can differ on a near tie). It then times, in
// process and with the validation memo warm (a Freeze view), three groups of
// queries: keys of one member (of a sparse uniform column: point-pread has
// none), point-pread's keys of several, and 16-key ranges, which never plan
// an ordered merge — the vanishing point of hypotheses/point-run.
func TestPointRunCensus(t *testing.T) {
	if !*pointRunCensus {
		t.Skip("needs -core.pointrun; see hypotheses/point-run/run.sh")
	}
	const sigma = 1024
	// A read-only handle over col, whose validation memo fills.
	open := func(col workload.Column) *Optimal {
		d := iomodel.NewDisk(iomodel.Config{})
		built, err := BuildOptimal(d, col, OptimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ox := newOptimal(d.Freeze(), built.tree, built.opts)
		ox.layout, ox.aExt = built.layout, built.aExt
		for _, lv := range built.levels {
			ox.levels = append(ox.levels, newMatLevel(lv.depth, lv.members))
		}
		return ox
	}
	ox := open(workload.Zipf(1<<19, sigma, 1.0, 42))
	var perPlan []int
	var several []index.Range
	var bits, rows, members, recoded int64
	for c := uint32(0); c < sigma; c++ {
		r := index.Range{Lo: c, Hi: c}
		plan, _, err := ox.PlanQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Ordered {
			continue
		}
		var byOrder [64]int64
		var orders []uint8
		for _, ch := range plan.Chunks {
			for _, m := range ox.levels[ch.Level].members[ch.I:ch.J] {
				bits += m.ext.Bits
				rows += m.card
				byOrder[m.k] += m.ext.Bits
				orders = append(orders, m.k)
			}
		}
		vote := orders[0] // the order of most bits, the first on a tie
		for _, k := range orders {
			if byOrder[k] > byOrder[vote] {
				vote = k
			}
		}
		for _, k := range orders {
			if k != vote {
				recoded++
			}
		}
		members += int64(len(orders))
		perPlan = append(perPlan, len(orders))
		if len(orders) > 1 {
			several = append(several, r)
		}
	}
	slices.Sort(perPlan)
	fmt.Printf("pointrun plans=%d members_mean=%.1f p50=%d p90=%d max=%d bits_per_member=%.0f rows_per_member=%.1f recoded_pct=%.1f\n",
		len(perPlan), float64(members)/float64(len(perPlan)), perPlan[len(perPlan)/2], perPlan[len(perPlan)*9/10], perPlan[len(perPlan)-1],
		float64(bits)/float64(members), float64(rows)/float64(members), 100*float64(recoded)/float64(members))

	// Point-pread's keys all have several members; a sparse uniform column
	// (about 4 rows a key) gives keys of one.
	sparse := open(workload.Uniform(1<<17, 1<<15, 42))
	var one []index.Range
	for c := uint32(0); c < 1<<15 && len(one) < 1024; c++ {
		r := index.Range{Lo: c, Hi: c}
		plan, _, err := sparse.PlanQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Ordered && len(plan.Chunks) == 1 && plan.Chunks[0].J-plan.Chunks[0].I == 1 {
			one = append(one, r)
		}
	}

	var wide []index.Range
	for lo := uint32(0); lo+16 <= sigma; lo += 37 {
		wide = append(wide, index.Range{Lo: lo, Hi: lo + 15})
	}
	for _, g := range []struct {
		name string
		ox   *Optimal
		rs   []index.Range
	}{{"one-member", sparse, one}, {"several-members", ox, several}, {"16-key", ox, wide}} {
		query := func() {
			for _, r := range g.rs {
				if _, _, err := g.ox.Query(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		query() // fills the memo
		best := 0.0
		for rep := 0; rep < 5; rep++ { // the least of five: this is a shared box
			start := time.Now()
			for range 20 {
				query()
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(20*len(g.rs)); rep == 0 || ns < best {
				best = ns
			}
		}
		fmt.Printf("pointrun group=%s queries=%d ns_per_query=%.0f\n", g.name, len(g.rs), best)
	}
}
