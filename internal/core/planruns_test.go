package core

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// coverChunksPerNode is the planner before member runs: one chunk per cover
// node, each with its own level lookup and directory search. It is the oracle
// coverChunks is held to: the same members in the same order, and downstream
// the same answers and stats.
func (ox *Optimal) coverChunksPerNode(qlo, qhi int64, plan *QueryPlan) error {
	if qlo >= qhi {
		return nil
	}
	for _, v := range ox.tree.Cover(qlo, qhi) {
		li := ox.levelFor(v.Depth)
		i, j, err := ox.levels[li].chunk(v.Start, v.End)
		if err != nil {
			return err
		}
		plan.Chunks = append(plan.Chunks, PlanChunk{Level: li, I: i, J: j})
	}
	return nil
}

// withPerNodePlanner runs f with every plan — Query's, ApproxQuery's and
// Answer's — made by the per-node oracle.
func withPerNodePlanner(f func()) {
	coverPlanner = (*Optimal).coverChunksPerNode
	defer func() { coverPlanner = (*Optimal).coverChunks }()
	f()
}

// planMembers counts the members a plan reads.
func planMembers(plan QueryPlan) (m int) {
	for _, c := range plan.Chunks {
		m += c.J - c.I
	}
	return m
}

// planQuiet plans r through PlanQuery and fails unless planning read
// nothing: zero stats, and the device's counters where they were.
func planQuiet(t *testing.T, ox *Optimal, r index.Range) QueryPlan {
	t.Helper()
	before := ox.disk.Stats()
	plan, st, err := ox.PlanQuery(r)
	if err != nil {
		t.Fatalf("plan %v: %v", r, err)
	}
	if after := ox.disk.Stats(); st != (index.QueryStats{}) || after != before {
		t.Fatalf("plan %v: stats %+v, device stats %+v → %+v", r, st, before, after)
	}
	return plan
}

// planRunsCase is one fuzz input decoded: a column, the index shape and the
// ranges to plan.
type planRunsCase struct {
	col    workload.Column
	opts   ApproxOptions
	bb     int
	ranges []index.Range
	eps    []float64
	seed   int64
}

func decodePlanRuns(data []byte) (planRunsCase, bool) {
	if len(data) < 8 {
		return planRunsCase{}, false
	}
	n := 16 + int(data[0])*8 // 16..2056 rows
	sigma := 2 + int(data[1])%200
	seed := int64(data[3])
	var col workload.Column
	switch data[2] % 4 {
	case 0:
		col = workload.Uniform(n, sigma, seed)
	case 1:
		col = workload.Zipf(n, sigma, 0.5+float64(data[2]>>2)/16, seed)
	case 2:
		col = workload.Runs(n, sigma, 1+float64(data[2]>>2), seed)
	default:
		col = workload.Sorted(n, sigma)
	}
	c := planRunsCase{
		col:  col,
		opts: ApproxOptions{OptimalOptions: OptimalOptions{Branching: 5 + int(data[4])%8, Stride: 1 + int(data[5])%3}, Seed: seed},
		bb:   128 << (data[6] % 5),
		seed: int64(data[7]),
	}
	s := uint32(sigma)
	// The whole alphabet (a complement with both sides empty), a prefix and a
	// suffix (one side empty when dense), and every key's point query.
	c.ranges = append(c.ranges, index.Range{Lo: 0, Hi: s - 1}, index.Range{Lo: 0, Hi: s * 2 / 3}, index.Range{Lo: s / 3, Hi: s - 1})
	for k := uint32(0); k < s; k++ {
		c.ranges = append(c.ranges, index.Range{Lo: k, Hi: k})
	}
	rest := data[8:]
	for i := 0; i+1 < len(rest); i += 2 {
		lo := uint32(rest[i]) % s
		c.ranges = append(c.ranges, index.Range{Lo: lo, Hi: lo + uint32(rest[i+1])%(s-lo)})
	}
	for i := range c.ranges {
		c.eps = append(c.eps, 1/float64(2+int(data[(i+8)%len(data)])%200))
	}
	return c, true
}

// FuzzPlanRuns holds the run planner to the per-node oracle over
// fuzzer-chosen columns (σ, n, skew), branching, stride, block size and
// ranges, complement and empty sides included: the same expanded members in
// the same order, in maximal runs, with no read under either planner; and
// Query, ApproxQuery and Answer answering with the same bitmaps and stats
// as under the oracle, on a clean device and — FailedReads included — on a
// fault-injecting one. Corruption stays off: a flipped bit surfaces only in
// the first read that covers its block, so a coalesced read may rightly see
// a flip that the per-node read of the neighbouring extent never did.
func FuzzPlanRuns(f *testing.F) {
	f.Add([]byte{200, 30, 1, 7, 3, 1, 1, 9, 0, 5, 3, 9, 10, 200})
	f.Add([]byte{255, 199, 5, 1, 0, 0, 0, 3, 100, 3, 20, 20})
	f.Add([]byte{90, 12, 2, 42, 7, 2, 4, 1, 0, 255, 4, 4, 6, 1})
	f.Add([]byte{30, 3, 3, 0, 1, 1, 2, 8})
	f.Add([]byte{250, 64, 9, 5, 2, 0, 3, 77, 8, 40, 33, 1, 60, 60})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodePlanRuns(data)
		if !ok {
			return
		}
		build := func(d *iomodel.Disk) *Approx {
			ax, err := BuildApprox(d, c.col, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			return ax
		}
		faults := iomodel.FaultConfig{Seed: c.seed, TransientPer10k: 1500, TransientCount: 1, PermanentPer10k: 150}
		runsDisk := iomodel.NewDisk(iomodel.Config{BlockBits: c.bb, Faults: &faults})
		nodeDisk := iomodel.NewDisk(iomodel.Config{BlockBits: c.bb, Faults: &faults})
		ax, oracle := build(runsDisk), build(nodeDisk)

		for _, r := range c.ranges {
			plan := planQuiet(t, ax.Optimal, r)
			var want QueryPlan
			withPerNodePlanner(func() { want = planQuiet(t, ax.Optimal, r) })
			if !slices.Equal(ax.ExactMembers(plan), ax.ExactMembers(want)) || plan.Complement != want.Complement || plan.Ordered != want.Ordered {
				t.Fatalf("range %v: runs %+v and per-node %+v plan different members", r, plan, want)
			}
			for k := 1; k < len(plan.Chunks); k++ {
				if p, q := plan.Chunks[k-1], plan.Chunks[k]; p.Level == q.Level && p.J == q.I {
					t.Fatalf("range %v: chunks %+v and %+v are one run", r, p, q)
				}
			}
		}

		// The executors under both planners: on the clean device every stat is
		// equal; once faults fire, a failed attempt leaves BitsRead partial at
		// chunk granularity, so the counts compared are the reads.
		for _, armed := range []bool{false, true} {
			if armed {
				runsDisk.ArmFaults()
				nodeDisk.ArmFaults()
			}
			same := func(what string, r index.Range, got, want index.QueryStats, gerr, werr error) bool {
				t.Helper()
				if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
					t.Fatalf("%s %v: error %v, per-node %v", what, r, gerr, werr)
				}
				if gerr != nil {
					got.BitsRead, want.BitsRead = 0, 0
				}
				if got != want {
					t.Fatalf("%s %v: stats %+v, per-node %+v", what, r, got, want)
				}
				return gerr == nil
			}
			second := ax
			if armed {
				second = oracle // its fault schedule has seen exactly ax's reads
			}
			for i, r := range c.ranges {
				got, gst, gerr := ax.Query(r)
				var want *cbitmap.Bitmap
				var wst index.QueryStats
				var werr error
				withPerNodePlanner(func() { want, wst, werr = second.Query(r) })
				if same("Query", r, gst, wst, gerr, werr) && !cbitmap.Equal(got, want) {
					t.Fatalf("Query %v: answers differ", r)
				}

				ares, ast, aerr := ax.ApproxQuery(r, c.eps[i])
				var wres *Result
				withPerNodePlanner(func() { wres, wst, werr = second.ApproxQuery(r, c.eps[i]) })
				if same("ApproxQuery", r, ast, wst, aerr, werr) {
					if ares.IsExact() != wres.IsExact() || ares.J != wres.J ||
						(ares.IsExact() && !cbitmap.Equal(ares.Exact, wres.Exact)) || (!ares.IsExact() && !cbitmap.Equal(ares.Set, wres.Set)) {
						t.Fatalf("ApproxQuery %v eps %g: answers differ (j %d vs %d)", r, c.eps[i], ares.J, wres.J)
					}
				}
			}
			got, gst, gerr := answerBatch(ax.Optimal, c.ranges)
			var want []*cbitmap.Bitmap
			var wst index.QueryStats
			var werr error
			withPerNodePlanner(func() { want, wst, werr = answerBatch(second.Optimal, c.ranges) })
			if same("Answer", index.Range{}, gst, wst, gerr, werr) {
				for i := range got {
					if !cbitmap.Equal(got[i], want[i]) {
						t.Fatalf("Answer range %v: answers differ", c.ranges[i])
					}
				}
			}
		}
	})
}

var runCensus = flag.Bool("core.runs", false, "print the member-run census behind hypotheses/member-runs")

// TestMemberRunCensus prints, under the run planner and the per-node oracle,
// the chunks a plan holds over the same members: for every key of the column
// point-pread queries (2^19 rows, sigma 1024, zipf 1.0), and for 400 of
// scan-wide's 64-to-192-key ranges on one of its shards (the first quarter of
// 2^20 rows). It then times PlanQuery and Query on an in-memory device under
// both planners: keys in four groups of equal size by member count, and the
// scan-wide ranges, where a query decodes tens of thousands of rows and the
// planning saved should vanish.
func TestMemberRunCensus(t *testing.T) {
	if !*runCensus {
		t.Skip("needs -core.runs; see hypotheses/member-runs/run.sh")
	}
	const sigma = 1024
	// timeOf is the least of five passes of rounds over rs, in ns per range.
	timeOf := func(rs []index.Range, rounds int, do func(index.Range) error) float64 {
		best := 0.0
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < rounds; i++ {
				for _, r := range rs {
					if err := do(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(rounds*len(rs)); rep == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	// both times do under the oracle and under the run planner.
	both := func(rs []index.Range, rounds int, do func(index.Range) error) (perNode, runs float64) {
		withPerNodePlanner(func() { perNode = timeOf(rs, rounds, do) })
		return perNode, timeOf(rs, rounds, do)
	}
	plan := func(ox *Optimal) func(index.Range) error {
		return func(r index.Range) error { _, _, err := ox.PlanQuery(r); return err }
	}
	query := func(ox *Optimal) func(index.Range) error {
		return func(r index.Range) error { _, _, err := ox.Query(r); return err }
	}
	// shape plans r under both planners and returns the chunk counts, the
	// members and the levels the run plan touches.
	shape := func(ox *Optimal, r index.Range) (perNode, runs, members, levels int) {
		var want QueryPlan
		var err error
		withPerNodePlanner(func() { want, _, err = ox.PlanQuery(r) })
		got, _, gerr := ox.PlanQuery(r)
		if err != nil || gerr != nil {
			t.Fatal(err, gerr)
		}
		if !slices.Equal(ox.ExactMembers(got), ox.ExactMembers(want)) {
			t.Fatalf("range %v: the planners plan different members", r)
		}
		seen := map[int]bool{}
		for _, c := range got.Chunks {
			seen[c.Level] = true
		}
		return len(want.Chunks), len(got.Chunks), planMembers(got), len(seen)
	}
	for _, seed := range []int64{42, 123, 456} {
		ox, err := BuildOptimal(iomodel.NewDisk(iomodel.Config{}), workload.Zipf(1<<19, sigma, 1.0, seed), OptimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			r       index.Range
			members int
		}
		var keys []key
		var points []index.Range
		var perNode, runs, levels, members int
		for c := uint32(0); c < sigma; c++ {
			r := index.Range{Lo: c, Hi: c}
			if z := ox.tree.Count(c, c); z == 0 || z > ox.tree.n/2 {
				continue
			}
			pn, rn, m, l := shape(ox, r)
			perNode, runs, members, levels = perNode+pn, runs+rn, members+m, levels+l
			keys, points = append(keys, key{r, m}), append(points, r)
		}
		// The cover walk alone beside the whole run plan: what a cheaper walk
		// could save.
		var cover []*Node
		walk := timeOf(points, 40, func(r index.Range) error {
			lo, hi := ox.tree.RecordRange(r.Lo, r.Hi)
			cover = ox.tree.CoverAppend(cover[:0], lo, hi)
			return nil
		})
		k := float64(len(keys))
		fmt.Printf("runs seed=%d workload=point-pread keys=%d members=%.1f chunks_pernode=%.2f chunks_runs=%.2f levels_runs=%.2f walk_ns=%.0f plan_runs_ns=%.0f\n",
			seed, len(keys), float64(members)/k, float64(perNode)/k, float64(runs)/k, float64(levels)/k, walk, timeOf(points, 40, plan(ox)))
		slices.SortFunc(keys, func(a, b key) int { return a.members - b.members })
		for g := 0; g < 4; g++ {
			group := keys[g*len(keys)/4 : (g+1)*len(keys)/4]
			rs := make([]index.Range, len(group))
			members = 0
			for i, k := range group {
				rs[i], members = k.r, members+k.members
			}
			planNode, planRuns := both(rs, 40, plan(ox))
			queryNode, queryRuns := both(rs, 40, query(ox))
			fmt.Printf("runs seed=%d group=%d members=%d-%d members_mean=%.1f plan_pernode_ns=%.0f plan_runs_ns=%.0f query_pernode_ns=%.0f query_runs_ns=%.0f\n",
				seed, g, group[0].members, group[len(group)-1].members, float64(members)/float64(len(group)),
				planNode, planRuns, queryNode, queryRuns)
		}

		col := workload.Zipf(1<<20, sigma, 1.0, seed)
		col.X = col.X[:1<<18]
		shard, err := BuildOptimal(iomodel.NewDisk(iomodel.Config{}), col, OptimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		rs := make([]index.Range, 400)
		perNode, runs, members, levels = 0, 0, 0, 0
		for i := range rs {
			l := 64 + rng.Intn(129)
			lo := rng.Intn(sigma - l + 1)
			rs[i] = index.Range{Lo: uint32(lo), Hi: uint32(lo + l - 1)}
			pn, rn, m, lv := shape(shard, rs[i])
			perNode, runs, members, levels = perNode+pn, runs+rn, members+m, levels+lv
		}
		planNode, planRuns := both(rs, 2, plan(shard))
		queryNode, queryRuns := both(rs[:100], 1, query(shard))
		fmt.Printf("runs seed=%d workload=scan-wide ranges=%d members=%.1f chunks_pernode=%.2f chunks_runs=%.2f levels_runs=%.2f plan_pernode_ns=%.0f plan_runs_ns=%.0f query_pernode_ns=%.0f query_runs_ns=%.0f\n",
			seed, len(rs), float64(members)/400, float64(perNode)/400, float64(runs)/400, float64(levels)/400,
			planNode, planRuns, queryNode, queryRuns)
	}
}
