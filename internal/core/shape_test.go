package core

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// servedRanges are the range lengths, in keys, the two served benchmark
// workloads ask for.
var servedRanges = []struct {
	name           string
	minLen, maxLen int
}{{"scan-wide", 64, 192}, {"serve-overlap", 16, 16}}

var mergeShape = flag.Bool("core.shape", false, "print the merge shapes behind hypotheses/kernel-floor")

// TestMergeShape prints what one shard's decode-merge is handed by the two
// served workloads' kinds of range: how many gap streams, how many rows in
// all, and the share of them in the largest stream. The shard is a quarter
// of the benchmark's sharded column (2^20 rows, sigma 1024, zipf 1.0, four
// shards); scan-wide asks 64 to 192 keys anywhere, serve-overlap 16 keys.
func TestMergeShape(t *testing.T) {
	if !*mergeShape {
		t.Skip("needs -core.shape; see hypotheses/kernel-floor/run.sh")
	}
	for _, seed := range []int64{42, 123, 456} {
		col := workload.Zipf(1<<20, 1024, 1.0, seed)
		col.X = col.X[:1<<18]
		ox, err := BuildOptimal(iomodel.NewDisk(iomodel.Config{}), col, OptimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, w := range servedRanges {
			var streams, rows, top, density []float64
			for q := 0; q < 400; q++ {
				l := w.minLen + rng.Intn(w.maxLen-w.minLen+1)
				lo := rng.Intn(1024 - l + 1)
				plan, _, err := ox.PlanQuery(index.Range{Lo: uint32(lo), Hi: uint32(lo + l - 1)})
				if err != nil {
					t.Fatal(err)
				}
				var k, sum, largest int64
				for _, c := range plan.Chunks {
					for _, m := range ox.levels[c.Level].members[c.I:c.J] {
						k++
						sum += m.rows()
						largest = max(largest, m.rows())
					}
				}
				if sum == 0 {
					continue
				}
				streams = append(streams, float64(k))
				rows = append(rows, float64(sum))
				top = append(top, float64(largest)/float64(sum))
				density = append(density, float64(sum)/float64(len(col.X)))
			}
			med := func(v []float64) float64 { slices.Sort(v); return v[len(v)/2] }
			fmt.Printf("mergeshape seed=%d workload=%s queries=%d streams_p50=%.0f rows_p50=%.0f largest_share_p50=%.3f density_p50=%.4f\n",
				seed, w.name, len(streams), med(streams), med(rows), med(top), med(density))
		}
	}
}

var coverCensus = flag.Bool("core.census", false, "print the point-cover census behind hypotheses/ordered-concat")

// TestPointCoverCensus prints, for the column point-pread queries (2^19 rows,
// sigma 1024, zipf 1.0), how many exact members one key's cover has, and —
// keys grouped by member count — the rows per key and the time of Query(c, c)
// through the ordered concatenation beside the general merge of the same
// streams on an in-memory device. It then counts the ordered plans among the
// ranges the other two workloads ask (16 keys; 64 to 192 keys): the change's
// vanishing point, none.
func TestPointCoverCensus(t *testing.T) {
	if !*coverCensus {
		t.Skip("needs -core.census; see hypotheses/ordered-concat/run.sh")
	}
	const sigma = 1024
	for _, seed := range []int64{42, 123, 456} {
		col := workload.Zipf(1<<19, sigma, 1.0, seed)
		ox, err := BuildOptimal(iomodel.NewDisk(iomodel.Config{}), col, OptimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			r             index.Range
			members, rows int64
		}
		var keys []key
		for c := uint32(0); c < sigma; c++ {
			k := key{r: index.Range{Lo: c, Hi: c}}
			plan, _, err := ox.PlanQuery(k.r)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Ordered {
				continue // absent, or above n/2
			}
			for _, ch := range plan.Chunks {
				for _, m := range ox.levels[ch.Level].members[ch.I:ch.J] {
					k.members++
					k.rows += m.rows()
				}
			}
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b key) int { return int(a.members - b.members) })
		above8 := 0
		for _, k := range keys {
			if k.members > 8 {
				above8++
			}
		}
		fmt.Printf("census seed=%d ordered_keys=%d members_min=%d members_p50=%d members_max=%d keys_above_8=%d\n",
			seed, len(keys), keys[0].members, keys[len(keys)/2].members, keys[len(keys)-1].members, above8)

		// Time per query, keys in four groups of equal size by member count.
		timeOf := func(group []key, query func(index.Range) error) float64 {
			const rounds = 40
			best := 0.0
			for rep := 0; rep < 5; rep++ { // the least of five: this is one P of a shared box
				start := time.Now()
				for i := 0; i < rounds; i++ {
					for _, k := range group {
						if err := query(k.r); err != nil {
							t.Fatal(err)
						}
					}
				}
				if ns := float64(time.Since(start).Nanoseconds()) / float64(rounds*len(group)); rep == 0 || ns < best {
					best = ns
				}
			}
			return best
		}
		for g := 0; g < 4; g++ {
			group := keys[g*len(keys)/4 : (g+1)*len(keys)/4]
			var members, rows int64
			for _, k := range group {
				members += k.members
				rows += k.rows
			}
			general := timeOf(group, func(r index.Range) error { _, _, err := ox.QueryGeneralMerge(r); return err })
			ordered := timeOf(group, func(r index.Range) error { _, _, err := ox.Query(r); return err })
			fmt.Printf("census seed=%d group=%d members=%d-%d members_mean=%.1f rows_mean=%.0f general_ns=%.0f ordered_ns=%.0f ratio=%.2f\n",
				seed, g, group[0].members, group[len(group)-1].members, float64(members)/float64(len(group)),
				float64(rows)/float64(len(group)), general, ordered, general/ordered)
		}

		rng := rand.New(rand.NewSource(seed))
		for _, w := range servedRanges {
			orderedPlans := 0
			for q := 0; q < 400; q++ {
				l := w.minLen + rng.Intn(w.maxLen-w.minLen+1)
				lo := rng.Intn(sigma - l + 1)
				plan, _, err := ox.PlanQuery(index.Range{Lo: uint32(lo), Hi: uint32(lo + l - 1)})
				if err != nil {
					t.Fatal(err)
				}
				if plan.Ordered {
					orderedPlans++
				}
			}
			fmt.Printf("census seed=%d workload=%s ranges=400 ordered_plans=%d\n", seed, w.name, orderedPlans)
		}
	}
}
