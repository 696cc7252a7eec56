package core

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

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
		for _, w := range []struct {
			name           string
			minLen, maxLen int
		}{{"scan-wide", 64, 192}, {"serve-overlap", 16, 16}} {
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
						sum += m.card
						largest = max(largest, m.card)
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
