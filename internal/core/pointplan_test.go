package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/shard"
	"repro/internal/workload"
)

// pointPlanColumns returns a zipf-1 and a uniform column over sigma keys,
// each with its last key emptied and three rows in five moved to key 1,
// which then holds more than half the rows: an absent key, whose plan has
// no chunks, and a complement plan beside the ordinary ones.
func pointPlanColumns(n, sigma int) map[string]workload.Column {
	cols := map[string]workload.Column{
		"zipf-1.0": workload.Zipf(n, sigma, 1.0, int64(n)),
		"uniform":  workload.Uniform(n, sigma, int64(n)),
	}
	for _, col := range cols {
		for i, x := range col.X {
			switch {
			case i%5 < 3:
				col.X[i] = 1
			case int(x) == sigma-1:
				col.X[i] = 0
			}
		}
	}
	return cols
}

// samePlan reports whether two plans read the same member runs the same way.
func samePlan(a, b core.QueryPlan) bool {
	return a.Complement == b.Complement && a.Ordered == b.Ordered && slices.Equal(a.Chunks, b.Chunks)
}

// checkKeptPlan fails unless ox keeps a plan for key c equal to PlanQuery's,
// which plans afresh.
func checkKeptPlan(t *testing.T, what string, ox *core.Optimal, c uint32) {
	t.Helper()
	kept, ok := ox.KeptPointPlan(c)
	if !ok {
		t.Fatalf("%s: no plan kept after a point query", what)
	}
	want, _, err := ox.PlanQuery(index.Range{Lo: c, Hi: c})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !samePlan(kept, want) {
		t.Fatalf("%s: kept plan %+v, PlanQuery %+v", what, kept, want)
	}
}

// TestPointPlansMemoized: for every key of a zipf-1 and a uniform index, built
// and reopened from a pread file, and of each shard of a 3-shard index over
// the same column, no plan is kept before the key is asked for; the first
// point query keeps the plan PlanQuery makes; and the answers and QueryStats
// with the slot cold and warm are equal, and are the column's rows.
func TestPointPlansMemoized(t *testing.T) {
	const n, sigma = 1 << 14, 256
	opts := core.ApproxOptions{Seed: 48}
	cfg := iomodel.Config{BlockBits: 2048}
	for dist, col := range pointPlanColumns(n, sigma) {
		d := iomodel.NewDisk(cfg)
		built, err := core.BuildApprox(d, col, opts)
		if err != nil {
			t.Fatal(err)
		}
		handles := map[string]*core.Approx{
			"built":    built,
			"reopened": fileBacked(t, d, built, opts, iomodel.ModePread),
		}
		sharded, err := shard.Build(col.X, sigma, shard.Options{Shards: 3, BlockBits: cfg.BlockBits})
		if err != nil {
			t.Fatal(err)
		}
		parts := sharded.Parts()
		var absent, complemented int
		for c := uint32(0); c < sigma; c++ {
			r := index.Range{Lo: c, Hi: c}
			rows := workload.BruteForce(col, workload.RangeQuery{Lo: c, Hi: c})
			switch {
			case len(rows) == 0:
				absent++
			case len(rows) > n/2:
				complemented++
			}
			for name, ax := range handles {
				what := fmt.Sprintf("%s %s key %d", dist, name, c)
				if _, ok := ax.KeptPointPlan(c); ok {
					t.Fatalf("%s: a plan kept before any point query", what)
				}
				cold, cst, err := ax.Query(r)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				checkKeptPlan(t, what, ax.Optimal, c)
				warm, wst, err := ax.Query(r)
				if err != nil {
					t.Fatalf("%s warm: %v", what, err)
				}
				if !bytes.Equal(encoded(cold), encoded(warm)) || cold.Order() != warm.Order() || cst != wst {
					t.Fatalf("%s: warm answer or stats %+v differ from cold %+v", what, wst, cst)
				}
				if got := cold.Positions(); !slices.Equal(got, rows) && len(got)+len(rows) > 0 {
					t.Fatalf("%s: %d rows, want %d", what, len(got), len(rows))
				}
			}
			what := fmt.Sprintf("%s sharded key %d", dist, c)
			for i, p := range parts {
				if _, ok := p.Ax.KeptPointPlan(c); ok {
					t.Fatalf("%s shard %d: a plan kept before any point query", what, i)
				}
			}
			cold, cst, _, err := sharded.QueryExec(context.Background(), r, shard.ExecOptions{})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for i, p := range parts {
				checkKeptPlan(t, fmt.Sprintf("%s shard %d", what, i), p.Ax.Optimal, c)
			}
			warm, wst, _, err := sharded.QueryExec(context.Background(), r, shard.ExecOptions{})
			if err != nil {
				t.Fatalf("%s warm: %v", what, err)
			}
			if !bytes.Equal(encoded(cold), encoded(warm)) || cst != wst {
				t.Fatalf("%s: warm answer or stats %+v differ from cold %+v", what, wst, cst)
			}
			if got := cold.Positions(); !slices.Equal(got, rows) && len(got)+len(rows) > 0 {
				t.Fatalf("%s: %d rows, want %d", what, len(got), len(rows))
			}
		}
		if absent == 0 || complemented == 0 {
			t.Fatalf("%s: %d absent keys, %d above n/2: a case is missing", dist, absent, complemented)
		}
	}
}

// TestPointPlansConcurrent: goroutines ask one reopened handle for every key
// at once, each in its own order, so cold slots are filled by racing
// queries; every answer is the column's rows, and every kept plan is
// PlanQuery's.
func TestPointPlansConcurrent(t *testing.T) {
	const n, sigma, workers = 1 << 13, 128, 4
	opts := core.ApproxOptions{Seed: 48}
	col := pointPlanColumns(n, sigma)["zipf-1.0"]
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	built, err := core.BuildApprox(d, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	ax := fileBacked(t, d, built, opts, iomodel.ModePread)
	want := make([][]int64, sigma)
	for c := range want {
		want[c] = workload.BruteForce(col, workload.RangeQuery{Lo: uint32(c), Hi: uint32(c)})
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := rand.New(rand.NewSource(int64(w))).Perm(sigma)
			for round := range 2 {
				for _, c := range keys {
					got, _, err := ax.Query(index.Range{Lo: uint32(c), Hi: uint32(c)})
					if err == nil && !slices.Equal(got.Positions(), want[c]) && got.Card()+int64(len(want[c])) > 0 {
						err = fmt.Errorf("round %d key %d: %d rows, want %d", round, c, got.Card(), len(want[c]))
					}
					if err != nil {
						errs <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := range uint32(sigma) {
		checkKeptPlan(t, fmt.Sprintf("key %d", c), ax.Optimal, c)
	}
}
