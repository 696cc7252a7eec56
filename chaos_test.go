package secidx

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// The chaos differential harness: the same workload runs against a fault-free
// reference and a fault-injected twin, and every answer must be bit-identical
// once the retry layer has absorbed the (deterministic, seeded) transient
// faults. Across the harness's tests well over 1000 query ranges run —
// exact, approximate and batched, sharded and unsharded.

// chaosRanges derives a deterministic query workload.
func chaosRanges(n int, sigma uint32, seed int64) []Range {
	rng := rand.New(rand.NewSource(seed))
	rs := make([]Range, n)
	for i := range rs {
		lo := uint32(rng.Intn(int(sigma)))
		hi := lo + uint32(rng.Intn(int(sigma-lo)))
		rs[i] = Range{Lo: lo, Hi: hi}
	}
	return rs
}

func rowsOf(t *testing.T, r *Result) []int64 {
	t.Helper()
	if r == nil {
		t.Fatal("nil result")
	}
	return r.Rows()
}

// runShardedChaos runs singles+batches against ref and chaos and asserts
// bit-identical answers; it returns the chaos run's aggregated stats.
func runShardedChaos(t *testing.T, ref, chaos *ShardedIndex, singles, batches []Range, batchSize int) Stats {
	t.Helper()
	ctx := context.Background()
	qo := QueryOptions{Retry: RetryPolicy{MaxAttempts: 64}}
	var total Stats
	for _, r := range singles {
		want, _, err := ref.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatalf("reference query [%d,%d]: %v", r.Lo, r.Hi, err)
		}
		got, st, report, err := chaos.QueryExec(ctx, r.Lo, r.Hi, qo)
		if err != nil {
			t.Fatalf("chaos query [%d,%d]: %v", r.Lo, r.Hi, err)
		}
		if report != nil {
			t.Fatalf("chaos query [%d,%d]: unexpected partial report %v", r.Lo, r.Hi, report)
		}
		if !slices.Equal(rowsOf(t, got), rowsOf(t, want)) {
			t.Fatalf("chaos query [%d,%d]: rows differ from fault-free run", r.Lo, r.Hi)
		}
		total.FailedReads += st.FailedReads
		total.RetriedReads += st.RetriedReads
	}
	for off := 0; off+batchSize <= len(batches); off += batchSize {
		b := batches[off : off+batchSize]
		want, _, err := ref.QueryBatch(b)
		if err != nil {
			t.Fatalf("reference batch: %v", err)
		}
		got, st, report, err := chaos.QueryBatchExec(ctx, b, qo)
		if err != nil {
			t.Fatalf("chaos batch: %v", err)
		}
		if report != nil {
			t.Fatalf("chaos batch: unexpected partial report %v", report)
		}
		for i := range b {
			if !slices.Equal(rowsOf(t, got[i]), rowsOf(t, want[i])) {
				t.Fatalf("chaos batch range %d [%d,%d]: rows differ from fault-free run", i, b[i].Lo, b[i].Hi)
			}
		}
		total.FailedReads += st.FailedReads
		total.RetriedReads += st.RetriedReads
	}
	return total
}

// TestChaosDifferentialSharded runs the differential over a 4-shard index
// under seeded transient faults: every answer must match the fault-free
// reference bit for bit, and the retry counters must show the faults
// actually fired and were absorbed.
func TestChaosDifferentialSharded(t *testing.T) {
	const sigma = 64
	data := randColumn(20000, sigma, 71)
	ref, err := BuildSharded(data, sigma, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The per-shard devices hold only a handful of blocks, so the per-block
	// fault probability is high to make some blocks of every shard faulty.
	chaos, err := BuildSharded(data, sigma, ShardOptions{
		Shards:  4,
		Options: Options{Faults: &FaultConfig{Seed: 99, TransientPer10k: 4000, TransientCount: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos.ArmFaults()
	singles := chaosRanges(200, sigma, 5)
	batches := chaosRanges(240, sigma, 6)
	st := runShardedChaos(t, ref, chaos, singles, batches, 8)
	if st.FailedReads == 0 {
		t.Fatal("chaos run reported zero failed reads: faults never fired")
	}
	if st.RetriedReads == 0 {
		t.Fatal("chaos run reported zero retried reads: the retry layer never re-issued")
	}
	if ds := chaos.DeviceStats(); ds.FailedReads == 0 {
		t.Fatal("device counters report zero failed reads")
	}
}

// TestChaosDifferentialUnsharded runs the same differential without
// sharding (one shard: one device, no fan-out merge).
func TestChaosDifferentialUnsharded(t *testing.T) {
	const sigma = 64
	data := randColumn(16000, sigma, 72)
	ref, err := BuildSharded(data, sigma, ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := BuildSharded(data, sigma, ShardOptions{
		Shards:  1,
		Options: Options{Faults: &FaultConfig{Seed: 17, TransientPer10k: 4000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos.ArmFaults()
	singles := chaosRanges(150, sigma, 7)
	batches := chaosRanges(160, sigma, 8)
	st := runShardedChaos(t, ref, chaos, singles, batches, 8)
	if st.FailedReads == 0 {
		t.Fatal("chaos run reported zero failed reads: faults never fired")
	}
	if st.RetriedReads == 0 {
		t.Fatal("chaos run reported zero retried reads")
	}
}

// TestChaosDifferentialApprox runs exact and approximate queries on one
// fault-injected device through the core structure directly, retrying
// transient faults by re-issuing the whole query: candidate sets must match
// the fault-free twin exactly (the hash functions share a seed, so even the
// false positives are the same rows).
func TestChaosDifferentialApprox(t *testing.T) {
	const sigma = 64
	data := randColumn(12000, sigma, 73)
	col := workload.Column{X: data, Sigma: sigma}
	axOpts := core.ApproxOptions{Seed: 12345}
	ref, err := core.BuildApprox(iomodel.NewDisk(iomodel.Config{}), col, axOpts)
	if err != nil {
		t.Fatal(err)
	}
	fd := iomodel.NewDisk(iomodel.Config{Faults: &iomodel.FaultConfig{Seed: 3, TransientPer10k: 3000}})
	chaos, err := core.BuildApprox(fd, col, axOpts)
	if err != nil {
		t.Fatal(err)
	}
	fd.ArmFaults()
	ctx := context.Background()
	var failed, retried int
	retry := func(op func() (index.QueryStats, error)) {
		t.Helper()
		for attempt := 1; ; attempt++ {
			st, err := op()
			failed += st.FailedReads
			if err == nil {
				return
			}
			if attempt >= 64 || !errors.Is(err, iomodel.ErrTransientRead) {
				t.Fatalf("chaos attempt %d: %v", attempt, err)
			}
			retried++
		}
	}
	for qi, r := range chaosRanges(250, sigma, 9) {
		ir := index.Range{Lo: r.Lo, Hi: r.Hi}
		wantBm, _, err := ref.QueryContext(ctx, ir)
		if err != nil {
			t.Fatal(err)
		}
		var gotRows []int64
		retry(func() (index.QueryStats, error) {
			bm, st, err := chaos.QueryContext(ctx, ir)
			if err != nil {
				return st, err
			}
			gotRows = bm.Positions()
			return st, nil
		})
		if !slices.Equal(gotRows, wantBm.Positions()) {
			t.Fatalf("exact query %d [%d,%d]: rows differ", qi, r.Lo, r.Hi)
		}

		wantRes, _, err := ref.ApproxQueryContext(ctx, ir, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		wantCand, err := wantRes.Candidates()
		if err != nil {
			t.Fatal(err)
		}
		var gotCand []int64
		retry(func() (index.QueryStats, error) {
			res, st, err := chaos.ApproxQueryContext(ctx, ir, 0.1)
			if err != nil {
				return st, err
			}
			cand, err := res.Candidates()
			if err != nil {
				return st, err
			}
			gotCand = cand.Positions()
			return st, nil
		})
		if !slices.Equal(gotCand, wantCand.Positions()) {
			t.Fatalf("approx query %d [%d,%d]: candidate sets differ", qi, r.Lo, r.Hi)
		}
	}
	if failed == 0 {
		t.Fatal("chaos run reported zero failed reads: faults never fired")
	}
	if retried == 0 {
		t.Fatal("chaos run never retried")
	}
}
