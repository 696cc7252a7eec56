package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/workload"
)

// S1ShardScaling measures the sharded concurrent query engine: the column is
// cut into contiguous row-range shards, each on its own simulated disk (the
// Aggarwal–Vitter view of parallel I/O as independent devices), and a batch
// workload is fanned out through a bounded worker pool.
//
// Reported per (shards × workers) configuration: build wall time, cold batch
// throughput and its total block reads (the I/O-model cost; with S
// independent devices the critical path is ~1/S of it), then the same batch
// replayed against an identical index with a per-shard LRU block cache —
// warm throughput, residual block reads and the cache hit rate.
//
// Wall-clock columns (build ms, qps) vary with the host; the block-I/O
// columns are exact model counts, deterministic run to run (the warm pass
// runs single-worker, since LRU recency order under a concurrent pool
// depends on completion order), and carry the scaling claim: total reads
// stay roughly flat across shard counts (every shard reads its own cover
// runs) but the critical path — the busiest single device, "crit reads" —
// falls, and the warm pass's residual reads collapse once the caches hold
// the hot superblocks.
func S1ShardScaling(s Scale) (*Table, error) {
	n := s.pick(1<<15, 1<<17)
	sigma := 256
	nq := s.pick(48, 192)
	col := workload.Uniform(n, sigma, 151)
	rqs := workload.RandomRanges(nq, sigma, 16, 157)
	batch := make([]index.Range, 0, nq+nq/4)
	for _, q := range rqs {
		batch = append(batch, index.Range{Lo: q.Lo, Hi: q.Hi})
	}
	for i := 0; i < nq/4; i++ { // realistic traffic repeats hot queries
		batch = append(batch, batch[i*3%nq])
	}
	t := &Table{
		ID:    "S1",
		Title: "sharded query engine: shards × workers vs throughput and block I/Os",
		Note: fmt.Sprintf("n = %d, σ = %d, batch of %d range queries (ℓ = 16, 20%% repeats); "+
			"warm = same batch replayed on a cache-enabled twin (%d blocks/shard, single worker "+
			"so I/O columns are reproducible)", n, sigma, len(batch), cacheBlocksS1),
		Header: []string{"shards", "workers", "build ms", "cold qps", "cold block reads", "crit reads", "warm qps", "warm block reads", "cache hit%"},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			row, err := s1Row(col, batch, shards, workers)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

const cacheBlocksS1 = 128

func s1Row(col workload.Column, batch []index.Range, shards, workers int) ([]string, error) {
	opts := shard.Options{
		Shards:    shards,
		Workers:   workers,
		BlockBits: blockBits,
	}
	t0 := time.Now()
	cold, err := shard.Build(col.X, col.Sigma, opts)
	if err != nil {
		return nil, err
	}
	buildMS := time.Since(t0)
	cold.ResetDeviceStats()
	t0 = time.Now()
	if _, _, _, err := cold.QueryBatchExec(context.Background(), batch, shard.ExecOptions{}); err != nil {
		return nil, err
	}
	coldDur := time.Since(t0)
	coldReads := cold.DeviceStats().BlockReads
	var critReads int64
	for _, st := range cold.PerShardStats() {
		if st.BlockReads > critReads {
			critReads = st.BlockReads
		}
	}

	opts.CacheBlocks = cacheBlocksS1
	// The warm pass measures I/O, not throughput: with multiple workers the
	// LRU recency order depends on task completion order, so the warm twin
	// runs single-worker to keep every I/O column reproducible run to run.
	opts.Workers = 1
	warm, err := shard.Build(col.X, col.Sigma, opts)
	if err != nil {
		return nil, err
	}
	if _, _, _, err := warm.QueryBatchExec(context.Background(), batch, shard.ExecOptions{}); err != nil { // fill the caches
		return nil, err
	}
	warm.ResetDeviceStats()
	t0 = time.Now()
	if _, _, _, err := warm.QueryBatchExec(context.Background(), batch, shard.ExecOptions{}); err != nil {
		return nil, err
	}
	warmDur := time.Since(t0)
	ws := warm.DeviceStats()
	hitPct := 0.0
	if tot := ws.CacheHits + ws.CacheMisses; tot > 0 {
		hitPct = 100 * float64(ws.CacheHits) / float64(tot)
	}
	qps := func(d time.Duration) string {
		return fmt.Sprintf("%.0f", float64(len(batch))/d.Seconds())
	}
	return []string{
		fmt.Sprint(shards),
		fmt.Sprint(workers),
		fmt.Sprintf("%.0f", float64(buildMS.Microseconds())/1000),
		qps(coldDur),
		fmt.Sprint(coldReads),
		fmt.Sprint(critReads),
		qps(warmDur),
		fmt.Sprint(ws.BlockReads),
		fmt.Sprintf("%.0f", hitPct),
	}, nil
}
