package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/iomodel"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

// loadgenFlags are the serving-layer load-generator knobs (active with
// -loadgen). The generator builds a sharded index, replays a deterministic
// open-loop arrival stream through the discrete-event serving simulator at a
// sweep of offered loads, and prints one ServerStats row per load level.
type loadgenFlags struct {
	shards   int
	requests int
	rate     float64
	arrivals string
	burst    float64
	faults   int
	workers  int
	maxQueue int
	maxBatch int
	budget   time.Duration
	ansCache int64 // bytes; every load level starts with an empty cache
}

// runLoadgen drives the serving simulator over a sweep of offered loads and
// prints the resulting serving metrics as a table. Everything is seeded, so
// two runs with the same flags print identical tables.
func runLoadgen(col workload.Column, rangeLen int, seed int64, lf loadgenFlags) {
	var fc *iomodel.FaultConfig
	if lf.faults > 0 {
		fc = &iomodel.FaultConfig{Seed: seed, TransientPer10k: lf.faults, TransientCount: 3}
	}
	sx, err := shard.Build(col.X, col.Sigma, shard.Options{Shards: lf.shards, Faults: fc})
	if err != nil {
		fmt.Fprintln(os.Stderr, "build:", err)
		os.Exit(1)
	}
	cfg := serve.Config{
		MaxQueue: lf.maxQueue, MaxBatch: lf.maxBatch, Workers: lf.workers, AnswerCacheBytes: lf.ansCache,
		AllowPartial: true,
		Retry:        shard.RetryPolicy{MaxAttempts: 4, Backoff: 10 * time.Microsecond, JitterSeed: seed},
		Breaker:      serve.BreakerConfig{Threshold: 5, Cooldown: 2 * time.Millisecond},
	}
	spec := workload.ArrivalSpec{Sigma: col.Sigma, RangeLen: rangeLen, Theta: 1.1}

	fmt.Printf("loadgen: %s arrivals, %d requests/level, %d shards, %d workers, faults=%d/10k\n",
		lf.arrivals, lf.requests, lf.shards, lf.workers, lf.faults)
	fmt.Printf("%-10s %9s %7s %7s %7s %7s %8s %9s %9s %9s %9s %8s %8s  %s\n",
		"offered/s", "served/s", "shed%", "hit%", "degr%", "batch", "shared%", "p50", "p99", "p999", "max", "brkOpen", "reads", "idle/size/overlap/deadline/wait %")
	for _, mult := range []float64{0.5, 1, 2, 4} {
		rate := lf.rate * mult
		var arrivals []workload.Arrival
		if lf.arrivals == "mmpp" {
			arrivals = workload.MMPPArrivals(lf.requests, rate, rate*lf.burst, 20*time.Millisecond, spec, seed)
		} else {
			arrivals = workload.PoissonArrivals(lf.requests, rate, spec, seed)
		}
		sc := serve.SimConfig{Config: cfg, Budget: lf.budget}
		var arm serve.Armable
		if fc != nil {
			// Arm device faults over the middle third of the run.
			span := arrivals[len(arrivals)-1].At
			sc.ArmAt, sc.DisarmAt = span/3, 2*span/3
			arm = sx
		}
		res := serve.Simulate(serve.ShardBackend{Ix: sx}, arm, arrivals, sc)
		sx.DisarmFaults()
		st := res.Stats
		served := float64(st.Completed) / res.Makespan.Seconds()
		batch := 0.0
		if st.Batches > 0 {
			batch = float64(st.Admitted) / float64(st.Batches)
		}
		sharedPct := 0.0
		if st.Reads+st.SharedSaved > 0 {
			sharedPct = 100 * float64(st.SharedSaved) / float64(st.Reads+st.SharedSaved)
		}
		pct := func(flushes uint64) float64 { return 100 * float64(flushes) / max(1, float64(st.Batches)) }
		fmt.Printf("%-10.0f %9.0f %6.1f%% %6.1f%% %6.1f%% %7.1f %7.1f%% %9s %9s %9s %9s %8d %8d  %.0f/%.0f/%.0f/%.0f/%.0f\n",
			rate, served,
			100*float64(st.Shed)/float64(len(arrivals)),
			100*float64(st.CacheHits)/float64(len(arrivals)),
			100*float64(st.Degraded)/max(1, float64(st.Completed)),
			batch, sharedPct,
			fmtLat(st.LatencyP50), fmtLat(st.LatencyP99), fmtLat(st.LatencyP999), fmtLat(st.LatencyMax),
			st.BreakerOpens, st.Reads,
			pct(st.FlushIdle), pct(st.FlushSize), pct(st.FlushOverlap), pct(st.FlushDeadline), pct(st.FlushWait))
	}
}

func fmtLat(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}
