package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/shard"
	"repro/internal/workload"
)

func indexRange(ar workload.Arrival) index.Range { return index.Range{Lo: ar.Lo, Hi: ar.Hi} }

func simColumn(n, sigma int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint32, n)
	for i := range x {
		x[i] = uint32(rng.Intn(sigma))
	}
	return x
}

// simPair builds a fault-free oracle index and a fault-injected twin over
// the same column.
func simPair(t *testing.T, n, sigma, shards int, fc iomodel.FaultConfig) (ref, chaos *shard.Index) {
	return simPairAt(t, n, sigma, shards, 0, fc)
}

// simPairAt is simPair at shards of blockBits-bit blocks (0: the default).
func simPairAt(t *testing.T, n, sigma, shards, blockBits int, fc iomodel.FaultConfig) (ref, chaos *shard.Index) {
	t.Helper()
	data := simColumn(n, sigma, 41)
	ref, err := shard.Build(data, sigma, shard.Options{Shards: shards, BlockBits: blockBits})
	if err != nil {
		t.Fatal(err)
	}
	chaos, err = shard.Build(data, sigma, shard.Options{Shards: shards, BlockBits: blockBits, Faults: &fc})
	if err != nil {
		t.Fatal(err)
	}
	return ref, chaos
}

// saturatingSim is the shared overload scenario: a service model under which
// the tests' offered load of 60k queries/s is ~2x the serving capacity,
// whatever the index reads.
func saturatingSim(cfg Config) SimConfig {
	// Capacity: Workers=2 batches in flight, each taking BatchOverhead +
	// Reads·PerRead ≥ 0.5ms, the floor alone. With MaxBatch=8 that serves at
	// most 2·8/0.5ms = 32k queries/s; reads only lower it.
	return SimConfig{
		Config:  cfg,
		Service: ServiceModel{BatchOverhead: 500 * time.Microsecond, PerRead: 50 * time.Microsecond},
	}
}

// TestSimulateDeterministicSheds: two runs of the same seed produce
// bit-identical outcomes — same sheds at the same arrivals, same breaker
// counters, same latency quantiles — while faults fire: each run gets its own
// fresh chaos index at 4 096-bit blocks, since a run spends the per-block
// transient budgets and DisarmFaults does not restore them, and at the
// default block size every shard is one block that may draw no fault. A
// different seed produces a different shed pattern (the determinism is real,
// not vacuous).
func TestSimulateDeterministicSheds(t *testing.T) {
	cfg := Config{MaxQueue: 64, MaxBatch: 8, MaxWait: 300 * time.Microsecond, Workers: 2,
		Retry: shard.RetryPolicy{MaxAttempts: 4, Backoff: time.Microsecond, JitterSeed: 9}}
	sc := saturatingSim(cfg)
	sc.ArmAt = 10 * time.Millisecond
	spec := workload.ArrivalSpec{Sigma: 64, RangeLen: 8, Theta: 0.9}
	run := func(seed int64) SimResult {
		_, chaos := simPairAt(t, 6000, 64, 4, 4096, iomodel.FaultConfig{Seed: 5, TransientPer10k: 300})
		return Simulate(ShardBackend{Ix: chaos}, chaos, workload.PoissonArrivals(4000, 60000, spec, seed), sc)
	}
	a, b := run(21), run(21)

	if a.Stats.Shed == 0 {
		t.Fatalf("2x-saturation run shed nothing: %+v", a.Stats)
	}
	if a.Stats.RetriedReads == 0 && a.Stats.FailedReads == 0 {
		t.Fatalf("no read met a fault, so the runs prove nothing about faults: %+v", a.Stats)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("makespan differs: %v vs %v", a.Makespan, b.Makespan)
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i], b.Outcomes[i]
		if x.Shed != y.Shed || x.Expired != y.Expired || x.Latency != y.Latency ||
			x.Batch != y.Batch || x.Degraded != y.Degraded || !errors.Is(x.Err, y.Err) && !errors.Is(y.Err, x.Err) && (x.Err != nil || y.Err != nil) {
			t.Fatalf("outcome %d differs across identical runs:\n%+v\n%+v", i, x, y)
		}
	}

	// A different arrival seed must shed a different pattern.
	other := run(22)
	same := true
	for i := range a.Outcomes {
		if a.Outcomes[i].Shed != other.Outcomes[i].Shed {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical shed pattern")
	}
}

// TestSimulateOverloadOracle is the tentpole invariant: at 2x saturation
// with device faults armed mid-run, the server sheds rather than collapses —
// the queue stays bounded, service continues — and every admitted answer is
// bit-identical to a fault-free oracle.
func TestSimulateOverloadOracle(t *testing.T) {
	// At 4 096-bit blocks a shard of 1 500 rows spans about seven blocks, each
	// with its own fault draw; at the default 32 768 its image is one block,
	// and whether the window touches a faulty block rests on four draws.
	ref, chaos := simPairAt(t, 6000, 64, 4, 4096, iomodel.FaultConfig{Seed: 7, TransientPer10k: 3000, TransientCount: 4})
	cfg := Config{MaxQueue: 64, MaxBatch: 8, MaxWait: 300 * time.Microsecond, Workers: 2,
		AllowPartial: true,
		Retry:        shard.RetryPolicy{MaxAttempts: 5, Backoff: time.Microsecond, JitterSeed: 3},
		Breaker:      BreakerConfig{Threshold: 4, Cooldown: 5 * time.Millisecond}}
	sc := saturatingSim(cfg)
	sc.ArmAt = 5 * time.Millisecond
	sc.DisarmAt = 40 * time.Millisecond
	spec := workload.ArrivalSpec{Sigma: 64, RangeLen: 8, Theta: 1.1}
	arrivals := workload.MMPPArrivals(4000, 20000, 120000, 10*time.Millisecond, spec, 13)

	res := Simulate(ShardBackend{Ix: chaos}, chaos, arrivals, sc)
	chaos.DisarmFaults()
	st := res.Stats

	if st.Shed == 0 {
		t.Fatalf("overloaded run shed nothing: %+v", st)
	}
	if st.Completed < uint64(len(arrivals))/10 {
		t.Fatalf("server collapsed: only %d of %d completed", st.Completed, len(arrivals))
	}
	if st.QueueMax > int64(cfg.MaxQueue) {
		t.Fatalf("queue high-water %d exceeded MaxQueue %d", st.QueueMax, cfg.MaxQueue)
	}
	if st.Admitted+st.Shed+st.Expired != uint64(len(arrivals)) {
		t.Fatalf("admitted %d + shed %d + expired %d != %d arrivals", st.Admitted, st.Shed, st.Expired, len(arrivals))
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after the run drained", st.QueueDepth)
	}
	if st.LatencyP50 == 0 || st.LatencyP99 < st.LatencyP50 || st.LatencyP999 < st.LatencyP99 || st.LatencyMax < st.LatencyP999 {
		t.Fatalf("latency quantiles not monotone: %+v", st)
	}
	if st.RetriedReads == 0 {
		t.Fatal("fault window armed but no reads were retried")
	}

	// Oracle: every served, non-degraded answer must be bit-identical to
	// the fault-free index's answer for that exact range. (Degraded answers
	// are a subset by construction; the shard layer's own tests cover them.)
	checked := 0
	for i, o := range res.Outcomes {
		if o.Err != nil || o.Shed || o.Expired || o.Degraded {
			continue
		}
		ar := arrivals[i]
		want, _, _, err := ref.QueryExec(context.Background(), indexRange(ar), shard.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(o.Bm.Positions(), want.Positions()) {
			t.Fatalf("arrival %d [%d,%d]: served answer differs from fault-free oracle", i, ar.Lo, ar.Hi)
		}
		checked++
	}
	if checked < int(st.Completed)/2 {
		t.Fatalf("only %d of %d completions were oracle-checkable", checked, st.Completed)
	}
}

// TestSimulateBreakerStorm arms permanent faults on every shard mid-run:
// breakers must open (stopping the futile retries), requests fail fast while
// the storm lasts, and after the window closes the cooldown probes heal
// every breaker and service resumes clean.
func TestSimulateBreakerStorm(t *testing.T) {
	_, chaos := simPair(t, 4000, 64, 4, iomodel.FaultConfig{Seed: 3, PermanentPer10k: 10000})
	cfg := Config{MaxQueue: 64, MaxBatch: 8, MaxWait: 300 * time.Microsecond, Workers: 2,
		AllowPartial: true,
		Retry:        shard.RetryPolicy{MaxAttempts: 3, Backoff: time.Microsecond},
		Breaker:      BreakerConfig{Threshold: 3, Cooldown: 3 * time.Millisecond}}
	sc := SimConfig{
		Config:   cfg,
		Service:  ServiceModel{BatchOverhead: 100 * time.Microsecond, PerRead: 20 * time.Microsecond},
		ArmAt:    20 * time.Millisecond,
		DisarmAt: 60 * time.Millisecond,
	}
	spec := workload.ArrivalSpec{Sigma: 64, RangeLen: 8}
	arrivals := workload.PoissonArrivals(2000, 10000, spec, 31)

	res := Simulate(ShardBackend{Ix: chaos}, chaos, arrivals, sc)
	chaos.DisarmFaults()
	st := res.Stats

	if st.BreakerOpens < 4 {
		t.Fatalf("storm opened only %d breakers, want all 4 shards", st.BreakerOpens)
	}
	if st.BreakerCloses < 4 {
		t.Fatalf("only %d breakers healed after the storm, want all 4", st.BreakerCloses)
	}
	for i, open := range st.BreakerOpen {
		if open {
			t.Fatalf("shard %d breaker still open at the end of the run: %+v", i, st)
		}
	}
	var failFast, failed bool
	for _, o := range res.Outcomes {
		if errors.Is(o.Err, ErrNoShards) {
			failFast = true
		}
		if o.Err != nil && !o.Shed && !o.Expired {
			failed = true
		}
	}
	if !failed || !failFast {
		t.Fatalf("storm produced failed=%v failFast=%v, want both", failed, failFast)
	}
	// The tail of the run (post-storm) must serve clean again.
	tail := res.Outcomes[len(res.Outcomes)-50:]
	for i, o := range tail {
		if o.Err != nil && !o.Shed {
			t.Fatalf("post-storm outcome %d still failing: %+v", i, o)
		}
	}
}

// TestSimulateDeadlineBudget: behind a busy executor a viable-but-tight
// budget seals the batch on the deadline trigger long before MaxWait would
// (requests are never waited out), and a hopeless budget is rejected at
// admission as expired. One worker and a service time above Budget −
// FlushSlack: a free executor would take every batch on the idle trigger
// before the budget had run down.
func TestSimulateDeadlineBudget(t *testing.T) {
	_, chaos := simPair(t, 2000, 64, 2, iomodel.FaultConfig{})
	cfg := Config{MaxQueue: 64, MaxBatch: 16, MaxWait: 2 * time.Millisecond,
		FlushSlack: 500 * time.Microsecond, MinBudget: 100 * time.Microsecond, Workers: 1}
	spec := workload.ArrivalSpec{Sigma: 64, RangeLen: 4}
	arrivals := workload.PoissonArrivals(500, 2000, spec, 17)

	tight := SimConfig{Config: cfg, Service: ServiceModel{BatchOverhead: 210 * time.Microsecond, PerRead: time.Microsecond},
		Budget: 700 * time.Microsecond}
	res := Simulate(ShardBackend{Ix: chaos}, nil, arrivals, tight)
	if res.Stats.FlushDeadline == 0 {
		t.Fatalf("tight budgets triggered no deadline flushes: %+v", res.Stats)
	}
	if res.Stats.Expired != 0 {
		t.Fatalf("viable budgets were rejected as expired: %+v", res.Stats)
	}
	for i, o := range res.Outcomes {
		if o.Err != nil && !o.Shed {
			t.Fatalf("outcome %d failed under a viable budget: %+v", i, o)
		}
		if o.Err == nil && o.Latency > tight.Budget {
			t.Fatalf("outcome %d answered after its deadline: latency %v > budget %v", i, o.Latency, tight.Budget)
		}
	}

	hopeless := tight
	hopeless.Budget = 50 * time.Microsecond // at or below MinBudget
	res = Simulate(ShardBackend{Ix: chaos}, nil, arrivals, hopeless)
	if res.Stats.Expired != uint64(len(arrivals)) || res.Stats.Admitted != 0 {
		t.Fatalf("hopeless budgets: expired=%d admitted=%d, want all rejected", res.Stats.Expired, res.Stats.Admitted)
	}
}
