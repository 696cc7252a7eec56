package secidx

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// slowReads makes every charged read take long enough that concurrent
// submits pile up behind the batch in service.
var slowReads = &FaultConfig{ReadLatency: 200 * time.Microsecond}

// servePair builds a fault-free oracle and a fault-injected twin over the
// same column.
func servePair(t *testing.T, n, sigma, shards int, fc FaultConfig) (ref, chaos *ShardedIndex) {
	t.Helper()
	data := randColumn(n, sigma, 47)
	ref, err := BuildSharded(data, sigma, ShardOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	chaos, err = BuildSharded(data, sigma, ShardOptions{Shards: shards, Options: Options{Faults: &fc}})
	if err != nil {
		t.Fatal(err)
	}
	return ref, chaos
}

// TestServeChaos is the real-server (wall-clock, -race) half of the
// tentpole harness: a saturating storm of concurrent queries against a
// fault-injected index. The server must shed rather than collapse — the
// queue stays bounded, every submit returns promptly with an answer or a
// typed shed — and every served answer must be bit-identical to the
// fault-free oracle. Shutdown must leak nothing.
func TestServeChaos(t *testing.T) {
	before := runtime.NumGoroutine()
	ref, chaos := servePair(t, 8000, 64, 4, FaultConfig{Seed: 5, TransientPer10k: 3000, TransientCount: 3, ReadLatency: 20 * time.Microsecond})
	chaos.ArmFaults()
	defer chaos.DisarmFaults()

	srv, err := chaos.Serve(ServerConfig{
		MaxQueue: 32, MaxBatch: 8, MaxWait: 200 * time.Microsecond, Workers: 2,
		AllowPartial:     true,
		Retry:            RetryPolicy{MaxAttempts: 5, Backoff: 50 * time.Microsecond, JitterSeed: 7},
		BreakerThreshold: 6, BreakerCooldown: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 16, 40
	type answer struct {
		lo, hi uint32
		res    *ServedResult
		err    error
	}
	answers := make([][]answer, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				lo := uint32((c*13 + q*5) % 56)
				hi := lo + 7
				res, err := srv.Query(context.Background(), lo, hi)
				answers[c] = append(answers[c], answer{lo: lo, hi: hi, res: res, err: err})
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	var served, shed, failed int
	for c := range answers {
		for _, a := range answers[c] {
			switch {
			case a.err == nil:
				served++
				if len(a.res.Report) > 0 {
					continue // degraded answers are a strict subset; covered by shard tests
				}
				want, _, err := ref.Query(a.lo, a.hi)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a.res.Result.Rows(), want.Rows()) {
					t.Fatalf("served answer for [%d,%d] differs from fault-free oracle", a.lo, a.hi)
				}
			case errors.Is(a.err, ErrOverloaded):
				shed++
			default:
				failed++
			}
		}
	}
	total := clients * perClient
	if served == 0 {
		t.Fatal("chaos storm served nothing")
	}
	if uint64(served) != st.Completed || st.Admitted != st.Completed+st.Failed {
		t.Fatalf("served=%d shed=%d failed=%d vs stats %+v: answers lost", served, shed, failed, st)
	}
	if st.Admitted+st.Shed != uint64(total) {
		t.Fatalf("admitted %d + shed %d != %d submits", st.Admitted, st.Shed, total)
	}
	if st.QueueMax > 32 {
		t.Fatalf("queue high-water %d exceeded MaxQueue 32", st.QueueMax)
	}
	if st.Batches >= st.Admitted && st.Admitted > 0 {
		t.Fatalf("%d batches for %d admitted requests: no batching", st.Batches, st.Admitted)
	}
	if st.FailedReads == 0 || st.RetriedReads == 0 {
		t.Fatalf("faults armed but FailedReads=%d RetriedReads=%d", st.FailedReads, st.RetriedReads)
	}
	assertNoLeaks(t, before)
}

// TestServeUnshardedIndex: the single-device adapter serves through the
// same layer — batching happens, answers match direct queries, and the
// server shuts down clean. The device is slow (slowReads) behind one executor:
// a free executor takes each arrival alone, so only a busy one shows batching.
func TestServeUnshardedIndex(t *testing.T) {
	before := runtime.NumGoroutine()
	data := randColumn(4000, 32, 3)
	ix, err := Build(data, 32, Options{Faults: slowReads})
	if err != nil {
		t.Fatal(err)
	}
	ix.ArmFaults()
	srv, err := ix.Serve(ServerConfig{MaxBatch: 8, MaxWait: time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranges := make([]Range, 32)
	for i := range ranges {
		lo := uint32(i % 24)
		ranges[i] = Range{Lo: lo, Hi: lo + 7}
	}
	out := srv.QueryBatch(context.Background(), ranges)
	for i, sr := range out {
		if sr.Err != nil {
			t.Fatalf("range %d: %v", i, sr.Err)
		}
		want, _, err := ix.Query(ranges[i].Lo, ranges[i].Hi)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sr.Result.Rows(), want.Rows()) {
			t.Fatalf("served answer %d differs from direct query", i)
		}
		if sr.BatchSize < 1 || sr.Trigger == "" {
			t.Fatalf("answer %d missing serving metadata: %+v", i, sr)
		}
	}
	if st := srv.Stats(); st.Batches >= uint64(len(ranges)) {
		t.Fatalf("%d batches for %d concurrent queries: no batching", st.Batches, len(ranges))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoLeaks(t, before)
}

// TestServeDeadlinePropagation: a request whose deadline budget is already
// hopeless is rejected at admission without waiting, and a tight-but-viable
// budget forces an immediate deadline flush instead of waiting out MaxWait.
func TestServeDeadlinePropagation(t *testing.T) {
	data := randColumn(2000, 32, 5)
	ix, err := BuildSharded(data, 32, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// MaxWait is deliberately enormous: only the deadline triggers can
	// answer these requests promptly.
	srv, err := ix.Serve(ServerConfig{
		MaxBatch: 1024, MaxWait: 30 * time.Second,
		FlushSlack: 50 * time.Millisecond, MinBudget: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Hopeless budget: rejected immediately, not enqueued.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	start := time.Now()
	_, qerr := srv.Query(ctx, 0, 7)
	cancel()
	if !errors.Is(qerr, context.DeadlineExceeded) {
		t.Fatalf("hopeless-budget query err = %v, want DeadlineExceeded", qerr)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("hopeless-budget rejection took %v, want immediate", el)
	}
	if st := srv.Stats(); st.Expired != 1 || st.Admitted != 0 {
		t.Fatalf("expired=%d admitted=%d, want 1/0", st.Expired, st.Admitted)
	}

	// Viable but tight: the batch must flush on the deadline trigger and
	// answer far sooner than the 30s MaxWait.
	ctx, cancel = context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start = time.Now()
	res, qerr := srv.Query(ctx, 0, 7)
	if qerr != nil {
		t.Fatalf("tight-budget query: %v", qerr)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("tight-budget query took %v; deadline flush did not fire", el)
	}
	if res.Trigger != "deadline" {
		t.Fatalf("tight-budget query served by %q flush, want deadline", res.Trigger)
	}
	if st := srv.Stats(); st.FlushDeadline == 0 {
		t.Fatalf("no deadline flushes recorded: %+v", st)
	}
}

// TestQueryExecCancelDuringBackoff: cancelling the context while the
// sharded retry layer is sleeping out a long backoff must return promptly
// with the context's error — backoff waits are interruptible.
func TestQueryExecCancelDuringBackoff(t *testing.T) {
	// Every block transiently fails far more times than the retry budget,
	// so each attempt fails and the executor spends its time in backoff.
	data := randColumn(4000, 32, 9)
	chaos, err := BuildSharded(data, 32, ShardOptions{Shards: 2, Options: Options{Faults: &FaultConfig{Seed: 1, TransientPer10k: 10000, TransientCount: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	chaos.ArmFaults()
	defer chaos.DisarmFaults()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, _, qerr := chaos.QueryExec(ctx, 0, 7, QueryOptions{
		Retry: RetryPolicy{MaxAttempts: 10, Backoff: 30 * time.Second, MaxBackoff: 30 * time.Second},
	})
	elapsed := time.Since(start)
	if !errors.Is(qerr, context.Canceled) {
		t.Fatalf("cancelled QueryExec err = %v, want context.Canceled", qerr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled QueryExec returned after %v; backoff wait is not interruptible", elapsed)
	}
}

// TestServeQueryBatchSharesScan: one client-side QueryBatch lands its
// members in shared batches, so SharedSaved shows up in the server stats.
func TestServeQueryBatchSharesScan(t *testing.T) {
	data := randColumn(6000, 64, 11)
	ix, err := BuildSharded(data, 64, ShardOptions{Shards: 2, Options: Options{Faults: slowReads}})
	if err != nil {
		t.Fatal(err)
	}
	ix.ArmFaults()
	srv, err := ix.Serve(ServerConfig{MaxBatch: 16, MaxWait: time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Heavily overlapping ranges: the shared-scan planner should save reads.
	ranges := make([]Range, 48)
	for i := range ranges {
		lo := uint32(i % 6)
		ranges[i] = Range{Lo: lo, Hi: lo + 40}
	}
	out := srv.QueryBatch(context.Background(), ranges)
	for i, sr := range out {
		if sr.Err != nil {
			t.Fatalf("range %d: %v", i, sr.Err)
		}
	}
	if st := srv.Stats(); st.SharedSaved == 0 {
		t.Fatalf("overlapping batch saved no shared reads: %+v", st)
	}
}
