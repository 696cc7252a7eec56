package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
)

func testColumn(n, sigma int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint32, n)
	for i := range x {
		x[i] = uint32(rng.Intn(sigma))
	}
	return x
}

// TestQueryBatchShortCircuit injects a failing shard and checks that the
// batch aborts promptly: with one worker, tasks queued behind the failure
// must be drained without running, and the injected error is what surfaces.
func TestQueryBatchShortCircuit(t *testing.T) {
	x := testColumn(4000, 64, 51)
	sx, err := Build(x, 64, Options{Shards: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected shard failure")
	var calls atomic.Int32
	orig := shardBatchQuery
	defer func() { shardBatchQuery = orig }()
	shardBatchQuery = func(ctx context.Context, sh *shard, rs []index.Range) ([]*cbitmap.Bitmap, index.QueryStats, error) {
		calls.Add(1)
		return nil, index.QueryStats{}, injected
	}
	_, _, err = sx.QueryBatch([]index.Range{{Lo: 0, Hi: 7}, {Lo: 3, Hi: 12}})
	if !errors.Is(err, injected) {
		t.Fatalf("batch error = %v, want the injected failure", err)
	}
	// One worker serialises the 8 shard tasks; the first fails, so every
	// later task must see the failure flag and drain without running.
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d shard tasks ran after the failure, want short-circuit after 1", got)
	}
}

// TestQueryBatchPartialFailure fails only one shard and checks the error
// still surfaces (no lost error when healthy shards complete first) and that
// a subsequent batch on the same index succeeds — the failure leaves no
// poisoned state behind.
func TestQueryBatchPartialFailure(t *testing.T) {
	x := testColumn(4000, 64, 52)
	sx, err := Build(x, 64, Options{Shards: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	orig := shardBatchQuery
	defer func() { shardBatchQuery = orig }()
	fail := true
	shardBatchQuery = func(ctx context.Context, sh *shard, rs []index.Range) ([]*cbitmap.Bitmap, index.QueryStats, error) {
		if fail && sh.start == 0 {
			return nil, index.QueryStats{}, fmt.Errorf("shard at row 0 is down")
		}
		return orig(ctx, sh, rs)
	}
	if _, _, err := sx.QueryBatch([]index.Range{{Lo: 0, Hi: 7}, {Lo: 8, Hi: 15}}); err == nil {
		t.Fatal("batch with a failing shard returned no error")
	}
	fail = false
	out, _, err := sx.QueryBatch([]index.Range{{Lo: 0, Hi: 7}})
	if err != nil {
		t.Fatalf("batch after recovery: %v", err)
	}
	if out[0] == nil {
		t.Fatal("batch after recovery returned no answer")
	}
}

// TestOneTaskBatchRunsInline: a fan-out of one task — every batch on a
// one-part index — runs on the caller's goroutine, with the pool's ctx
// semantics intact.
func TestOneTaskBatchRunsInline(t *testing.T) {
	x := testColumn(4000, 64, 53)
	sx, err := Build(x, 64, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs := []index.Range{{Lo: 0, Hi: 7}, {Lo: 3, Hi: 12}}
	orig := shardBatchQuery
	defer func() { shardBatchQuery = orig }()
	inTask := 0
	shardBatchQuery = func(ctx context.Context, sh *shard, rs []index.Range) ([]*cbitmap.Bitmap, index.QueryStats, error) {
		inTask = runtime.NumGoroutine()
		return orig(ctx, sh, rs)
	}
	before := runtime.NumGoroutine()
	if _, _, err := sx.QueryBatch(rs); err != nil {
		t.Fatal(err)
	}
	if inTask > before { // fewer: an earlier test's goroutine finished exiting
		t.Fatalf("%d goroutines while the shard task ran, %d before the batch: the task did not run inline", inTask, before)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inTask = 0
	if _, _, err := sx.QueryBatchContext(ctx, rs); !errors.Is(err, context.Canceled) || inTask != 0 {
		t.Fatalf("cancelled batch: err = %v, task ran = %v; want context.Canceled and no task", err, inTask != 0)
	}
	// One range is a batch of one through the same fan-out: Query reaches
	// the per-shard hook on the caller's goroutine too.
	before = runtime.NumGoroutine()
	if _, _, err := sx.Query(rs[0]); err != nil {
		t.Fatal(err)
	}
	if inTask == 0 || inTask > before {
		t.Fatalf("%d goroutines while Query's shard task ran (0: the hook was bypassed), %d before: the task did not run inline", inTask, before)
	}
	inTask = 0
	if _, _, err := sx.QueryContext(ctx, rs[0]); !errors.Is(err, context.Canceled) || inTask != 0 {
		t.Fatalf("cancelled query: err = %v, task ran = %v; want context.Canceled and no task", err, inTask != 0)
	}
	if raceEnabled {
		return
	}
	shardBatchQuery = orig
	const parentAllocs = 38 // with the goroutine and WaitGroup this batch used to start
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := sx.QueryBatch(rs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parentAllocs {
		t.Fatalf("one-shard batch allocated %.1f times, want <= %d", allocs, parentAllocs)
	}
	const inlinedAllocs = 10 // what QueryExec's own one-shard branch cost before it went
	allocs = testing.AllocsPerRun(50, func() {
		if _, _, err := sx.Query(rs[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > inlinedAllocs {
		t.Fatalf("one-shard query allocated %.1f times, want <= %d", allocs, inlinedAllocs)
	}
}

// TestQueryExecIsBatchOfOne: a query and a batch holding only that range run
// the same fan-out, so answer, stats, report and error agree — fault-free,
// degraded around a permanently faulted shard (sticky: both calls meet the
// same device), and degraded around a skipped one; on one shard the last two
// have nothing to degrade to and must fail alike.
func TestQueryExecIsBatchOfOne(t *testing.T) {
	r := index.Range{Lo: 3, Hi: 40}
	for _, shards := range []int{1, 4} {
		dead := shards / 2
		skips := make([]bool, shards)
		skips[dead] = true
		for _, tc := range []struct {
			name  string
			fault bool
			eo    ExecOptions
		}{
			{"strict", false, ExecOptions{}},
			{"partial-permanent", true, ExecOptions{Retry: RetryPolicy{MaxAttempts: 3}, AllowPartial: true}},
			{"partial-skip", false, ExecOptions{AllowPartial: true, SkipShards: skips}},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, tc.name), func(t *testing.T) {
				_, sx, _ := buildPair(t, 8000, shards, iomodel.FaultConfig{PermanentPer10k: 10000})
				if tc.fault {
					sx.shards[dead].disk.ArmFaults()
				}
				bm, st, rep, err := sx.QueryExec(context.Background(), r, tc.eo)
				bms, bst, brep, berr := sx.QueryBatchExec(context.Background(), []index.Range{r, r}, tc.eo)
				if fmt.Sprint(err) != fmt.Sprint(berr) || fmt.Sprint(rep) != fmt.Sprint(brep) || st != bst {
					t.Fatalf("query: stats %+v report %v err %v\nbatch: stats %+v report %v err %v", st, rep, err, bst, brep, berr)
				}
				if wantErr := shards == 1 && tc.name != "strict"; (err != nil) != wantErr {
					t.Fatalf("err = %v, want an error: %v", err, wantErr)
				}
				if wantRep := shards > 1 && tc.name != "strict"; (len(rep) == 1) != wantRep {
					t.Fatalf("report %v, want one entry: %v", rep, wantRep)
				}
				if err != nil {
					return
				}
				if bms[0] != bms[1] || !cbitmap.Equal(bm, bms[0]) {
					t.Fatal("the batch's answers differ from the query's")
				}
			})
		}
	}
}

// TestBuildSharedWorkers: the shards of one Build draw their encoders from
// one budget. A budget of one slot must still finish (every build waits for
// its own slot and never for a helper's), a budget wider than the shard count
// lets each shard encode its levels side by side, and every budget leaves the
// same device image on every shard.
func TestBuildSharedWorkers(t *testing.T) {
	x := testColumn(280000, 512, 18) // 70 000 rows a shard, four materialised levels
	var want [][]byte
	for _, workers := range []int{1, 2, 8} {
		sx, err := Build(x, 512, Options{Shards: 4, Workers: workers, BlockBits: 2048})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var got [][]byte
		for _, sh := range sx.shards {
			_, data := sh.disk.Image()
			got = append(got, data)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("workers=%d: shard %d's image differs from the one-worker build's", workers, i)
			}
		}
	}
}
