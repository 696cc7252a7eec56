package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cbitmap"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

func testColumn(n, sigma int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint32, n)
	for i := range x {
		x[i] = uint32(rng.Intn(sigma))
	}
	return x
}

// assembleParts cuts x into shards as Build does, builds each part exact-only
// on a device of its own and joins them with Assemble. A part listed in
// faults gets that fault schedule, armed.
func assembleParts(t *testing.T, x []uint32, sigma, shards, workers int, faults map[int]iomodel.FaultConfig) (*Index, []Part) {
	t.Helper()
	n := int64(len(x))
	parts := make([]Part, shards)
	for i := range parts {
		start, end := int64(i)*n/int64(shards), int64(i+1)*n/int64(shards)
		var cfg iomodel.Config
		if fc, ok := faults[i]; ok {
			cfg.Faults = &fc
		}
		d, err := iomodel.NewDiskChecked(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ax, err := core.BuildExactOn(core.NewWorkers(1), d, workload.Column{X: x[start:end], Sigma: sigma}, core.OptimalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = Part{Ax: ax, Disk: d, Start: start, End: end}
	}
	sx, err := Assemble(parts, n, sigma, workers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		parts[i].Disk.ArmFaults()
	}
	return sx, parts
}

// sessions returns each part's device session count: a shard task that ran
// opened one per attempt.
func sessions(parts []Part) []int64 {
	out := make([]int64, len(parts))
	for i, p := range parts {
		out[i] = p.Disk.Stats().Sessions
	}
	return out
}

// TestQueryBatchShortCircuit fails the first of eight shards and checks that
// the batch aborts promptly: with one worker, tasks queued behind the
// failure must be drained without running (their devices open no session),
// and the part's error is what surfaces.
func TestQueryBatchShortCircuit(t *testing.T) {
	x := testColumn(4000, 64, 51)
	sx, parts := assembleParts(t, x, 64, 8, 1, map[int]iomodel.FaultConfig{0: {PermanentPer10k: 10000}})
	before := sessions(parts)
	_, _, _, err := sx.QueryBatchExec(context.Background(), []index.Range{{Lo: 0, Hi: 7}, {Lo: 3, Hi: 12}}, ExecOptions{})
	if !errors.Is(err, iomodel.ErrPermanentRead) {
		t.Fatalf("batch error = %v, want the failing part's permanent read fault", err)
	}
	if st := parts[0].Disk.Stats(); st.Sessions != before[0]+1 || st.FailedReads == 0 {
		t.Fatalf("failing part: %d sessions (%d before), %d failed reads; want one attempt that failed", st.Sessions, before[0], st.FailedReads)
	}
	// One worker serialises the 8 shard tasks; the first fails, so every
	// later task must see the failure flag and drain without running.
	for i, s := range sessions(parts)[1:] {
		if s != before[i+1] {
			t.Fatalf("shard %d ran after the failure (%d sessions, %d before), want short-circuit after 1", i+1, s, before[i+1])
		}
	}
}

// TestQueryBatchPartialFailure fails only one shard and checks the error
// still surfaces (no lost error when healthy shards complete first) and that
// once its device heals the next batch on the same index answers as a
// fault-free build does — the failure leaves no poisoned state behind.
func TestQueryBatchPartialFailure(t *testing.T) {
	x := testColumn(4000, 64, 52)
	sx, parts := assembleParts(t, x, 64, 4, 4, map[int]iomodel.FaultConfig{0: {PermanentPer10k: 10000}})
	if _, _, _, err := sx.QueryBatchExec(context.Background(), []index.Range{{Lo: 0, Hi: 7}, {Lo: 8, Hi: 15}}, ExecOptions{}); !errors.Is(err, iomodel.ErrPermanentRead) {
		t.Fatalf("batch with a failing shard: error %v, want a permanent read fault", err)
	}
	parts[0].Disk.DisarmFaults()
	rs := []index.Range{{Lo: 0, Hi: 7}}
	out, _, _, err := sx.QueryBatchExec(context.Background(), rs, ExecOptions{})
	if err != nil {
		t.Fatalf("batch after recovery: %v", err)
	}
	ref, err := Build(x, 64, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := ref.QueryBatchExec(context.Background(), rs, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cbitmap.Equal(out[0], want[0]) {
		t.Fatal("batch after recovery answers differently from a fault-free build")
	}
}

// readerStacks runs query and returns the stacks of the goroutines it
// catches sleeping in a device read, which a schedule's ReadLatency makes
// long enough to see.
func readerStacks(query func()) []string {
	found := make(chan []string, 1)
	stop := make(chan struct{})
	go func() {
		buf := make([]byte, 1<<20)
		for {
			select {
			case <-stop:
				found <- nil
				return
			default:
			}
			var in []string
			for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
				if strings.Contains(g, "time.Sleep") && strings.Contains(g, "repro/internal/iomodel.") {
					in = append(in, g)
				}
			}
			if len(in) > 0 {
				found <- in
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	func() {
		defer close(stop) // a failing query stops the watcher too
		query()
	}()
	return <-found
}

// TestOneTaskBatchRunsInline: a fan-out of one task — every batch on a
// one-part index — runs on the caller's goroutine, with the pool's ctx
// semantics intact, and writes its answers into the caller's slots.
func TestOneTaskBatchRunsInline(t *testing.T) {
	x := testColumn(4000, 64, 53)
	rs := []index.Range{{Lo: 0, Hi: 7}, {Lo: 3, Hi: 12}}
	slow := iomodel.FaultConfig{ReadLatency: 20 * time.Millisecond} // no fault drawn: only latency fires
	for _, shards := range []int{1, 2} {
		faults := map[int]iomodel.FaultConfig{}
		for i := range shards {
			faults[i] = slow
		}
		sx, _ := assembleParts(t, x, 64, shards, shards, faults)
		for _, q := range []struct {
			name string
			run  func()
		}{
			{"batch", func() {
				if _, _, _, err := sx.QueryBatchExec(context.Background(), rs, ExecOptions{}); err != nil {
					t.Fatal(err)
				}
			}},
			{"query", func() {
				if _, _, _, err := sx.QueryExec(context.Background(), rs[0], ExecOptions{}); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			stacks := readerStacks(q.run)
			if len(stacks) == 0 {
				t.Fatalf("%d shards, %s: caught no goroutine in a device read", shards, q.name)
			}
			// Two shards read on the pool's goroutines, which shows the check
			// can tell them from the caller's.
			for _, s := range stacks {
				if inline := strings.Contains(s, "TestOneTaskBatchRunsInline"); inline != (shards == 1) {
					t.Fatalf("%d shards, %s: a device read on the caller's goroutine: %v, want %v:\n%s", shards, q.name, inline, shards == 1, s)
				}
			}
		}
	}

	sx, parts := assembleParts(t, x, 64, 1, 1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := parts[0].Disk.Stats().Sessions
	if _, _, _, err := sx.QueryBatchExec(ctx, rs, ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch: err = %v, want context.Canceled", err)
	}
	if _, _, _, err := sx.QueryExec(ctx, rs[0], ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
	}
	if after := parts[0].Disk.Stats().Sessions; after != before {
		t.Fatalf("cancelled calls opened %d sessions, want no task run", after-before)
	}
	if raceEnabled {
		return
	}
	const parentAllocs = 38 // with the goroutine and WaitGroup this batch used to start
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, err := sx.QueryBatchExec(context.Background(), rs, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parentAllocs {
		t.Fatalf("one-shard batch allocated %.1f times, want <= %d", allocs, parentAllocs)
	}
	// The answer's buffer, Bitmap and two skip-sample slices, and nothing of
	// the fan-out's: the shard writes into QueryExec's slot, so neither the
	// range nor the answer slice reaches the heap (6 while they did, 10 with
	// QueryExec's own one-shard branch).
	const inlinedAllocs = 4
	allocs = testing.AllocsPerRun(50, func() {
		if _, _, _, err := sx.QueryExec(context.Background(), rs[0], ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > inlinedAllocs {
		t.Fatalf("one-shard query allocated %.1f times, want <= %d", allocs, inlinedAllocs)
	}
}

// TestShardAnswerSamples: a part of several shards is merged without skip
// samples, since UnionAll reads it once and whole; the one shard of an index
// hands its answer to the caller as it stands, so that answer carries the
// samples its point queries seek through from the merge on. Each shard's
// task (runShard) is run as the fan-out runs it, and its answer read.
func TestShardAnswerSamples(t *testing.T) {
	x := testColumn(1<<16, 64, 54)
	r := index.Range{Lo: 4, Hi: 27} // a dense answer: the window kernel
	for _, shards := range []int{1, 4} {
		sx, _ := assembleParts(t, x, 64, shards, shards, nil)
		for i := range shards {
			var part [1]*cbitmap.Bitmap
			var o shardOutcome
			if err := sx.runShard(context.Background(), i, []index.Range{r}, part[:], ExecOptions{}, &o); err != nil {
				t.Fatal(err)
			}
			if sampled := part[0].SampleBits() > 0; sampled != (shards == 1) {
				t.Fatalf("%d shards: shard %d's answer (card %d) carries skip samples = %v", shards, i, part[0].Card(), sampled)
			}
			if shards > 1 {
				continue
			}
			got, _, _, err := sx.QueryExec(context.Background(), r, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !cbitmap.Equal(got, part[0]) || got.SampleBits() != part[0].SampleBits() {
				t.Fatal("one-shard index did not return its shard's answer as it stands")
			}
		}
	}
}

// TestQueryBatchExecSharesDuplicates: the fan-out deduplicates a batch
// before any shard sees it, so a repeated range shares one answer, and a
// batch of one range however repeated shares no reads.
func TestQueryBatchExecSharesDuplicates(t *testing.T) {
	x := testColumn(4000, 64, 55)
	for _, shards := range []int{1, 4} {
		sx, _ := assembleParts(t, x, 64, shards, shards, nil)
		r := index.Range{Lo: 3, Hi: 9}
		want, wst, _, err := sx.QueryExec(context.Background(), r, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out, st, _, err := sx.QueryBatchExec(context.Background(), []index.Range{r, r, r}, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != out[1] || out[1] != out[2] {
			t.Fatalf("%d shards: repeated range did not share its answer", shards)
		}
		if !cbitmap.Equal(out[0], want) || st != wst {
			t.Fatalf("%d shards: repeated range answers or stats %+v differ from QueryExec's %+v", shards, st, wst)
		}
		rs := []index.Range{{Lo: 0, Hi: 7}, r, {Lo: 0, Hi: 7}, {Lo: 40, Hi: 63}, r}
		out, _, _, err = sx.QueryBatchExec(context.Background(), rs, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != out[2] || out[1] != out[4] || out[0] == out[1] || out[1] == out[3] {
			t.Fatalf("%d shards: answers not shared exactly between equal ranges", shards)
		}
		for i, r := range rs {
			one, _, _, err := sx.QueryExec(context.Background(), r, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !cbitmap.Equal(out[i], one) {
				t.Fatalf("%d shards: batch answer %d differs from QueryExec", shards, i)
			}
		}
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
