package shard

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// buildPair builds a fault-free reference and a fault-injected twin over the
// same column.
func buildPair(t *testing.T, n, shards int, fc iomodel.FaultConfig) (ref, chaos *Index, data []uint32) {
	t.Helper()
	data = testColumn(n, 64, 53)
	ref, err := Build(data, 64, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	chaos, err = Build(data, 64, Options{Shards: shards, Faults: &fc})
	if err != nil {
		t.Fatal(err)
	}
	return ref, chaos, data
}

// TestAllowPartialPermanentFault kills exactly one shard with permanent
// faults and checks the degraded answer is exactly the healthy shards' rows
// plus a structured report naming the dead shard's row range.
func TestAllowPartialPermanentFault(t *testing.T) {
	const dead = 2
	ref, chaos, _ := buildPair(t, 8000, 4, iomodel.FaultConfig{PermanentPer10k: 10000})
	// Arm only the victim: every charged read on shard 2 fails permanently.
	chaos.shards[dead].disk.ArmFaults()

	r := index.Range{Lo: 3, Hi: 40}
	want, _, _, err := ref.QueryExec(context.Background(), r, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := chaos.shards[dead].start, chaos.shards[dead].end
	var wantRows []int64
	for _, row := range want.Positions() {
		if row < lo || row >= hi {
			wantRows = append(wantRows, row)
		}
	}

	// Without AllowPartial the permanent fault is fatal.
	if _, _, _, err := chaos.QueryExec(context.Background(), r, ExecOptions{Retry: RetryPolicy{MaxAttempts: 3}}); !errors.Is(err, iomodel.ErrPermanentRead) {
		t.Fatalf("strict query error = %v, want a permanent read fault", err)
	}

	// With it, the answer is the healthy shards' rows plus a report.
	bm, _, report, err := chaos.QueryExec(context.Background(), r, ExecOptions{
		Retry:        RetryPolicy{MaxAttempts: 3},
		AllowPartial: true,
	})
	if err != nil {
		t.Fatalf("partial query: %v", err)
	}
	if len(report) != 1 {
		t.Fatalf("report has %d entries, want 1: %v", len(report), report)
	}
	re := report[0]
	if re.Shard != dead || re.RowStart != lo || re.RowEnd != hi {
		t.Fatalf("report = %+v, want shard %d rows [%d,%d)", re, dead, lo, hi)
	}
	if !errors.Is(re.Err, iomodel.ErrPermanentRead) {
		t.Fatalf("report error = %v, want a permanent read fault", re.Err)
	}
	if re.Attempts != 1 {
		t.Fatalf("permanent fault took %d attempts, want 1 (not retriable)", re.Attempts)
	}
	if got := bm.Positions(); !slices.Equal(got, wantRows) {
		t.Fatalf("partial answer has %d rows, want exactly the %d healthy-shard rows", len(got), len(wantRows))
	}

	// Batch path: every result is missing the dead shard's rows.
	rs := []index.Range{{Lo: 3, Hi: 40}, {Lo: 0, Hi: 10}, {Lo: 20, Hi: 63}}
	wants, _, _, err := ref.QueryBatchExec(context.Background(), rs, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bms, _, breport, err := chaos.QueryBatchExec(context.Background(), rs, ExecOptions{AllowPartial: true})
	if err != nil {
		t.Fatalf("partial batch: %v", err)
	}
	if len(breport) != 1 || breport[0].Shard != dead {
		t.Fatalf("batch report = %v, want shard %d", breport, dead)
	}
	for i := range rs {
		var exp []int64
		for _, row := range wants[i].Positions() {
			if row < lo || row >= hi {
				exp = append(exp, row)
			}
		}
		if !slices.Equal(bms[i].Positions(), exp) {
			t.Fatalf("batch range %d: partial answer differs from healthy-shard rows", i)
		}
	}
}

// TestAllowPartialAllShardsDead checks that degraded mode still fails when
// no shard can answer: there is nothing left to degrade to.
func TestAllowPartialAllShardsDead(t *testing.T) {
	_, chaos, _ := buildPair(t, 4000, 3, iomodel.FaultConfig{PermanentPer10k: 10000})
	chaos.ArmFaults()
	_, _, _, err := chaos.QueryExec(context.Background(), index.Range{Lo: 0, Hi: 20}, ExecOptions{AllowPartial: true})
	if err == nil {
		t.Fatal("all-shards-dead partial query returned no error")
	}
	if !errors.Is(err, iomodel.ErrPermanentRead) {
		t.Fatalf("all-shards-dead error = %v, want to wrap the permanent fault", err)
	}
}

// TestRetryBackoffHonoursCancellation cancels a context while a retry loop
// is sleeping in its backoff and checks the loop exits with the context
// error instead of finishing the backoff.
func TestRetryBackoffHonoursCancellation(t *testing.T) {
	_, chaos, _ := buildPair(t, 4000, 2, iomodel.FaultConfig{TransientPer10k: 10000, TransientCount: 1 << 30})
	chaos.ArmFaults()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := chaos.QueryExec(ctx, index.Range{Lo: 0, Hi: 20}, ExecOptions{
			Retry: RetryPolicy{MaxAttempts: 1 << 20, Backoff: time.Hour},
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled retry loop returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retry loop did not observe cancellation (stuck in backoff)")
	}
}

// TestCancelMidBatchUnderConcurrency runs concurrent batches against a
// slow (latency-injecting) device, cancels them mid-flight, and checks
// every batch returns promptly with either a clean answer or the context
// error — then proves the pools and devices are left healthy by running a
// fault-free differential against the reference. Run under -race in CI,
// this is the leaked-buffer / torn-state check for the cancellation paths.
func TestCancelMidBatchUnderConcurrency(t *testing.T) {
	ref, chaos, _ := buildPair(t, 8000, 4, iomodel.FaultConfig{ReadLatency: 200 * time.Microsecond})
	chaos.ArmFaults() // no faults drawn: only latency fires

	rs := []index.Range{{Lo: 0, Hi: 7}, {Lo: 3, Hi: 12}, {Lo: 8, Hi: 40}, {Lo: 0, Hi: 63}, {Lo: 30, Hi: 31}}
	const loops = 4
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for l := 0; l < loops; l++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+g+l)*time.Millisecond)
				bms, _, _, err := chaos.QueryBatchExec(ctx, rs, ExecOptions{})
				cancel()
				switch {
				case err == nil:
					if len(bms) != len(rs) {
						t.Errorf("clean batch returned %d results, want %d", len(bms), len(rs))
					}
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
				default:
					t.Errorf("cancelled batch returned unexpected error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	// The devices and session pools must be unpoisoned: a fault-free run
	// right after the cancellation storm matches the reference bit for bit.
	chaos.DisarmFaults()
	wants, _, _, err := ref.QueryBatchExec(context.Background(), rs, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gots, st, _, err := chaos.QueryBatchExec(context.Background(), rs, ExecOptions{})
	if err != nil {
		t.Fatalf("batch after cancellation storm: %v", err)
	}
	for i := range rs {
		if !slices.Equal(gots[i].Positions(), wants[i].Positions()) {
			t.Fatalf("range %d: answer differs after cancellation storm", i)
		}
	}
	if st.Reads < 0 || st.FailedReads != 0 || st.RetriedReads != 0 {
		t.Fatalf("stats not clean after storm: %+v", st)
	}
}

// TestCorruptionSurfacesAsErrCorrupt arms silent corruption on every block
// and checks the decode-validation layer converts detected damage into a
// typed cbitmap.ErrCorrupt instead of panicking. A single flipped bit can
// also yield a structurally valid stream that decodes to a different answer
// — the checksum-free device format cannot catch that — so which queries
// detect their corruption depends on where each seed's flipped bits land;
// the test sweeps seeds and requires that every surfaced error is typed
// ErrCorrupt, that none is misclassified as a retriable read fault, and
// that at least one seed detects.
func TestCorruptionSurfacesAsErrCorrupt(t *testing.T) {
	data := testColumn(8000, 64, 53)
	sawCorrupt := 0
	for seed := int64(0); seed < 30; seed++ {
		chaos, err := Build(data, 64, Options{Shards: 2, Faults: &iomodel.FaultConfig{Seed: seed, CorruptPer10k: 10000}})
		if err != nil {
			t.Fatal(err)
		}
		chaos.ArmFaults()
		for lo := uint32(0); lo+8 < 64; lo++ {
			r := index.Range{Lo: lo, Hi: lo + 8}
			_, st, _, err := chaos.QueryExec(context.Background(), r, ExecOptions{Retry: RetryPolicy{MaxAttempts: 4}})
			if err == nil {
				continue
			}
			if !errors.Is(err, cbitmap.ErrCorrupt) {
				t.Fatalf("seed %d [%d,%d]: corruption surfaced as %v, want cbitmap.ErrCorrupt", seed, r.Lo, r.Hi, err)
			}
			if errors.Is(err, iomodel.ErrTransientRead) || errors.Is(err, iomodel.ErrPermanentRead) {
				t.Fatalf("seed %d: corruption misclassified as a read fault: %v", seed, err)
			}
			if st.RetriedReads != 0 {
				t.Fatalf("seed %d: retry layer re-issued a non-transient corruption error (%d retries)", seed, st.RetriedReads)
			}
			sawCorrupt++
		}
	}
	if sawCorrupt == 0 {
		t.Fatal("no query surfaced cbitmap.ErrCorrupt across 30 seeds of all-blocks-corrupt devices")
	}
}
