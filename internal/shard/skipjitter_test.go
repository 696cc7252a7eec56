package shard

// Tests for the serving layer's two shard-level hooks: the deterministic
// seeded retry jitter (concurrent per-shard retries must not convoy, yet a
// fixed seed must reproduce the exact schedule) and ExecOptions.SkipShards
// (circuit-broken shards answer immediately with a structured ShardError
// instead of burning retry budget on a device known to be down).

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/index"
)

// TestRetryDelayJitterPinned pins the jittered schedule: Delay is a pure
// function of (policy, token, attempt), so these golden values must never
// change — fault-injection tests pick retry seeds assuming the schedule is
// frozen.
func TestRetryDelayJitterPinned(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, Backoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: 42}
	golden := map[[2]uint64]time.Duration{} // (token, attempt) -> delay
	for token := uint64(0); token < 3; token++ {
		for attempt := 1; attempt <= 4; attempt++ {
			golden[[2]uint64{token, uint64(attempt)}] = p.Delay(attempt, token)
		}
	}
	want := map[[2]uint64]time.Duration{
		{0, 1}: 892166, {0, 2}: 1365402, {0, 3}: 2367706, {0, 4}: 5619873,
		{1, 1}: 519744, {1, 2}: 1535690, {1, 3}: 3223876, {1, 4}: 4038085,
		{2, 1}: 587501, {2, 2}: 1563018, {2, 3}: 3597076, {2, 4}: 5842590,
	}
	for k, g := range golden {
		if w, ok := want[k]; ok && g != w {
			t.Errorf("Delay(attempt=%d, token=%d) = %d, pinned %d: the retry schedule moved", k[1], k[0], g, w)
		}
	}
	if t.Failed() {
		t.Logf("actual schedule: %v", golden)
	}
}

// TestRetryDelayJitterProperties checks the schedule's invariants: delays
// land in [base/2, base), the exponential cap holds, tokens decorrelate,
// zero backoff stays zero, and the draw is deterministic.
func TestRetryDelayJitterProperties(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, Backoff: time.Millisecond, MaxBackoff: 16 * time.Millisecond, JitterSeed: 7}
	base := func(attempt int) time.Duration {
		d := p.Backoff
		for i := 1; i < attempt && d < p.MaxBackoff; i++ {
			d *= 2
		}
		if d > p.MaxBackoff {
			d = p.MaxBackoff
		}
		return d
	}
	for token := uint64(0); token < 16; token++ {
		for attempt := 1; attempt <= 8; attempt++ {
			d := p.Delay(attempt, token)
			b := base(attempt)
			if d < b/2 || d >= b {
				t.Fatalf("Delay(%d, %d) = %v outside [%v, %v)", attempt, token, d, b/2, b)
			}
			if d2 := p.Delay(attempt, token); d2 != d {
				t.Fatalf("Delay(%d, %d) not deterministic: %v then %v", attempt, token, d, d2)
			}
		}
	}
	// Tokens must decorrelate: across 16 tokens the first-attempt delays
	// cannot all collide (that is the convoy the jitter exists to break).
	seen := map[time.Duration]bool{}
	for token := uint64(0); token < 16; token++ {
		seen[p.Delay(1, token)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("16 tokens drew only %d distinct first delays: jitter does not decorrelate", len(seen))
	}
	if d := (RetryPolicy{MaxAttempts: 3, JitterSeed: 9}).Delay(1, 0); d != 0 {
		t.Fatalf("zero Backoff jittered to %v, want 0", d)
	}
}

// TestRetryDelayUncappedDoubles checks that with no MaxBackoff the base still
// doubles per attempt, Backoff·2^(k-1), and saturates instead of overflowing
// at attempt counts far past the Duration range.
func TestRetryDelayUncappedDoubles(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, Backoff: 10 * time.Microsecond, JitterSeed: 3}
	for token := uint64(0); token < 8; token++ {
		for attempt := 1; attempt <= 3; attempt++ {
			b := p.Backoff << (attempt - 1)
			if d := p.Delay(attempt, token); d < b/2 || d >= b {
				t.Fatalf("Delay(%d, %d) = %v outside [%v, %v)", attempt, token, d, b/2, b)
			}
		}
		for _, attempt := range []int{64, 100, 1 << 20} {
			const b = time.Duration(math.MaxInt64)
			if d := p.Delay(attempt, token); d < b/2 || d >= b {
				t.Fatalf("Delay(%d, %d) = %v outside [%v, %v)", attempt, token, d, b/2, b)
			}
		}
	}
}

// TestSkipShards checks the circuit-breaker hook: a skipped shard is never
// queried, reports ErrShardSkipped with zero attempts, and the degraded
// answer is exactly the unskipped shards' rows.
func TestSkipShards(t *testing.T) {
	data := testColumn(8000, 64, 53)
	sx, err := Build(data, 64, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	r := index.Range{Lo: 3, Hi: 40}
	full, _, _, err := sx.QueryExec(context.Background(), r, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const skipped = 1
	lo, hi := sx.shards[skipped].start, sx.shards[skipped].end
	var wantRows []int64
	for _, row := range full.Positions() {
		if row < lo || row >= hi {
			wantRows = append(wantRows, row)
		}
	}
	skip := []bool{false, true, false, false}

	readsBefore := sx.DeviceStats().BlockReads
	bm, _, report, err := sx.QueryExec(context.Background(), r, ExecOptions{AllowPartial: true, SkipShards: skip})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bm.Positions(), wantRows) {
		t.Fatalf("degraded answer has %d rows, want %d (unskipped shards only)", bm.Card(), len(wantRows))
	}
	if len(report) != 1 || report[0].Shard != skipped {
		t.Fatalf("report = %+v, want exactly shard %d", report, skipped)
	}
	if !errors.Is(report[0].Err, ErrShardSkipped) {
		t.Fatalf("report error = %v, want ErrShardSkipped", report[0].Err)
	}
	if report[0].Attempts != 0 {
		t.Fatalf("skipped shard made %d attempts, want 0", report[0].Attempts)
	}
	if report[0].RowStart != lo || report[0].RowEnd != hi {
		t.Fatalf("report rows [%d,%d), want [%d,%d)", report[0].RowStart, report[0].RowEnd, lo, hi)
	}

	// The skipped shard's device must not have been touched. Per-shard reads
	// are visible through PerShardStats.
	per := sx.PerShardStats()
	_ = readsBefore
	// Run the same skip query again and diff the skipped shard's counter.
	before := per[skipped].BlockReads
	if _, _, _, err := sx.QueryExec(context.Background(), r, ExecOptions{AllowPartial: true, SkipShards: skip}); err != nil {
		t.Fatal(err)
	}
	if after := sx.PerShardStats()[skipped].BlockReads; after != before {
		t.Fatalf("skipped shard read %d blocks", after-before)
	}

	// The batch path degrades identically.
	rs := []index.Range{{Lo: 3, Hi: 40}, {Lo: 10, Hi: 20}, {Lo: 3, Hi: 40}}
	bms, _, breport, err := sx.QueryBatchExec(context.Background(), rs, ExecOptions{AllowPartial: true, SkipShards: skip})
	if err != nil {
		t.Fatal(err)
	}
	if len(breport) != 1 || !errors.Is(breport[0].Err, ErrShardSkipped) {
		t.Fatalf("batch report = %+v, want one ErrShardSkipped", breport)
	}
	if !slices.Equal(bms[0].Positions(), wantRows) || !slices.Equal(bms[2].Positions(), wantRows) {
		t.Fatal("batch degraded answers differ from the single-query degraded answer")
	}

	// Guard rails: skips without AllowPartial, and skipping every shard.
	if _, _, _, err := sx.QueryExec(context.Background(), r, ExecOptions{SkipShards: skip}); err == nil {
		t.Fatal("SkipShards without AllowPartial did not error")
	}
	all := []bool{true, true, true, true}
	if _, _, _, err := sx.QueryExec(context.Background(), r, ExecOptions{AllowPartial: true, SkipShards: all}); !errors.Is(err, ErrShardSkipped) {
		t.Fatalf("all-skipped error = %v, want ErrShardSkipped", err)
	}
	if _, _, _, err := sx.QueryBatchExec(context.Background(), rs, ExecOptions{AllowPartial: true, SkipShards: all}); !errors.Is(err, ErrShardSkipped) {
		t.Fatalf("all-skipped batch error = %v, want ErrShardSkipped", err)
	}
}
