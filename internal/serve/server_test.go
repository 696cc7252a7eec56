package serve

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/shard"
)

// stubBackend is a controllable backend: it can block (to saturate the
// executors), fail chosen shards, and records the skip set of every call.
type stubBackend struct {
	shards int
	block  chan struct{} // when non-nil, QueryBatch waits for a token or for it to close

	mu    sync.Mutex
	calls int
	sizes []int
	seen  [][]index.Range // the ranges of every call, in call order
	skips [][]bool
	fail  map[int]error // shard → failure to report
}

func (s *stubBackend) Shards() int { return s.shards }

func (s *stubBackend) setFail(shard int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail == nil {
		s.fail = map[int]error{}
	}
	if err == nil {
		delete(s.fail, shard)
	} else {
		s.fail[shard] = err
	}
}

func (s *stubBackend) QueryBatch(ctx context.Context, rs []index.Range, eo shard.ExecOptions) ([]*cbitmap.Bitmap, index.QueryStats, []shard.ShardError, error) {
	s.mu.Lock()
	s.calls++
	s.sizes = append(s.sizes, len(rs))
	s.seen = append(s.seen, slices.Clone(rs))
	skip := append([]bool(nil), eo.SkipShards...)
	s.skips = append(s.skips, skip)
	var report []shard.ShardError
	failedAll := true
	for i := 0; i < s.shards; i++ {
		if i < len(skip) && skip[i] {
			report = append(report, shard.ShardError{Shard: i, Err: shard.ErrShardSkipped})
			continue
		}
		if err, ok := s.fail[i]; ok {
			report = append(report, shard.ShardError{Shard: i, Err: err, Attempts: 1})
			continue
		}
		failedAll = false
	}
	s.mu.Unlock()
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return nil, index.QueryStats{}, nil, ctx.Err()
		}
	}
	if failedAll {
		// Mirror the shard layer: a degraded answer needs ≥1 healthy shard.
		return nil, index.QueryStats{}, nil, errShardDown
	}
	return make([]*cbitmap.Bitmap, len(rs)), index.QueryStats{Reads: len(rs)}, report, nil
}

func (s *stubBackend) stats() (calls int, sizes []int, skips [][]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, append([]int(nil), s.sizes...), append([][]bool(nil), s.skips...)
}

// TestServerBatchesConcurrentArrivals: concurrent submits complete, and the
// dispatcher coalesces those that arrive behind a busy executor into fewer
// batches than requests (the backend is held until all are admitted; a free
// executor would rightly take each alone).
func TestServerBatchesConcurrentArrivals(t *testing.T) {
	be := &stubBackend{shards: 2, block: make(chan struct{})}
	s, err := NewServer(be, Config{MaxBatch: 8, MaxWait: 2 * time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if r := s.Submit(context.Background(), uint32(i%4), uint32(i%4+3)); r.Err != nil {
				t.Errorf("submit %d: %v", i, r.Err)
			}
		}(i)
	}
	waitFor(t, "every submit admitted", func() bool { return s.Stats().Admitted == n })
	close(be.block)
	wg.Wait()
	st := s.Stats()
	if st.Admitted != n || st.Completed != n || st.Shed != 0 {
		t.Fatalf("admitted=%d completed=%d shed=%d, want %d/%d/0", st.Admitted, st.Completed, st.Shed, n, n)
	}
	if st.Batches >= n {
		t.Fatalf("%d batches for %d concurrent requests: no batching happened", st.Batches, n)
	}
	if got := flushSum(st); got != st.Batches {
		t.Fatalf("flush trigger counts sum to %d, want %d batches", got, st.Batches)
	}
	if st.Reads <= 0 || st.QueueMax <= 0 {
		t.Fatalf("stats missing backend I/O or queue high-water: %+v", st)
	}
}

// TestServerShedsInsteadOfBlocking saturates a server whose backend is
// wedged: admission must stay bounded at MaxQueue and shed the excess with
// ErrOverloaded immediately — never block the caller, never queue deeper.
func TestServerShedsInsteadOfBlocking(t *testing.T) {
	release := make(chan struct{})
	be := &stubBackend{shards: 1, block: release}
	const maxQueue, maxBatch = 8, 4
	s, err := NewServer(be, Config{MaxQueue: maxQueue, MaxBatch: maxBatch, MaxTotal: maxBatch, MaxWait: time.Millisecond, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const n = 40
	resps := make([]Response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = s.Submit(context.Background(), 0, 3)
		}(i)
	}

	// Sheds must appear while the backend is wedged, and promptly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Shed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no sheds despite a wedged backend and 5x oversubmission")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	var shed, served uint64
	for i, r := range resps {
		switch {
		case r.Err == nil:
			served++
		case errors.Is(r.Err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("submit %d: unexpected error %v", i, r.Err)
		}
	}
	if shed == 0 {
		t.Fatal("no submit observed ErrOverloaded")
	}
	if st.Shed != shed || st.Admitted != served || st.Completed != served {
		t.Fatalf("stats shed=%d admitted=%d completed=%d vs observed shed=%d served=%d",
			st.Shed, st.Admitted, st.Completed, shed, served)
	}
	if st.QueueMax > maxQueue {
		t.Fatalf("queue high-water %d exceeded MaxQueue %d", st.QueueMax, maxQueue)
	}
	if st.Admitted+st.Shed != n {
		t.Fatalf("admitted %d + shed %d != %d submits", st.Admitted, st.Shed, n)
	}
}

// TestServerBreakerSkipsAndHeals: a failing shard opens its breaker after
// Threshold batches, subsequent batches skip it (the backend sees the skip
// set), and once the shard heals a post-cooldown probe closes the breaker.
func TestServerBreakerSkipsAndHeals(t *testing.T) {
	be := &stubBackend{shards: 2}
	be.setFail(1, errShardDown)
	cool := 50 * time.Millisecond
	s, err := NewServer(be, Config{
		MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1,
		AllowPartial: true,
		Breaker:      BreakerConfig{Threshold: 2, Cooldown: cool},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	submit := func() Response { return s.Submit(context.Background(), 0, 3) }

	// Two failing batches open the breaker; both still answer (degraded).
	for i := 0; i < 2; i++ {
		if r := submit(); r.Err != nil || len(r.Report) != 1 {
			t.Fatalf("degraded submit %d: err=%v report=%v", i, r.Err, r.Report)
		}
	}
	st := s.Stats()
	if st.BreakerOpens != 1 || !st.BreakerOpen[1] || st.BreakerOpen[0] {
		t.Fatalf("after threshold failures: opens=%d open=%v", st.BreakerOpens, st.BreakerOpen)
	}

	// While open, the backend must be told to skip shard 1.
	r := submit()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	found := false
	for _, se := range r.Report {
		if se.Shard == 1 && errors.Is(se.Err, shard.ErrShardSkipped) {
			found = true
		}
	}
	if !found {
		t.Fatalf("open breaker did not skip shard 1: report=%v", r.Report)
	}
	_, _, skips := be.stats()
	last := skips[len(skips)-1]
	if len(last) != 2 || !last[1] {
		t.Fatalf("backend saw skip set %v, want shard 1 skipped", last)
	}

	// Heal the shard, wait out the cooldown: a probe closes the breaker and
	// answers stop being degraded.
	be.setFail(1, nil)
	time.Sleep(cool + 10*time.Millisecond)
	if r := submit(); r.Err != nil || len(r.Report) != 0 {
		t.Fatalf("post-heal probe: err=%v report=%v, want clean answer", r.Err, r.Report)
	}
	st = s.Stats()
	if st.BreakerCloses != 1 || st.BreakerOpen[1] {
		t.Fatalf("probe did not close the breaker: closes=%d open=%v", st.BreakerCloses, st.BreakerOpen)
	}
	if st.Degraded == 0 || st.Degraded >= st.Completed {
		t.Fatalf("degraded=%d completed=%d, want some but not all degraded", st.Degraded, st.Completed)
	}
}

// TestServerAllBreakersOpenFailsFast: with the only shard's breaker open the
// server answers ErrNoShards without touching the backend, until the
// cooldown admits a probe again.
func TestServerAllBreakersOpenFailsFast(t *testing.T) {
	be := &stubBackend{shards: 1}
	be.setFail(0, errShardDown)
	cool := 80 * time.Millisecond
	s, err := NewServer(be, Config{
		MaxBatch: 1, MaxWait: time.Millisecond, Workers: 1,
		AllowPartial: true,
		Breaker:      BreakerConfig{Threshold: 1, Cooldown: cool},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One failure opens the sole breaker. The stub mirrors the shard layer:
	// zero healthy shards is a fatal error, not a degraded answer.
	if r := s.Submit(context.Background(), 0, 3); !errors.Is(r.Err, errShardDown) {
		t.Fatalf("first submit err=%v, want %v", r.Err, errShardDown)
	}
	calls, _, _ := be.stats()

	// In cooldown: fail fast, backend untouched.
	r := s.Submit(context.Background(), 0, 3)
	if !errors.Is(r.Err, ErrNoShards) {
		t.Fatalf("open-breaker submit err=%v, want ErrNoShards", r.Err)
	}
	if c, _, _ := be.stats(); c != calls {
		t.Fatalf("backend called %d times during cooldown, want %d (untouched)", c, calls)
	}

	// After cooldown the probe reaches the (healed) backend and heals.
	be.setFail(0, nil)
	time.Sleep(cool + 10*time.Millisecond)
	if r := s.Submit(context.Background(), 0, 3); r.Err != nil {
		t.Fatalf("post-cooldown probe err=%v", r.Err)
	}
	if st := s.Stats(); st.BreakerOpen[0] || st.BreakerCloses != 1 {
		t.Fatalf("breaker did not heal: %+v", st)
	}
}

// TestServerCloseDrainsAdmitted: Close answers every admitted request before
// returning, later Submits get ErrClosed, Close is idempotent, and no
// goroutines leak — for a clean close, a close under load, and a close with
// open breakers.
func TestServerCloseDrainsAdmitted(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		before := runtime.NumGoroutine()
		be := &stubBackend{shards: 2}
		s, err := NewServer(be, Config{MaxWait: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if r := s.Submit(context.Background(), 0, 3); r.Err != nil {
			t.Fatal(r.Err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if r := s.Submit(context.Background(), 0, 3); !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("submit after close: %v, want ErrClosed", r.Err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		assertNoLeaks(t, before)
	})

	t.Run("under-load", func(t *testing.T) {
		before := runtime.NumGoroutine()
		release := make(chan struct{})
		be := &stubBackend{shards: 2, block: release}
		s, err := NewServer(be, Config{MaxQueue: 64, MaxBatch: 4, MaxWait: time.Millisecond, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		const n = 32
		resps := make([]Response, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i] = s.Submit(context.Background(), uint32(i%8), uint32(i%8+1))
			}(i)
		}
		// Close while the backend is wedged and requests are queued; then
		// release the backend so the drain can finish.
		time.Sleep(5 * time.Millisecond)
		closed := make(chan error)
		go func() { closed <- s.Close() }()
		time.Sleep(5 * time.Millisecond)
		close(release)
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		var served, rejected int
		for i, r := range resps {
			switch {
			case r.Err == nil:
				served++
			case errors.Is(r.Err, ErrClosed), errors.Is(r.Err, ErrOverloaded):
				rejected++
			default:
				t.Fatalf("submit %d: unexpected error %v", i, r.Err)
			}
		}
		st := s.Stats()
		if uint64(served) != st.Completed || st.Admitted != st.Completed {
			t.Fatalf("served=%d rejected=%d but stats admitted=%d completed=%d: admitted requests lost",
				served, rejected, st.Admitted, st.Completed)
		}
		assertNoLeaks(t, before)
	})

	t.Run("open-breakers", func(t *testing.T) {
		before := runtime.NumGoroutine()
		be := &stubBackend{shards: 2}
		be.setFail(1, errShardDown)
		s, err := NewServer(be, Config{
			MaxBatch: 1, MaxWait: time.Millisecond,
			AllowPartial: true,
			Breaker:      BreakerConfig{Threshold: 1, Cooldown: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := s.Submit(context.Background(), 0, 3); r.Err != nil {
			t.Fatal(r.Err)
		}
		st := s.Stats()
		if !st.BreakerOpen[1] {
			t.Fatal("breaker did not open")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		assertNoLeaks(t, before)
	})
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// assertNoLeaks fails the test if the goroutine count has not returned to
// its starting level shortly after a server shutdown.
func assertNoLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// flushSum adds the per-trigger flush counts; it equals Stats.Batches (the
// executor counts both when a batch starts).
func flushSum(st Stats) uint64 {
	return st.FlushIdle + st.FlushSize + st.FlushOverlap + st.FlushWait + st.FlushDeadline + st.FlushClose
}
