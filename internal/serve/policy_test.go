package serve

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/workload"
)

// The scheduler invariants of work-conserving batch forming, each checked
// against both drivers of the one policy: Server over a gated stub backend on
// the wall clock, Simulate over the same stub with a fixed service time on
// the virtual one.

// fixedService makes every simulated batch take 1 ms whatever it read.
var fixedService = ServiceModel{BatchOverhead: time.Millisecond, PerRead: time.Nanosecond}

// TestIdleVanishingPoint: with one closed-loop client the batching delay
// vanishes — every request finds an executor free, rides a batch of one
// released on the idle trigger, and never waits on a timer. MaxWait is 1 s,
// so a timer flush cannot pass by accident.
func TestIdleVanishingPoint(t *testing.T) {
	cfg := Config{MaxWait: time.Second, Workers: 2}
	const n = 200

	t.Run("server", func(t *testing.T) {
		s, err := NewServer(&stubBackend{shards: 1}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		waits := make([]time.Duration, n)
		for i := range waits {
			r := s.Submit(context.Background(), uint32(i), uint32(i))
			if r.Err != nil || r.BatchSize != 1 || r.Trigger != "idle" {
				t.Fatalf("request %d: err=%v batch=%d trigger=%q, want a batch of 1 on idle", i, r.Err, r.BatchSize, r.Trigger)
			}
			waits[i] = r.Wait
		}
		slices.Sort(waits)
		if p99 := waits[n*99/100]; p99 >= cfg.MaxWait/4 {
			t.Fatalf("wait p99 = %v with both executors free, want far below MaxWait %v", p99, cfg.MaxWait)
		}
		s.Close()
		if st := s.Stats(); st.Batches != n || st.FlushIdle != n {
			t.Fatalf("batches=%d idle flushes=%d, want %d/%d", st.Batches, st.FlushIdle, n, n)
		}
	})

	t.Run("simulate", func(t *testing.T) {
		// The closed loop on the virtual clock: the next request arrives
		// after the previous one's service time has passed.
		arrivals := make([]workload.Arrival, n)
		for i := range arrivals {
			arrivals[i] = workload.Arrival{At: time.Duration(i) * 2 * time.Millisecond, Lo: uint32(i), Hi: uint32(i)}
		}
		res := Simulate(&stubBackend{shards: 1}, nil, arrivals, SimConfig{Config: cfg, Service: fixedService})
		for i, o := range res.Outcomes {
			if o.Err != nil || o.Batch != 1 || o.Latency != fixedService.Time(index.QueryStats{Reads: 1}) {
				t.Fatalf("arrival %d: %+v, want a batch of 1 with no queueing delay", i, o)
			}
		}
		if st := res.Stats; st.Batches != n || st.FlushIdle != n {
			t.Fatalf("batches=%d idle flushes=%d, want %d/%d", st.Batches, st.FlushIdle, n, n)
		}
	})
}

// traceOutcome is what one driver made of a scripted arrival trace.
type traceOutcome struct {
	batches [][]uint32 // member range starts of every backend call, in order
	shed    []int      // arrivals refused with ErrOverloaded
	flushes [flushTriggers]uint64
}

func outcomeOf(be *stubBackend, st Stats, shed []int) traceOutcome {
	o := traceOutcome{shed: shed}
	for _, rs := range be.seen {
		var b []uint32
		for _, r := range rs {
			b = append(b, r.Lo)
		}
		o.batches = append(o.batches, b)
	}
	o.flushes = [flushTriggers]uint64{flushIdle: st.FlushIdle, flushSize: st.FlushSize, flushOverlap: st.FlushOverlap,
		flushDeadline: st.FlushDeadline, flushWait: st.FlushWait, flushClose: st.FlushClose}
	return o
}

// TestBatchGrowsBehindBusyExecutor scripts one trace per case — arrival 0
// finds the single executor free, arrivals 1…n-1 come while its batch is in
// service — and requires Server and Simulate to cut it into the same batches
// on the same triggers: the forming batch absorbs what arrives during the
// hold and is released whole at completion, splits on size (or overlap) when
// it fills, and admission sheds at MaxQueue without Submit ever blocking.
func TestBatchGrowsBehindBusyExecutor(t *testing.T) {
	base := Config{Workers: 1, MaxBatch: 4, MaxQueue: 8, MaxWait: time.Second}
	overlap := base
	overlap.MaxTotal = 6
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
		same bool // every arrival after the first asks for one range
		want traceOutcome
	}{
		{name: "grows", cfg: base, n: 4, want: traceOutcome{
			batches: [][]uint32{{0}, {1, 2, 3}},
			flushes: [flushTriggers]uint64{flushIdle: 2}}},
		{name: "splits-on-size", cfg: base, n: 7, want: traceOutcome{
			batches: [][]uint32{{0}, {1, 2, 3, 4}, {5, 6}},
			flushes: [flushTriggers]uint64{flushIdle: 2, flushSize: 1}}},
		{name: "splits-on-overlap", cfg: overlap, n: 9, same: true, want: traceOutcome{
			batches: [][]uint32{{0}, {1, 1, 1, 1, 1, 1}, {1, 1}},
			flushes: [flushTriggers]uint64{flushIdle: 2, flushOverlap: 1}}},
		{name: "sheds-at-maxqueue", cfg: base, n: 12, want: traceOutcome{
			batches: [][]uint32{{0}, {1, 2, 3, 4}, {5, 6, 7, 8}},
			shed:    []int{9, 10, 11},
			flushes: [flushTriggers]uint64{flushIdle: 1, flushSize: 2}}},
	} {
		lo := func(i int) uint32 {
			if tc.same && i > 0 {
				return 1
			}
			return uint32(i)
		}
		t.Run(tc.name+"/server", func(t *testing.T) {
			be := &stubBackend{shards: 1, block: make(chan struct{})}
			s, err := NewServer(be, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			resps := make([]Response, tc.n)
			var wg sync.WaitGroup
			for i := range resps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					resps[i] = s.Submit(context.Background(), lo(i), lo(i))
				}()
				// Arrival i is in (or past) the intake queue, or shed, before
				// arrival i+1 is submitted: the trace's order is the queue's.
				waitFor(t, "admission", func() bool { st := s.Stats(); return st.Admitted+st.Shed == uint64(i+1) })
				// And the dispatcher has taken it off the queue, unless a
				// sealed batch holds it there: a dispatcher still parked with
				// the forming batch on offer when the backend lets go would
				// hand over a batch the trace does not cut.
				waitFor(t, "the dispatcher", func() bool { return len(s.intake) == 0 || s.holding.Load() })
				if i == 0 {
					waitFor(t, "the backend to hold batch 0", func() bool { c, _, _ := be.stats(); return c == 1 })
				}
			}
			close(be.block)
			wg.Wait()
			s.Close()
			var shed []int
			for i, r := range resps {
				if errors.Is(r.Err, ErrOverloaded) {
					shed = append(shed, i)
				} else if r.Err != nil {
					t.Fatalf("arrival %d: %v", i, r.Err)
				}
			}
			st := s.Stats()
			if got := outcomeOf(be, st, shed); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("server cut the trace into\n%+v, want\n%+v", got, tc.want)
			}
			if flushSum(st) != st.Batches || st.QueueMax > int64(tc.cfg.MaxQueue) {
				t.Fatalf("batches=%d but flush counts sum to %d; queue high-water %d of %d", st.Batches, flushSum(st), st.QueueMax, tc.cfg.MaxQueue)
			}
		})
		t.Run(tc.name+"/simulate", func(t *testing.T) {
			arrivals := make([]workload.Arrival, tc.n)
			for i := range arrivals {
				arrivals[i] = workload.Arrival{At: time.Duration(i) * time.Microsecond, Lo: lo(i), Hi: lo(i)}
			}
			be := &stubBackend{shards: 1}
			res := Simulate(be, nil, arrivals, SimConfig{Config: tc.cfg, Service: fixedService})
			var shed []int
			for i, o := range res.Outcomes {
				if o.Shed {
					shed = append(shed, i)
				} else if o.Err != nil {
					t.Fatalf("arrival %d: %v", i, o.Err)
				}
			}
			if got := outcomeOf(be, res.Stats, shed); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("simulator cut the trace into\n%+v, want\n%+v", got, tc.want)
			}
			if flushSum(res.Stats) != res.Stats.Batches {
				t.Fatalf("batches=%d but flush counts sum to %d", res.Stats.Batches, flushSum(res.Stats))
			}
		})
	}
}

// TestServerDropsCancelledMembers: a request whose caller has gone before
// its batch starts costs the backend nothing — the batch runs without its
// range, the request is answered with its context's error and counted
// Failed — and a batch left with no live member never reaches the backend.
func TestServerDropsCancelledMembers(t *testing.T) {
	be := &stubBackend{shards: 1, block: make(chan struct{})}
	s, err := NewServer(be, Config{Workers: 1, MaxWait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	submit := func(ctx context.Context, lo uint32, want error) {
		t.Helper()
		admitted := s.Stats().Admitted
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := s.Submit(ctx, lo, lo); !errors.Is(r.Err, want) {
				t.Errorf("submit %d: err=%v, want %v", lo, r.Err, want)
			}
		}()
		waitFor(t, "admission", func() bool { return s.Stats().Admitted == admitted+1 })
	}
	gone, cancel := context.WithCancel(context.Background())

	submit(context.Background(), 0, nil)
	waitFor(t, "the backend to hold batch 0", func() bool { c, _, _ := be.stats(); return c == 1 })
	submit(context.Background(), 1, nil)
	submit(gone, 2, context.Canceled)
	submit(context.Background(), 3, nil)
	cancel()
	be.block <- struct{}{} // batch 0 done; {1, 3} starts and is held
	waitFor(t, "the backend to hold batch 1", func() bool { c, _, _ := be.stats(); return c == 2 })
	submit(gone, 4, context.Canceled) // a batch of its own, dead on arrival
	close(be.block)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	want := [][]index.Range{{{Lo: 0, Hi: 0}}, {{Lo: 1, Hi: 1}, {Lo: 3, Hi: 3}}}
	if !reflect.DeepEqual(be.seen, want) {
		t.Fatalf("backend saw %v, want %v: cancelled members' ranges must not be read", be.seen, want)
	}
	st := s.Stats()
	if st.Admitted != 5 || st.Completed != 3 || st.Failed != 2 || st.QueueDepth != 0 || flushSum(st) != st.Batches {
		t.Fatalf("admitted=%d completed=%d failed=%d depth=%d batches=%d flushes=%d, want 5/3/2/0 and batches = flushes",
			st.Admitted, st.Completed, st.Failed, st.QueueDepth, st.Batches, flushSum(st))
	}
}
