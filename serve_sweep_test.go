//go:build unix

package secidx

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// The measuring half of hypotheses/idle-flush: closed-loop clients against
// the real Server over the benchmark's serve-overlap index shape (2^20 rows,
// sigma 1024, zipf 1.0, 4 shards, written and reopened in pread mode), hot
// overlapping 16-key ranges. run.sh copies this file into the base commit's
// tree for the timer-only arm, so it uses nothing PR 20 added.
var serveSweep = flag.Bool("serve.sweep", false, "run the hypotheses/idle-flush sweeps (configured by SWEEP_* variables)")

func sweepInts(name, def string) []int {
	s := os.Getenv(name)
	if s == "" {
		s = def
	}
	var out []int
	for _, f := range strings.Fields(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", name, err))
		}
		out = append(out, v)
	}
	return out
}

// sweepIndex builds, writes and reopens the serve-overlap index for one seed.
func sweepIndex(t *testing.T, seed int64, cacheBlocks int) *Opened {
	t.Helper()
	col := workload.Zipf(1<<20, 1024, 1.0, seed)
	ix, err := BuildSharded(col.X, 1024, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.idx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	o, err := OpenFile(path, OpenOptions{Mode: ModePread, CacheBlocks: cacheBlocks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	return o
}

// serveMissPath starts a Server over ix with no answer cache, so a policy
// comparison measures the policy. It goes through internal/serve, where no
// budget means no cache, and compiles in the older trees run.sh copies this
// file into.
func serveMissPath(ix *ShardedIndex, cfg ServerConfig) (*Server, error) {
	s, err := serve.NewServer(serve.ShardBackend{Ix: ix.sx}, cfg.toInternal())
	if err != nil {
		return nil, err
	}
	return &Server{s: s}, nil
}

func sweepRanges(n int, seed int64) []workload.Arrival {
	return workload.PoissonArrivals(n, 1, workload.ArrivalSpec{Sigma: 1024, RangeLen: 16, Theta: 1.1}, seed)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	tv := func(v syscall.Timeval) float64 { return float64(v.Sec) + float64(v.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// servedOne is one answered request of a closed-loop run.
type servedOne struct {
	at, lat time.Duration // submit time since the run began; submit → answer
	lo, hi  uint32
	res     *ServedResult
}

type closedLoopRun struct {
	served []servedOne // in submit order
	wall   time.Duration
	cpu    float64
	stats  ServerStats // the run's own share: warm-up subtracted
}

// closedLoop drives srv with the given number of clients, each submitting
// its next range when the previous one is answered, after a 5 % warm-up.
func closedLoop(t *testing.T, srv *Server, qs []workload.Arrival, clients int) closedLoopRun {
	t.Helper()
	ctx := context.Background()
	warm := len(qs) / 20
	for _, q := range qs[:warm] {
		if _, err := srv.Query(ctx, q.Lo, q.Hi); err != nil {
			t.Fatal(err)
		}
	}
	qs = qs[warm:]
	per := len(qs) / clients
	before := srv.Stats()
	parts := make([][]servedOne, clients)
	var wg sync.WaitGroup
	cpu0, t0 := cpuSeconds(), time.Now()
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range qs[c*per : (c+1)*per] {
				s0 := time.Now()
				res, err := srv.Query(ctx, q.Lo, q.Hi)
				if err != nil {
					t.Errorf("query [%d,%d]: %v", q.Lo, q.Hi, err)
					return
				}
				parts[c] = append(parts[c], servedOne{at: s0.Sub(t0), lat: time.Since(s0), lo: q.Lo, hi: q.Hi, res: res})
			}
		}()
	}
	wg.Wait()
	run := closedLoopRun{wall: time.Since(t0), cpu: cpuSeconds() - cpu0, stats: srv.Stats()}
	for _, p := range parts {
		run.served = append(run.served, p...)
	}
	slices.SortFunc(run.served, func(a, b servedOne) int { return int(a.at - b.at) })
	st := &run.stats
	st.Completed -= before.Completed
	st.Batches -= before.Batches
	st.FlushSize -= before.FlushSize
	st.FlushOverlap -= before.FlushOverlap
	st.FlushWait -= before.FlushWait
	st.FlushDeadline -= before.FlushDeadline
	st.Reads -= before.Reads
	st.SharedSaved -= before.SharedSaved
	return run
}

func quantileUS(sorted []time.Duration, q float64) float64 {
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

// TestServeSweep prints one row per (arm, cache, clients, seed) cell. The arm
// "batch" is the tree's own default policy (work-conserving here, timer-only
// at the base commit; SWEEP_LABEL names it), "nobatch" is MaxBatch 1.
func TestServeSweep(t *testing.T) {
	if !*serveSweep {
		t.Skip("needs -serve.sweep; see hypotheses/idle-flush/run.sh")
	}
	label := os.Getenv("SWEEP_LABEL")
	requests := sweepInts("SWEEP_REQUESTS", "4000")[0]
	for _, seed := range sweepInts("SWEEP_SEEDS", "42 123 456") {
		for _, cache := range sweepInts("SWEEP_CACHE", "128 0") {
			o := sweepIndex(t, int64(seed), cache)
			for _, clients := range sweepInts("SWEEP_CLIENTS", "1 2 8 32") {
				for _, arm := range []struct {
					name string
					cfg  ServerConfig
				}{{"batch", ServerConfig{}}, {"nobatch", ServerConfig{MaxBatch: 1}}} {
					srv, err := serveMissPath(o.Sharded, arm.cfg)
					if err != nil {
						t.Fatal(err)
					}
					run := closedLoop(t, srv, sweepRanges(requests, int64(seed)), clients)
					srv.Close()
					if t.Failed() {
						return
					}
					lats := make([]time.Duration, len(run.served))
					var sum time.Duration
					var members float64 // Σ BatchSize over requests: the benchmark's serve.batch_size_mean
					for i, s := range run.served {
						lats[i] = s.lat
						sum += s.lat
						members += float64(s.res.BatchSize)
					}
					slices.Sort(lats)
					st, n := run.stats, float64(len(lats))
					qps := n / run.wall.Seconds()
					mean := sum.Seconds() / n
					timed := st.FlushSize + st.FlushOverlap + st.FlushWait + st.FlushDeadline
					fmt.Printf("sweep policy=%s-%s cache=%d clients=%d seed=%d qps=%.0f p50_us=%.0f p99_us=%.0f mean_us=%.0f little_clients=%.2f "+
						"batch=%.2f idle_frac=%.3f size_frac=%.3f wait_frac=%.3f cpu_s_per_kop=%.3f cores_qps=%.0f shared_saved_frac=%.3f blocks_per_req=%.2f\n",
						label, arm.name, cache, clients, seed, qps, quantileUS(lats, 0.5), quantileUS(lats, 0.99), mean*1e6, qps*mean,
						members/n, float64(st.Batches-timed)/float64(st.Batches), float64(st.FlushSize)/float64(st.Batches),
						float64(st.FlushWait)/float64(st.Batches), run.cpu/n*1e3, 2/(run.cpu/n),
						float64(st.SharedSaved)/float64(max(st.Reads+st.SharedSaved, 1)), float64(st.Reads)/n)
				}
			}
		}
	}
}
