//go:build unix

package secidx

import (
	"container/list"
	"context"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

// The measuring half of hypotheses/answer-cache and hypotheses/answer-admission,
// on serve_sweep_test.go's harness: the answer-cache budget × closed-loop
// clients × skew of the range starts, and beside each observed hit rate the
// ones two replays of the same request list predict: the cache the server
// ships, and the plain LRU it replaced.

// storedAnswers is a serve.Backend answering every range from a map.
type storedAnswers map[Range]*cbitmap.Bitmap

func (storedAnswers) Shards() int { return 1 }

func (s storedAnswers) QueryBatch(_ context.Context, rs []index.Range, _ shard.ExecOptions) ([]*cbitmap.Bitmap, index.QueryStats, []shard.ShardError, error) {
	out := make([]*cbitmap.Bitmap, len(rs))
	for i, r := range rs {
		out[i] = s[r]
	}
	return out, index.QueryStats{}, nil, nil
}

// storeAnswers answers every distinct range of qs on ix.
func storeAnswers(t *testing.T, ix *ShardedIndex, qs []workload.Arrival) storedAnswers {
	t.Helper()
	answers := storedAnswers{}
	for _, q := range qs {
		r := Range{Lo: q.Lo, Hi: q.Hi}
		if _, ok := answers[r]; !ok {
			res, _, err := ix.Query(q.Lo, q.Hi)
			if err != nil {
				t.Fatal(err)
			}
			answers[r] = res.bm
		}
	}
	return answers
}

// answerBytes is serve.answerCost: what the cache charges for retaining bm.
func answerBytes(bm *cbitmap.Bitmap) int64 { return bm.FootprintBytes() + 192 }

// hitFracs returns the fraction of the requests from the first-th on that
// hit, and the fraction of their answer bytes that did.
func hitFracs(qs []workload.Arrival, answers storedAnswers, hit []bool, first int) (hitFrac, byteFrac float64) {
	var hits, n, hitBytes, bytes int64
	for i, q := range qs[first:] {
		c := answerBytes(answers[Range{Lo: q.Lo, Hi: q.Hi}])
		n++
		bytes += c
		if hit[first+i] {
			hits++
			hitBytes += c
		}
	}
	return float64(hits) / float64(max(n, 1)), float64(hitBytes) / float64(max(bytes, 1))
}

// lruReplay replays the request list, in list order and one at a time,
// through a byte-budgeted LRU charging each entry what the cache would, and
// reports which requests hit.
func lruReplay(qs []workload.Arrival, answers storedAnswers, budget int64) []bool {
	entries := map[Range]*list.Element{}
	var lru list.List
	var held int64
	hit := make([]bool, len(qs))
	for i, q := range qs {
		r := Range{Lo: q.Lo, Hi: q.Hi}
		c := answerBytes(answers[r])
		if e, ok := entries[r]; ok {
			hit[i] = true
			lru.MoveToFront(e)
			continue
		}
		if c > budget {
			continue
		}
		for held+c > budget {
			old := lru.Remove(lru.Back()).(Range)
			delete(entries, old)
			held -= answerBytes(answers[old])
		}
		entries[r] = lru.PushFront(r)
		held += c
	}
	return hit
}

// gatedReplay replays the request list, in list order and one at a time,
// through the cache the server ships — Simulate over the stored answers with
// arrivals a second apart, so each is answered before the next arrives — and
// reports which requests hit.
func gatedReplay(qs []workload.Arrival, answers storedAnswers, budget int64) []bool {
	spaced := make([]workload.Arrival, len(qs))
	for i, q := range qs {
		spaced[i] = workload.Arrival{At: time.Duration(i) * time.Second, Lo: q.Lo, Hi: q.Hi}
	}
	run := serve.Simulate(answers, nil, spaced, serve.SimConfig{Config: serve.Config{AnswerCacheBytes: budget}})
	hit := make([]bool, len(qs))
	for i, o := range run.Outcomes {
		hit[i] = o.Trigger == "cache"
	}
	return hit
}

// TestAnswerCacheReplayNotBelowLRU: on a small index, for range starts of
// skew 0, 0.8 and 1.1 and budgets of 1/32 … 1/2 of the distinct answers'
// bytes, the shipped cache hits at least as often as an LRU would, less 0.005.
func TestAnswerCacheReplayNotBelowLRU(t *testing.T) {
	col := workload.Zipf(1<<16, 1024, 1.0, 5)
	ix, err := BuildSharded(col.X, 1024, ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0, 0.8, 1.1} {
		qs := workload.PoissonArrivals(2000, 1, workload.ArrivalSpec{Sigma: 1024, RangeLen: 16, Theta: theta}, 5)
		answers := storeAnswers(t, ix, qs)
		var total int64
		for _, bm := range answers {
			total += answerBytes(bm)
		}
		for _, div := range []int64{32, 16, 8, 4, 2} {
			lru, _ := hitFracs(qs, answers, lruReplay(qs, answers, total/div), 0)
			gated, _ := hitFracs(qs, answers, gatedReplay(qs, answers, total/div), 0)
			if gated < lru-0.005 {
				t.Errorf("theta %.1f, budget 1/%d of %d bytes: gated hit rate %.3f, LRU %.3f", theta, div, total, gated, lru)
			}
		}
	}
}

// distinctRanges is the vanishing point's request list: no range occurs twice.
func distinctRanges(n int) []workload.Arrival {
	out := make([]workload.Arrival, n)
	for i := range out {
		lo := uint32(i*389) % 1000 // 389 is coprime to 1000: every start once per length
		out[i] = workload.Arrival{Lo: lo, Hi: lo + 8 + uint32(i/1000)}
	}
	return out
}

// shiftedRanges is the devil's advocate's request list: zipf(1.1) starts
// whose hot set moves by half the alphabet halfway through.
func shiftedRanges(n int, seed int64) []workload.Arrival {
	spec := workload.ArrivalSpec{Sigma: 1024, RangeLen: 16, Theta: 1.1}
	later := workload.PoissonArrivals(n-n/2, 1, spec, seed+1)
	for i, q := range later {
		lo := (q.Lo + 512) % (1024 - 16 + 1)
		later[i] = workload.Arrival{Lo: lo, Hi: lo + 15}
	}
	return append(workload.PoissonArrivals(n/2, 1, spec, seed), later...)
}

// TestAnswerCacheSweep prints one row per (seed, skew, budget) cell with the
// two replays' hit rates — from the closed loop's warm-up on, and over the
// list's second half alone — and one per (seed, skew, budget, clients) cell
// with the observed ones. SWEEP_THETAS lists zipf exponents of the range
// starts; "distinct" is the all-distinct list, "shift" the moving hot set.
// SWEEP_BUDGETS_KIB lists answer-cache budgets, 0 = off.
func TestAnswerCacheSweep(t *testing.T) {
	if !*serveSweep {
		t.Skip("needs -serve.sweep; see hypotheses/answer-admission/run.sh")
	}
	requests := sweepInts("SWEEP_REQUESTS", "4000")[0]
	thetas := os.Getenv("SWEEP_THETAS")
	if thetas == "" {
		thetas = "distinct 0 0.8 1.1"
	}
	for _, seed := range sweepInts("SWEEP_SEEDS", "42 123 456") {
		o := sweepIndex(t, int64(seed), 128)
		for _, th := range strings.Fields(thetas) {
			var qs []workload.Arrival
			switch th {
			case "distinct":
				qs = distinctRanges(requests)
			case "shift":
				qs = shiftedRanges(requests, int64(seed))
			default:
				theta, err := strconv.ParseFloat(th, 64)
				if err != nil {
					t.Fatal(err)
				}
				qs = workload.PoissonArrivals(requests, 1, workload.ArrivalSpec{Sigma: 1024, RangeLen: 16, Theta: theta}, int64(seed))
			}
			answers := storeAnswers(t, o.Sharded, qs)
			var meanBytes float64
			for _, q := range qs {
				meanBytes += float64(answerBytes(answers[Range{Lo: q.Lo, Hi: q.Hi}])) / float64(len(qs))
			}
			for _, kib := range sweepInts("SWEEP_BUDGETS_KIB", "0 512 1024 2048 4096 8192") {
				budget := int64(kib) << 10
				gatedHit, lruHit := gatedReplay(qs, answers, budget), lruReplay(qs, answers, budget)
				gated, gatedBytes := hitFracs(qs, answers, gatedHit, len(qs)/20)
				lru, lruBytes := hitFracs(qs, answers, lruHit, len(qs)/20)
				gatedLate, _ := hitFracs(qs, answers, gatedHit, len(qs)/2)
				lruLate, _ := hitFracs(qs, answers, lruHit, len(qs)/2)
				fmt.Printf("cachereplay seed=%d theta=%s budget_kib=%d gated_hit=%.3f lru_hit=%.3f gated_byte_hit=%.3f lru_byte_hit=%.3f gated_late=%.3f lru_late=%.3f\n",
					seed, th, kib, gated, lru, gatedBytes, lruBytes, gatedLate, lruLate)
				for _, clients := range sweepInts("SWEEP_CLIENTS", "1 2 8 32") {
					srv, err := serveBudget(o.Sharded, ServerConfig{}, budget)
					if err != nil {
						t.Fatal(err)
					}
					run := closedLoop(t, srv, qs, clients)
					st := srv.Stats()
					srv.Close()
					if t.Failed() {
						return
					}
					lats := make([]time.Duration, len(run.served))
					var hits, hitBits, bits float64
					var waits []time.Duration
					for i, s := range run.served {
						lats[i] = s.lat
						bits += float64(s.res.Result.SizeBits())
						if s.res.Trigger == "cache" {
							hits++
							hitBits += float64(s.res.Result.SizeBits())
						} else {
							waits = append(waits, s.res.Wait)
						}
					}
					slices.Sort(lats)
					slices.Sort(waits)
					waitP50 := 0.0
					if len(waits) > 0 {
						waitP50 = quantileUS(waits, 0.5)
					}
					n := float64(len(lats))
					fmt.Printf("cachesweep seed=%d theta=%s budget_kib=%d clients=%d distinct=%d mean_answer_bytes=%.0f qps=%.0f p50_us=%.1f p99_us=%.0f cpu_s_per_kop=%.3f "+
						"hit=%.3f byte_hit=%.3f gated_hit=%.3f gated_byte_hit=%.3f lru_hit=%.3f lru_byte_hit=%.3f "+
						"entries=%d held_kib=%d evictions=%d declined=%d blocks_per_req=%.2f miss_wait_p50_us=%.0f\n",
						seed, th, kib, clients, len(answers), meanBytes, n/run.wall.Seconds(), quantileUS(lats, 0.5), quantileUS(lats, 0.99), run.cpu/n*1e3,
						hits/n, hitBits/max(bits, 1), gated, gatedBytes, lru, lruBytes,
						st.CacheEntries, st.CacheBytes>>10, st.CacheEvictions, st.CacheDeclined, float64(run.stats.Reads)/n, waitP50)
				}
			}
		}
	}
}
