//go:build unix

package secidx

import (
	"container/list"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// The measuring half of hypotheses/answer-cache, on serve_sweep_test.go's
// harness: the answer-cache budget × closed-loop clients × skew of the range
// starts, the hit rate an LRU replay of the same request list predicts beside
// the one observed, and the replay of the admit-on-second-sighting variant.

// sweepCost is serve.answerCost: what the cache charges for retaining res.
func sweepCost(res *Result) int64 { return res.bm.FootprintBytes() + 192 }

// lruReplay replays the request list, in list order and one at a time,
// through a byte-budgeted LRU charging cost[range] per entry, and returns the
// fraction of the requests after the first warm that hit and the fraction of
// their answer bytes that did. With second, a range is admitted only the
// second time it misses.
func lruReplay(qs []workload.Arrival, cost map[Range]int64, budget int64, warm int, second bool) (hitFrac, byteFrac float64) {
	entries := map[Range]*list.Element{}
	var lru list.List
	seen := map[Range]bool{}
	var held, hits, n, hitBytes, bytes int64
	for i, q := range qs {
		r := Range{Lo: q.Lo, Hi: q.Hi}
		c := cost[r]
		e, ok := entries[r]
		if i >= warm {
			n++
			bytes += c
			if ok {
				hits++
				hitBytes += c
			}
		}
		if ok {
			lru.MoveToFront(e)
			continue
		}
		if admit := !second || seen[r]; !admit || c > budget {
			seen[r] = true
			continue
		}
		for held+c > budget {
			old := lru.Remove(lru.Back()).(Range)
			delete(entries, old)
			held -= cost[old]
		}
		entries[r] = lru.PushFront(r)
		held += c
	}
	return float64(hits) / float64(max(n, 1)), float64(hitBytes) / float64(max(bytes, 1))
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

// TestAnswerCacheSweep prints one row per (seed, skew, budget, clients) cell.
// SWEEP_THETAS lists zipf exponents of the range starts; "distinct" is the
// all-distinct list. SWEEP_BUDGETS_KIB lists answer-cache budgets, 0 = off.
func TestAnswerCacheSweep(t *testing.T) {
	if !*serveSweep {
		t.Skip("needs -serve.sweep; see hypotheses/answer-cache/run.sh")
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
			if th == "distinct" {
				qs = distinctRanges(requests)
			} else {
				theta, err := strconv.ParseFloat(th, 64)
				if err != nil {
					t.Fatal(err)
				}
				qs = workload.PoissonArrivals(requests, 1, workload.ArrivalSpec{Sigma: 1024, RangeLen: 16, Theta: theta}, int64(seed))
			}
			// Every distinct range's answer size, for the replay.
			cost := map[Range]int64{}
			var meanBytes float64
			for _, q := range qs {
				r := Range{Lo: q.Lo, Hi: q.Hi}
				if _, ok := cost[r]; !ok {
					res, _, err := o.Sharded.Query(q.Lo, q.Hi)
					if err != nil {
						t.Fatal(err)
					}
					cost[r] = sweepCost(res)
				}
				meanBytes += float64(cost[r]) / float64(len(qs))
			}
			for _, kib := range sweepInts("SWEEP_BUDGETS_KIB", "0 512 1024 2048 4096 8192") {
				budget := int64(kib) << 10
				pred, predBytes := lruReplay(qs, cost, budget, len(qs)/20, false)
				pred2, pred2Bytes := lruReplay(qs, cost, budget, len(qs)/20, true)
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
						"hit=%.3f byte_hit=%.3f pred_hit=%.3f pred_byte_hit=%.3f second_hit=%.3f second_byte_hit=%.3f "+
						"entries=%d held_kib=%d evictions=%d blocks_per_req=%.2f miss_wait_p50_us=%.0f\n",
						seed, th, kib, clients, len(cost), meanBytes, n/run.wall.Seconds(), quantileUS(lats, 0.5), quantileUS(lats, 0.99), run.cpu/n*1e3,
						hits/n, hitBits/max(bits, 1), pred, predBytes, pred2, pred2Bytes,
						st.CacheEntries, st.CacheBytes>>10, st.CacheEvictions, float64(run.stats.Reads)/n, waitP50)
				}
			}
		}
	}
}
