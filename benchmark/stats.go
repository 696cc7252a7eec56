package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailPercentile returns the highest of p99, p95, p90, p75 that has at least
// ten of n samples beyond it, or 50 when none has. The *_p99_us metrics are
// p99 from 1000 samples up; below that the report says which percentile the
// sample supported.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// series collects the latencies of one operation type. mark starts a new
// round; a run that interference disturbs for a moment then spoils one
// round's percentiles and not the reported median of rounds.
type series struct {
	ns     []int64
	rounds []int // index of each round's first sample
}

func (s *series) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }

func (s *series) mark() {
	if n := len(s.rounds); n > 0 && s.rounds[n-1] == len(s.ns) {
		return
	}
	s.rounds = append(s.rounds, len(s.ns))
}

func (s *series) merge(o *series) { s.ns = append(s.ns, o.ns...) }

// summary is what a series reports.
type summary struct {
	N       int     // samples
	P50     float64 // µs
	Tail    float64 // µs, at TailPct
	TailPct float64
	Rounds  int     // rounds the percentiles are a median of (1: pooled)
	PerSec  float64 // samples per summed second of latency (median of rounds)
	MaxUS   float64
	// P50s and Rates are the rounds' own values, for a run of several
	// cycles to pool.
	P50s, Rates []float64
}

// summarize reports per-round percentiles' medians when every round alone
// supports the pooled tail percentile, and pooled percentiles otherwise. The
// rate is always the median of the marked rounds' rates: a mean is what one
// stalled operation moves most.
func (s *series) summarize() summary {
	out := summary{N: len(s.ns), TailPct: tailPercentile(len(s.ns)), Rounds: 1}
	if len(s.ns) == 0 {
		return out
	}
	bounds := append(append([]int(nil), s.rounds...), len(s.ns))
	if bounds[0] != 0 {
		bounds = append([]int{0}, bounds...)
	}
	perRound := len(bounds) > 2
	var rates []float64
	for i := 0; i+1 < len(bounds); i++ {
		part := s.ns[bounds[i]:bounds[i+1]]
		if tailPercentile(len(part)) < out.TailPct {
			perRound = false
		}
		var sum int64
		for _, v := range part {
			sum += v
			out.MaxUS = max(out.MaxUS, float64(v)/1e3)
		}
		if sum > 0 {
			rates = append(rates, float64(len(part))/(float64(sum)/1e9))
		}
	}
	out.PerSec = median(rates)
	if !perRound {
		bounds = []int{0, len(s.ns)}
	}
	var p50s, tails []float64
	for i := 0; i+1 < len(bounds); i++ {
		part := sortedCopy(s.ns[bounds[i]:bounds[i+1]])
		if len(part) == 0 {
			continue
		}
		p50s = append(p50s, float64(percentile(part, 50))/1e3)
		tails = append(tails, float64(percentile(part, out.TailPct))/1e3)
	}
	out.Rounds = len(p50s)
	out.P50s, out.Rates = p50s, rates
	out.P50, out.Tail = median(p50s), median(tails)
	return out
}

// ladder is the pooled latency distribution in microseconds at fixed
// percentiles, for the report's provenance: what lies on either side of the
// two percentiles the metrics use.
func (s *series) ladder() map[string]float64 {
	sorted := sortedCopy(s.ns)
	out := make(map[string]float64)
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		out[fmt.Sprintf("p%g", p)] = float64(percentile(sorted, p)) / 1e3
	}
	return out
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, the way the driver takes it
// (statistics.quantiles(values, n=4), exclusive method).
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		lo = min(max(lo, 1), len(s))
		hi := min(lo+1, len(s))
		return s[lo-1] + frac*(s[hi-1]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}
