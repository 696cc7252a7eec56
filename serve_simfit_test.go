//go:build unix

package secidx

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/workload"
)

// solve3 solves the 3×3 normal equations m·x = v by Gaussian elimination
// with partial pivoting; a singular system (an unused column) pins that
// coefficient to zero.
func solve3(m [3][3]float64, v [3]float64) (x [3]float64) {
	for c := 0; c < 3; c++ {
		p := c
		for r := c + 1; r < 3; r++ {
			if math.Abs(m[r][c]) > math.Abs(m[p][c]) {
				p = r
			}
		}
		m[c], m[p], v[c], v[p] = m[p], m[c], v[p], v[c]
		if math.Abs(m[c][c]) < 1e-9 {
			m[c] = [3]float64{}
			m[c][c], v[c] = 1, 0
			continue
		}
		for r := 0; r < 3; r++ {
			if r != c {
				k := m[r][c] / m[c][c]
				for j := range m[r] {
					m[r][j] -= k * m[c][j]
				}
				v[r] -= k * v[c]
			}
		}
	}
	for i := range x {
		x[i] = v[i] / m[i][i]
	}
	return x
}

// fitService least-squares fits service ≈ a + b·reads + c·kbits over the
// batches (c pinned to zero without withBits) and returns the model and the
// root-mean-square relative residual.
func fitService(batches []servedOne, withBits bool) (serve.ServiceModel, float64) {
	var m [3][3]float64
	var v [3]float64
	row := func(s servedOne) [3]float64 {
		r := [3]float64{1, float64(s.res.Stats.Reads), 0}
		if withBits {
			r[2] = float64(s.res.Stats.BitsRead) / 1024
		}
		return r
	}
	for _, s := range batches {
		x, y := row(s), float64(s.res.Service)
		for i := range x {
			for j := range x {
				m[i][j] += x[i] * x[j]
			}
			v[i] += x[i] * y
		}
	}
	k := solve3(m, v)
	var sq float64
	for _, s := range batches {
		x, y := row(s), float64(s.res.Service)
		e := (k[0] + k[1]*x[1] + k[2]*x[2] - y) / y
		sq += e * e
	}
	model := serve.ServiceModel{BatchOverhead: time.Duration(max(k[0], 1)), PerRead: time.Duration(max(k[1], 1)), PerKBit: time.Duration(max(k[2], 0))}
	return model, math.Sqrt(sq / float64(len(batches)))
}

// TestServeSimFit is ROADMAP's serve item (c): fit serve.ServiceModel to the
// real server's batches at 8 closed-loop clients, replay the run's own
// arrival trace through Simulate with the fitted model, and print the
// simulator's error against the real run for p50, batch size and trigger mix.
func TestServeSimFit(t *testing.T) {
	if !*serveSweep {
		t.Skip("needs -serve.sweep; see hypotheses/idle-flush/run.sh")
	}
	requests := sweepInts("SWEEP_REQUESTS", "4000")[0]
	for _, seed := range sweepInts("SWEEP_SEEDS", "42 123 456") {
		o := sweepIndex(t, int64(seed), 128)
		srv, err := serveMissPath(o.Sharded, ServerConfig{}) // the model fitted is of the miss path
		if err != nil {
			t.Fatal(err)
		}
		run := closedLoop(t, srv, sweepRanges(requests, int64(seed)), 8)
		srv.Close()
		if t.Failed() {
			return
		}
		// One sample per batch: its members share Stats and Service.
		var batches []servedOne
		seen := map[[3]int64]bool{}
		lats := make([]time.Duration, len(run.served))
		arrivals := make([]workload.Arrival, len(run.served))
		for i, s := range run.served {
			if key := [3]int64{int64(s.res.Service), int64(s.res.Stats.Reads), s.res.Stats.BitsRead}; !seen[key] {
				seen[key] = true
				batches = append(batches, s)
			}
			lats[i] = s.lat
			arrivals[i] = workload.Arrival{At: s.at, Lo: s.lo, Hi: s.hi}
		}
		slices.Sort(lats)
		real := run.stats
		// What a 500 µs timer is worth on this machine: the simulator's fires
		// on time, the server's when the runtime gets to it.
		late := make([]time.Duration, 51)
		for i := range late {
			t0 := time.Now()
			<-time.After(500 * time.Microsecond)
			late[i] = time.Since(t0)
		}
		slices.Sort(late)
		for _, arm := range []struct {
			withBits bool
			maxWait  time.Duration
		}{{false, 0}, {true, 0}, {true, late[len(late)/2]}} {
			model, rms := fitService(batches, arm.withBits)
			sim := serve.Simulate(serve.ShardBackend{Ix: o.Sharded.sx}, nil, arrivals,
				serve.SimConfig{Config: serve.Config{MaxWait: arm.maxWait}, Service: model}).Stats
			frac := func(part, whole uint64) float64 { return float64(part) / float64(max(whole, 1)) }
			fmt.Printf("simfit seed=%d bits_term=%v sim_maxwait_us=%d batches=%d overhead_us=%.1f per_read_us=%.2f per_kbit_ns=%d fit_rms_rel=%.3f "+
				"p50_us real=%.0f sim=%.0f err=%+.2f batch real=%.2f sim=%.2f err=%+.2f idle_frac real=%.3f sim=%.3f wait_frac real=%.3f sim=%.3f\n",
				seed, arm.withBits, max(arm.maxWait, 500*time.Microsecond).Microseconds(), len(batches), float64(model.BatchOverhead)/1e3, float64(model.PerRead)/1e3, model.PerKBit, rms,
				quantileUS(lats, 0.5), float64(sim.LatencyP50)/1e3, float64(sim.LatencyP50)/float64(lats[len(lats)/2])-1,
				frac(real.Completed, real.Batches), frac(sim.Completed, sim.Batches), frac(sim.Completed, sim.Batches)/frac(real.Completed, real.Batches)-1,
				frac(real.Batches-real.FlushSize-real.FlushOverlap-real.FlushWait-real.FlushDeadline, real.Batches), frac(sim.FlushIdle, sim.Batches),
				frac(real.FlushWait, real.Batches), frac(sim.FlushWait, sim.Batches))
		}
	}
}
