package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testHarness(seed int64) *harness {
	return &harness{opt: options{seed: seed, seconds: refSeconds, scale: 0.01}, log: io.Discard}
}

// Same seed, same operation list; another seed, another list.
func TestOpListHashFollowsSeed(t *testing.T) {
	hashes := func(seed int64) map[string]uint64 {
		h := testHarness(seed)
		return map[string]uint64{
			"point-pread":     genPointPread(h).hash,
			"scan-wide":       genScanWide(h).hash,
			"serve-overlap":   genServeOverlap(h).hash,
			"ingest-snapshot": genIngest(h).hash,
			"dynamic-churn":   genChurn(h).hash,
		}
	}
	a, again, b := hashes(42), hashes(42), hashes(123)
	for name, v := range a {
		if again[name] != v {
			t.Errorf("%s: seed 42 gave %016x then %016x", name, v, again[name])
		}
		if b[name] == v {
			t.Errorf("%s: seeds 42 and 123 gave the same list %016x", name, v)
		}
	}
}

// The seed moves rows and order, not the layout of the skew: the same keys
// are the frequent ones under every seed.
func TestColumnLayoutIsSeedFree(t *testing.T) {
	top := func(seed int64) uint32 {
		col := zipfColumn(20000, 64, 1.0, seed)
		freq := make([]int, 64)
		for _, v := range col.X {
			freq[v]++
		}
		best := 0
		for k, f := range freq {
			if f > freq[best] {
				best = k
			}
		}
		return uint32(best)
	}
	if a, b := top(1), top(2); a != b {
		t.Fatalf("most frequent key is %d under seed 1 and %d under seed 2", a, b)
	}
}

// Every key is covered by the same share of balanced ranges, edges included.
func TestBalancedRangesCoverEvenly(t *testing.T) {
	const sigma, q = 256, 4096
	cover := make([]int, sigma)
	for _, r := range balancedRanges(rngFor(7, "test"), q, sigma, 16, 16) {
		if r.Lo > r.Hi || int(r.Hi) >= sigma {
			t.Fatalf("bad range [%d,%d]", r.Lo, r.Hi)
		}
		for c := r.Lo; c <= r.Hi; c++ {
			cover[c]++
		}
	}
	want := float64(q) * 16 / float64(sigma+15)
	for c, n := range cover {
		if d := float64(n) - want; d < -3 || d > 3 {
			t.Fatalf("key %d covered %d times, want about %.1f", c, n, want)
		}
	}
}

// The highest percentile with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var s series
	for i := 1; i <= 1000; i++ {
		s.add(1000 * 1000) // 1 ms
	}
	s.ns[999] = 50 * 1000 * 1000
	sum := s.summarize()
	if sum.N != 1000 || sum.TailPct != 99 || sum.P50 != 1000 || sum.Tail != 1000 || sum.MaxUS != 50000 {
		t.Errorf("summary %+v", sum)
	}
	// Rounds too small for the pooled percentile fall back to pooling.
	var r series
	for i := 0; i < 2000; i++ {
		if i%500 == 0 {
			r.mark()
		}
		r.add(1000)
	}
	if got := r.summarize(); got.Rounds != 1 || got.TailPct != 99 {
		t.Errorf("4 rounds of 500 samples: %+v", got)
	}
	r = series{}
	for i := 0; i < 4000; i++ {
		if i%1000 == 0 {
			r.mark()
		}
		r.add(1000)
	}
	if got := r.summarize(); got.Rounds != 4 {
		t.Errorf("4 rounds of 1000 samples: %+v", got)
	}
}

// Self time is duration minus the part of the interval the children cover.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},  // clipped to the parent
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},  // grandchild: a's business
		{ID: 6, Parent: 1, Name: "d", Start: 200, End: 300}, // outside the parent: covers nothing
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 40, 5: 5, 6: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	shares := layerShares([]span{
		{ID: 1, Name: "secidx.Query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "replay", Start: 100, End: 170},
		{ID: 3, Parent: 2, Name: "iomodel.pread", Start: 100, End: 140},
		{ID: 4, Parent: 2, Name: "cbitmap.Decode", Start: 140, End: 170},
		{ID: 5, Parent: 1, Name: "gamma.Read", Start: 170, End: 190}, // beside the replay: no share
	})
	if shares["iomodel.pread"] != 0.4 || shares["cbitmap.Decode"] != 0.3 || shares["unattributed"] != 0.3 || len(shares) != 3 {
		t.Errorf("shares %v", shares)
	}
}

// BENCHMARK.json names the catalogue's driven workloads and all its metrics.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var driven []workloadDef
	for _, w := range workloads {
		if w.Driven {
			driven = append(driven, w)
		}
	}
	if len(b.Workloads) != len(driven) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the catalogue %d driven, %d, %d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(driven), len(endToEnd), len(perLayer))
	}
	for i, w := range b.Workloads {
		if w.Name != driven[i].Name || w.Why != driven[i].Why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the catalogue", i, w.Name, driven[i].Name)
		}
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the catalogue", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the catalogue", i, m, d)
		}
	}
}

// Every workload end to end at a hundredth of its size, untraced and traced,
// with the oracle on.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				opt := options{workload: w.Name, seed: 42, seconds: refSeconds, scale: 0.01, trace: trace, dir: dir}
				rep, err := runWorkload(w, opt, dir)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Fatalf("%d metrics reported, %d in the catalogue", len(rep.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := rep.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s: reported %+v", d.Name, m)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, m.Value)
					}
				}
				if trace {
					if len(rep.Shares) == 0 {
						t.Error("the traced run reported no layer shares")
					}
					if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// A run of several cycles reports the median of all the cycles' rounds where
// a metric has rounds, the median of the cycles' values where it has none,
// and the sums of the counts.
func TestMergeCycles(t *testing.T) {
	cycle := func(p50 float64, rounds []float64, setup float64, attempted int64) *runReport {
		return &runReport{
			Attempted: attempted,
			Metrics: map[string]metricValue{
				"query_p50_us": {Value: p50, Unit: "us"},
				"setup_s":      {Value: setup, Unit: "s"},
			},
			Rounds: map[string][]float64{"query_p50_us": rounds},
			Info:   map[string]any{},
		}
	}
	rep := mergeCycles(options{seed: 7}, []*runReport{
		cycle(2, []float64{1, 2, 9}, 1.5, 10),
		cycle(8, []float64{8, 8, 8}, 1.0, 20),
		cycle(3, []float64{3, 3, 4}, 3.0, 30),
	})
	// All nine rounds: 1 2 3 3 [4] 8 8 8 9; the cycles' medians 2 3 8 would give 3.
	if got := rep.Metrics["query_p50_us"]; got.Value != 4 || got.Unit != "us" {
		t.Errorf("query_p50_us = %+v, want the median of all rounds, 4 us", got)
	}
	if got := rep.Metrics["setup_s"].Value; got != 1.5 {
		t.Errorf("setup_s = %v, want the median of the cycles, 1.5", got)
	}
	if rep.Attempted != 60 || !rep.Correct || rep.Seed != 7 || len(rep.Rounds["query_p50_us"]) != 9 {
		t.Errorf("attempted %d, correct %v, seed %d, %d rounds", rep.Attempted, rep.Correct, rep.Seed, len(rep.Rounds["query_p50_us"]))
	}
}

// -compare: inside the bound, outside it, and too noisy to tell.
func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "query_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "query_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m      metricDef
		a, b   []float64
		want   string
		failed bool
	}{
		{lower, []float64{100}, []float64{105}, "ok", false},
		{lower, []float64{100}, []float64{115}, "WORSE", true},
		{lower, []float64{100}, []float64{50}, "ok", false},
		{higher, []float64{100}, []float64{85}, "WORSE", true},
		{higher, []float64{100}, []float64{130}, "ok", false},
		{lower, []float64{100, 130}, []float64{140, 141}, "unresolved", false},
	} {
		got, failed := judge(c.m, c.a, c.b)
		if !strings.HasPrefix(got, c.want) || failed != c.failed {
			t.Errorf("%s %v vs %v: %q, %v", c.m.Name, c.a, c.b, got, failed)
		}
	}
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		rep := fullReport{Runs: []*runReport{{Workload: "scan-wide", Metrics: map[string]metricValue{"query_p50_us": {Value: p50, Unit: "us"}}}}}
		data, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 100), write("b.json", 200)
	var out bytes.Buffer
	if code := compareReports(&out, []string{a, b}); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, []string{a, a}); code != 0 {
		t.Errorf("a report against itself: exit %d:\n%s", code, out.String())
	}
}
