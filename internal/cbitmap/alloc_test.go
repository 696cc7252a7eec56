package cbitmap

import (
	"testing"

	"repro/internal/bitio"
)

// Allocation regression tests for the hot read paths: obtaining and running
// an iterator, point queries through the skip samples, and the pooled
// streaming merge. These pin the zero-allocation claims the fused query
// pipeline is built on.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; absolute counts only hold without it")
	}
}

func TestIterNextZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	ms := streamTestSets(t, 1, 4096, 1<<20, 7)
	bm := ms[0]
	var sum int64
	allocs := testing.AllocsPerRun(20, func() {
		it := bm.Iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			sum += p
		}
	})
	if allocs != 0 {
		t.Fatalf("Iter+Next allocated %.1f times per full scan, want 0", allocs)
	}
	_ = sum
}

func TestContainsZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	ms := streamTestSets(t, 1, 1<<16, 1<<22, 8)
	bm := ms[0]
	bm.Contains(0) // warm the lazy sample rebuild outside the measurement
	probes := []int64{0, 1 << 10, 1 << 15, 1 << 21, 1<<22 - 1}
	allocs := testing.AllocsPerRun(20, func() {
		for _, q := range probes {
			bm.Contains(q)
		}
	})
	if allocs != 0 {
		t.Fatalf("Contains allocated %.1f times per probe batch, want 0", allocs)
	}
}

// TestFirstContainsSampleAllocs: a sharded answer — UnionAll of disjoint
// parts, concatenated with no skip samples — builds its samples on its first
// Contains into slices sized up front, so that call allocates at most the two
// sized slices and the two thinned ones attachSamples keeps.
func TestFirstContainsSampleAllocs(t *testing.T) {
	skipUnderRace(t)
	parts := streamTestSets(t, 2, 1<<16, 1<<20, 12)
	const runs = 10
	answers := make([]*Bitmap, runs+1) // AllocsPerRun calls once more to warm up
	for i := range answers {
		bm, err := UnionAll(1<<21, Shifted{Bm: parts[0]}, Shifted{Bm: parts[1], Off: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if bm.SampleBits() != 0 {
			t.Fatal("the concatenated answer already has skip samples")
		}
		answers[i] = bm
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		answers[next].Contains(1 << 20)
		next++
	})
	if allocs > 4 {
		t.Fatalf("the first Contains on a %d-row answer allocated %.0f times, want at most 4", answers[0].Card(), allocs)
	}
}

func TestRankZeroAlloc(t *testing.T) {
	skipUnderRace(t)
	ms := streamTestSets(t, 1, 1<<16, 1<<22, 9)
	bm := ms[0]
	bm.Rank(1) // warm samples
	allocs := testing.AllocsPerRun(20, func() {
		bm.Rank(1 << 21)
	})
	if allocs != 0 {
		t.Fatalf("Rank allocated %.1f times per call, want 0", allocs)
	}
}

// TestDecodeSteadyStateAllocs pins the pooled Decode path: with the sample
// scratch and output writer pooled, a steady-state decode allocates only the
// bitmap it returns (buffer, struct, thinned sample slices) — the pre-pooling
// shape cost ~30 allocations on the same input.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	n := int64(1 << 22)
	ms := streamTestSets(t, 1, 1<<15, n, 11)
	bm := ms[0]
	w := bitio.NewWriter(bm.SizeBits())
	bm.EncodeTo(w)
	var r bitio.Reader
	// Warm the pools.
	for i := 0; i < 4; i++ {
		r.Init(w.Bytes(), w.Len())
		if _, err := Decode(&r, bm.Card(), n); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		r.Init(w.Bytes(), w.Len())
		got, err := Decode(&r, bm.Card(), n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Card() != bm.Card() {
			t.Fatal("decode cardinality mismatch")
		}
	})
	const maxAllocs = 7
	if allocs > maxAllocs {
		t.Fatalf("steady-state Decode allocated %.1f times per call, want <= %d", allocs, maxAllocs)
	}
}

// TestMergeStreamsSteadyStateAllocs: with builders, merge heads and stream
// scratch pooled, a steady-state UnionAll (the sharded merge path) allocates
// only the handful of objects that make up the returned bitmap — not the
// per-member scratch the decode-then-union shape needed.
func TestMergeStreamsSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	n := int64(1 << 18)
	ms := streamTestSets(t, 4, 2000, n, 10)
	parts := make([]Shifted, len(ms))
	for i, m := range ms {
		parts[i] = Shifted{Bm: m}
	}
	// Warm the pools.
	for i := 0; i < 4; i++ {
		if _, err := UnionAll(n, parts...); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := UnionAll(n, parts...); err != nil {
			t.Fatal(err)
		}
	})
	// Expected steady state: output buffer + bitmap struct + attached
	// samples (≤ 2 slices) + small append growth slack. The pre-pooling
	// shape allocated tens of objects here.
	const maxAllocs = 10
	if allocs > maxAllocs {
		t.Fatalf("steady-state UnionAll allocated %.1f times per merge, want <= %d", allocs, maxAllocs)
	}
}
