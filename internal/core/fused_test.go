package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Differential tests for the fused streaming query pipeline: the single-pass
// decode-merge (Query) must be bit-identical — encoded bytes and positions —
// to the decode-then-union oracle (QueryUnfused) and to a ground-truth column
// scan, on both the direct and complement paths.

// encodedBytes returns the raw encoded stream of a bitmap for byte-level
// comparison.
func encodedBytes(bm *cbitmap.Bitmap) []byte {
	w := bitio.NewWriter(bm.SizeBits())
	bm.EncodeTo(w)
	return w.Bytes()
}

// groundTruth scans the column for rows with values in [lo,hi].
func groundTruth(t *testing.T, col workload.Column, lo, hi uint32) *cbitmap.Bitmap {
	t.Helper()
	var pos []int64
	for i, v := range col.X {
		if v >= lo && v <= hi {
			pos = append(pos, int64(i))
		}
	}
	bm, err := cbitmap.FromPositions(int64(len(col.X)), pos)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

func TestFusedQueryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cols := []workload.Column{
		workload.Uniform(5000, 64, 1),
		workload.Zipf(4000, 256, 1.2, 2),
		workload.Uniform(257, 3, 3), // tiny alphabet: dense answers, complement path
	}
	for ci, col := range cols {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ix, err := BuildOptimalDefault(d, col)
		if err != nil {
			t.Fatal(err)
		}
		sigma := uint32(col.Sigma)
		for q := 0; q < 200; q++ {
			lo := uint32(rng.Intn(int(sigma)))
			hi := lo + uint32(rng.Intn(int(sigma-lo)))
			r := index.Range{Lo: lo, Hi: hi}
			fused, fstats, err := ix.Query(r)
			if err != nil {
				t.Fatalf("col %d range [%d,%d]: fused: %v", ci, lo, hi, err)
			}
			oracle, ostats, err := ix.QueryUnfused(r)
			if err != nil {
				t.Fatalf("col %d range [%d,%d]: unfused: %v", ci, lo, hi, err)
			}
			if !cbitmap.Equal(fused, oracle) {
				t.Fatalf("col %d range [%d,%d]: fused answer differs from decode-then-union oracle", ci, lo, hi)
			}
			if !bytes.Equal(encodedBytes(fused), encodedBytes(oracle)) {
				t.Fatalf("col %d range [%d,%d]: encoded bytes differ", ci, lo, hi)
			}
			truth := groundTruth(t, col, lo, hi)
			if !cbitmap.Equal(fused, truth) {
				t.Fatalf("col %d range [%d,%d]: fused answer differs from column scan", ci, lo, hi)
			}
			// Both paths read the same bits and blocks.
			if fstats.BitsRead != ostats.BitsRead || fstats.Reads != ostats.Reads {
				t.Fatalf("col %d range [%d,%d]: stats diverge: fused %+v vs unfused %+v",
					ci, lo, hi, fstats, ostats)
			}
		}
	}
}

// TestFusedComplementPath pins that dense ranges actually exercise the fused
// complement merge and still agree with the oracle.
func TestFusedComplementPath(t *testing.T) {
	col := workload.Uniform(3000, 16, 5)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	// The full range answers every row: z = n > n/2, complement path.
	r := index.Range{Lo: 0, Hi: uint32(col.Sigma - 1)}
	fused, _, err := ix.Query(r)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Card() != int64(len(col.X)) {
		t.Fatalf("full-range query: card %d, want %d", fused.Card(), len(col.X))
	}
	oracle, _, err := ix.QueryUnfused(r)
	if err != nil {
		t.Fatal(err)
	}
	if !cbitmap.Equal(fused, oracle) {
		t.Fatal("complement path differs from oracle")
	}
}

// TestFusedApproxDifferential checks the hashed fused path: a hashed result's
// set must equal the hash image of the true answer under the level's
// function, byte for byte — the streaming merge may not change a bit of it.
func TestFusedApproxDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	col := workload.Uniform(1<<13, 1024, 6)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	hashed := 0
	for q := 0; q < 100; q++ {
		lo := uint32(rng.Intn(1000))
		hi := lo + uint32(rng.Intn(20))
		res, _, err := ax.ApproxQuery(index.Range{Lo: lo, Hi: hi}, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		truth := groundTruth(t, col, lo, hi)
		if res.IsExact() {
			if !cbitmap.Equal(res.Exact, truth) {
				t.Fatalf("range [%d,%d]: exact fallback differs from column scan", lo, hi)
			}
			continue
		}
		hashed++
		univ := int64(1) << uint(1<<uint(res.J))
		var hpos []int64
		it := truth.Iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			hpos = append(hpos, int64(res.H.Hash(uint64(p))))
		}
		want, err := cbitmap.FromUnsorted(univ, hpos)
		if err != nil {
			t.Fatal(err)
		}
		if !cbitmap.Equal(res.Set, want) {
			t.Fatalf("range [%d,%d]: hashed set differs from hash image of the true answer", lo, hi)
		}
		if !bytes.Equal(encodedBytes(res.Set), encodedBytes(want)) {
			t.Fatalf("range [%d,%d]: hashed set bytes differ", lo, hi)
		}
	}
	if hashed == 0 {
		t.Fatal("no query took the hashed path; test lost its teeth")
	}
}

// TestFusedQueryAllocs pins the headline allocation win: the fused pooled
// pipeline must allocate well under half of what the decode-then-union shape
// allocates per query at steady state.
func TestFusedQueryAllocs(t *testing.T) {
	col := workload.Uniform(1<<15, 512, 7)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	r := index.Range{Lo: 100, Hi: 108}
	for i := 0; i < 4; i++ { // warm the pools
		if _, _, err := ix.Query(r); err != nil {
			t.Fatal(err)
		}
	}
	fused := testing.AllocsPerRun(50, func() {
		if _, _, err := ix.Query(r); err != nil {
			t.Fatal(err)
		}
	})
	unfused := testing.AllocsPerRun(50, func() {
		if _, _, err := ix.QueryUnfused(r); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: fused %.1f, decode-then-union %.1f", fused, unfused)
	if fused > unfused*0.6 {
		t.Fatalf("fused pipeline allocates %.1f/op, want <= 60%% of the unfused %.1f/op", fused, unfused)
	}

	// A point query's plan is ordered, so its members are concatenated: that
	// path may allocate no more than the k-way merge it replaces did — the
	// answer and its buffer, 2/op at the commit before the concatenation.
	pr := index.Range{Lo: 100, Hi: 100}
	if plan, _, err := ix.PlanQuery(pr); err != nil || !plan.Ordered || planMembers(plan) < 2 {
		t.Fatalf("point plan %+v, err %v: not an ordered multi-member cover; test lost its teeth", plan, err)
	}
	point := testing.AllocsPerRun(50, func() {
		if _, _, err := ix.Query(pr); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: point query %.1f", point)
	if !raceEnabled && point > 2 {
		t.Fatalf("point query allocates %.1f/op, want <= 2", point)
	}

	// An approximate query that prices a hashed level and turns it down (here
	// h_4's universe 2^16 is within a factor 1.07 of n) executes the plan it
	// priced: the exact fallback costs Query's allocations plus the Result.
	ax, err := BuildApprox(iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), workload.Uniform(70000, 512, 7), ApproxOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	r, eps := index.Range{Lo: 0, Hi: 1}, 1.0/16
	res, _, err := ax.ApproxQuery(r, eps)
	if err != nil {
		t.Fatal(err)
	}
	if z := ax.tree.Count(r.Lo, r.Hi); !res.IsExact() || float64(z)/eps >= float64(int64(1)<<(1<<uint(ax.k))) {
		t.Fatalf("z=%d eps=%g k=%d exact=%v: not a priced-then-declined hashed level; test lost its teeth", z, eps, ax.k, res.IsExact())
	}
	exact := testing.AllocsPerRun(50, func() {
		if _, _, err := ax.Query(r); err != nil {
			t.Fatal(err)
		}
	})
	fallback := testing.AllocsPerRun(50, func() {
		if _, _, err := ax.ApproxQuery(r, eps); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: exact %.1f, approximate exact-fallback %.1f", exact, fallback)
	if !raceEnabled && fallback > exact+1 { // the race detector makes sync.Pool drop entries at random
		t.Fatalf("exact fallback allocates %.1f/op, want <= Query's %.1f + 1", fallback, exact)
	}
}
