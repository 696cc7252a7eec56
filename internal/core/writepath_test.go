package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Differential tests for the fused streaming write path: member chains,
// level extents and query answers produced by the streaming pipeline must be
// bit-identical to the pre-streaming oracles (sort-then-gamma-encode,
// QueryUnfused, encode-via-Bitmap), across the workload shapes of the
// dynamic experiments E6 (uniform appends), A4 (stride × buffering matrix),
// E8 (fully dynamic updates) and the static ablation A1 (stride sweep).

// checkChainsAgainstOracle reads every member chain of ax back from the
// device and compares it byte-for-byte with the pre-streaming encoding —
// concatenate the per-character position lists, sort, gamma-code gap by gap
// with head gap p+1 — of the positions the chain holds: all of the node's
// positions in the direct variant, and in the buffered one the first m.card
// of them (entries reach a member in position order; the rest still sit in
// its ancestors' buffers).
func checkChainsAgainstOracle(t *testing.T, tag string, ax *AppendIndex) {
	t.Helper()
	tc := ax.disk.NewTouch()
	defer tc.Close()
	for li, lvl := range ax.levels {
		for _, m := range lvl {
			var pos []int64
			for a := m.node.lo; a <= m.node.hi; a++ {
				pos = append(pos, ax.byChar[a]...)
			}
			slices.Sort(pos)
			if m.card > int64(len(pos)) || (!ax.opts.Buffered && m.card != int64(len(pos))) {
				t.Fatalf("%s: level %d member [%d,%d]: card %d, node holds %d positions", tag, li, m.node.lo, m.node.hi, m.card, len(pos))
			}
			pos = pos[:m.card]
			want := bitio.NewWriter(len(pos) * 8)
			last := int64(-1)
			for _, p := range pos {
				gamma.Write(want, uint64(p-last))
				last = p
			}
			rd, err := m.chain.ReadAll(tc)
			if err != nil {
				t.Fatalf("%s: level %d member [%d,%d]: %v", tag, li, m.node.lo, m.node.hi, err)
			}
			got := bitio.NewWriter(rd.Len())
			if err := got.CopyBits(rd, rd.Len()); err != nil {
				t.Fatal(err)
			}
			if m.lastPos != last || m.chain.Bits() != int64(want.Len()) || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: level %d member [%d,%d]: chain differs from the oracle encoding (card %d, last %d/%d, bits %d/%d)",
					tag, li, m.node.lo, m.node.hi, m.card, m.lastPos, last, m.chain.Bits(), want.Len())
			}
		}
	}
}

// TestStreamingRebuildDifferential grows an AppendIndex item-by-item through
// the fused streaming write path and asserts, after the initial build, while
// it grows and at the end, that every member chain holds exactly the bytes
// the pre-streaming sort-then-encode path would have written — equal bytes
// in the same chains are equal blocks written, so the per-append I/O follows.
// Workload shapes mirror E6 (σ=64 uniform, paper stride) and A4 (large
// alphabet, branching 5, stride 1 and 2), each in the direct and buffered
// variants.
func TestStreamingRebuildDifferential(t *testing.T) {
	shapes := []struct {
		name    string
		sigma   int
		opts    AppendOptions
		n0, app int
	}{
		{"E6-direct", 64, AppendOptions{}, 200, 3000},
		{"E6-buffered", 64, AppendOptions{Buffered: true}, 200, 3000},
		{"A4-s1-direct", 256, AppendOptions{Branching: 5, Stride: 1}, 256, 2000},
		{"A4-s1-buffered", 256, AppendOptions{Branching: 5, Stride: 1, Buffered: true}, 256, 2000},
		{"A4-s2-buffered", 256, AppendOptions{Branching: 5, Stride: 2, Buffered: true}, 256, 2000},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			col := workload.Uniform(sh.n0, sh.sigma, 41)
			d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
			ax, err := BuildAppendIndex(d, col, sh.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkChainsAgainstOracle(t, "initial", ax)
			stream := workload.Uniform(sh.app, sh.sigma, 43)
			for i, ch := range stream.X {
				if _, err := ax.Append(ch); err != nil {
					t.Fatal(err)
				}
				if i%250 == 249 {
					checkChainsAgainstOracle(t, fmt.Sprintf("after %d appends", i+1), ax)
				}
			}
			if ax.RebuildCount == 0 || ax.GlobalRebuildCount < 2 {
				t.Fatalf("%d subtree and %d global rebuilds: the workload no longer exercises both", ax.RebuildCount, ax.GlobalRebuildCount)
			}
			checkChainsAgainstOracle(t, "grown", ax)
		})
	}
}

// TestStreamingBuildBitIdentical pins the static bulk builds: every member
// extent the streaming level pass emits must hold exactly the bytes the
// oracle produces — for Optimal across the A1 stride sweep, where a leaf is
// the encode-via-Bitmap gamma stream and an internal member its gaps coded
// one gamma.WriteK at a time at the order whose summed LenK is least (the
// smallest on a tie), and for the Warmup tree.
func TestStreamingBuildBitIdentical(t *testing.T) {
	col := workload.Uniform(5000, 256, 89)
	ordered := 0 // members coded above order 0
	for _, stride := range []int{1, 2, 4} {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ix, err := BuildOptimal(d, col, OptimalOptions{Stride: stride})
		if err != nil {
			t.Fatal(err)
		}
		tc := d.NewTouch()
		positions := ix.tree.positionsRef(col.X)
		for li, lv := range ix.levels {
			for k, m := range lv.members {
				rd, err := tc.Reader(m.ext)
				if err != nil {
					t.Fatal(err)
				}
				got := bitio.NewWriter(int(m.ext.Bits))
				if err := got.CopyBits(rd, int(m.ext.Bits)); err != nil {
					t.Fatal(err)
				}
				pos := positions(m.start, m.end)
				want, err := cbitmap.FromPositions(ix.tree.n, pos)
				if err != nil {
					t.Fatal(err)
				}
				ww := bitio.NewWriter(want.SizeBits())
				want.EncodeTo(ww)
				order := uint(0)
				if m.internal {
					best := int64(-1)
					for o := uint(0); o <= gamma.MaxOrder; o++ {
						var bits int64
						for i, p := range pos {
							bits += int64(gamma.LenK(uint64(p-prevPos(pos, i)), o))
						}
						if best < 0 || bits < best {
							order, best = o, bits
						}
					}
					ww.Reset()
					for i, p := range pos {
						gamma.WriteK(ww, uint64(p-prevPos(pos, i)), order)
					}
				}
				if m.card != want.Card() || uint(m.k) != order || int64(ww.Len()) != m.ext.Bits || !bytes.Equal(got.Bytes(), ww.Bytes()) {
					t.Fatalf("stride %d level %d member %d: extent differs from oracle encoding", stride, li, k)
				}
				if order > 0 {
					ordered++
				}
			}
		}
		tc.Close()
	}
	if ordered == 0 {
		t.Fatal("no member took an order above 0")
	}

	wd := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	wx, err := BuildWarmup(wd, col)
	if err != nil {
		t.Fatal(err)
	}
	byChar := make([][]int64, wx.padded)
	for i, c := range col.X {
		byChar[c] = append(byChar[c], int64(i))
	}
	tc := wd.NewTouch()
	defer tc.Close()
	for j, lv := range wx.levels {
		for node := range lv.Exts {
			var pos []int64
			lo, hi := int64(node)*lv.Width, (int64(node)+1)*lv.Width
			for a := lo; a < hi && a < int64(col.Sigma); a++ {
				pos = append(pos, byChar[a]...)
			}
			want, err := cbitmap.FromUnsorted(wx.n, pos)
			if err != nil {
				t.Fatal(err)
			}
			ww := bitio.NewWriter(want.SizeBits())
			want.EncodeTo(ww)
			ext := lv.Exts[node]
			rd, err := tc.Reader(ext)
			if err != nil {
				t.Fatal(err)
			}
			got := bitio.NewWriter(int(ext.Bits))
			if err := got.CopyBits(rd, int(ext.Bits)); err != nil {
				t.Fatal(err)
			}
			if lv.Cards[node] != want.Card() || int64(want.SizeBits()) != ext.Bits || !bytes.Equal(got.Bytes(), ww.Bytes()) {
				t.Fatalf("warmup level %d node %d: extent differs from oracle encoding", j, node)
			}
		}
	}
}

// dynGroundTruth scans the mirrored column for rows in [lo,hi].
func dynGroundTruth(t *testing.T, x []uint32, n int64, lo, hi uint32) *cbitmap.Bitmap {
	t.Helper()
	var pos []int64
	for i, v := range x {
		if v >= lo && v <= hi {
			pos = append(pos, int64(i))
		}
	}
	bm, err := cbitmap.FromPositions(n, pos)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestDynQueryStreamDifferential interleaves appends with queries on both
// AppendIndex variants and asserts the fused streaming Query is
// bit-identical — answer bytes and I/O stats — to the decode-then-union
// oracle and to a ground-truth column scan, on sparse and dense (complement)
// ranges.
func TestDynQueryStreamDifferential(t *testing.T) {
	for _, buffered := range []bool{false, true} {
		name := "direct"
		if buffered {
			name = "buffered"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(59))
			sigma := 32 // small alphabet so dense ranges hit the complement path
			col := workload.Uniform(500, sigma, 61)
			d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
			ax, err := BuildAppendIndex(d, col, AppendOptions{Buffered: buffered})
			if err != nil {
				t.Fatal(err)
			}
			x := append([]uint32{}, col.X...)
			for round := 0; round < 40; round++ {
				for a := 0; a < 50; a++ {
					ch := uint32(rng.Intn(sigma))
					if _, err := ax.Append(ch); err != nil {
						t.Fatal(err)
					}
					x = append(x, ch)
				}
				lo := uint32(rng.Intn(sigma))
				hi := lo + uint32(rng.Intn(sigma-int(lo)))
				r := index.Range{Lo: lo, Hi: hi}
				fused, fstats, err := ax.Query(r)
				if err != nil {
					t.Fatalf("round %d [%d,%d]: fused: %v", round, lo, hi, err)
				}
				oracle, ostats, err := ax.QueryUnfused(r)
				if err != nil {
					t.Fatalf("round %d [%d,%d]: unfused: %v", round, lo, hi, err)
				}
				if !cbitmap.Equal(fused, oracle) {
					t.Fatalf("round %d [%d,%d]: fused answer differs from oracle", round, lo, hi)
				}
				if fstats != ostats {
					t.Fatalf("round %d [%d,%d]: stats diverge: %+v vs %+v", round, lo, hi, fstats, ostats)
				}
				truth := dynGroundTruth(t, x, ax.Len(), lo, hi)
				if !cbitmap.Equal(fused, truth) {
					t.Fatalf("round %d [%d,%d]: answer differs from column scan", round, lo, hi)
				}
			}
		})
	}
}

// TestDynamicQueryStreamDifferential mirrors the E8 workload: the fully
// dynamic index under appends, changes and deletes, with the fused streaming
// Query checked against the materialise-rebase-union oracle, answers and
// charged reads.
func TestDynamicQueryStreamDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	sigma := 24
	col := workload.Uniform(600, sigma, 71)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	dx, err := BuildDynamic(d, col, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		for u := 0; u < 20; u++ {
			switch rng.Intn(3) {
			case 0:
				if _, err := dx.Append(uint32(rng.Intn(sigma))); err != nil {
					t.Fatal(err)
				}
			case 1:
				i := rng.Int63n(dx.Len())
				if _, err := dx.Change(i, uint32(rng.Intn(sigma))); err != nil && dx.x[i] != uint32(dx.sigmaEff-1) {
					t.Fatal(err)
				}
			default:
				i := rng.Int63n(dx.Len())
				if dx.x[i] != uint32(dx.sigmaEff-1) {
					if _, err := dx.Delete(i); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		lo := uint32(rng.Intn(sigma))
		hi := lo + uint32(rng.Intn(sigma-int(lo)))
		r := index.Range{Lo: lo, Hi: hi}
		fused, fstats, err := dx.Query(r)
		if err != nil {
			t.Fatalf("round %d [%d,%d]: fused: %v", round, lo, hi, err)
		}
		oracle, ostats, err := dx.QueryUnfused(r)
		if err != nil {
			t.Fatalf("round %d [%d,%d]: unfused: %v", round, lo, hi, err)
		}
		if !cbitmap.Equal(fused, oracle) {
			t.Fatalf("round %d [%d,%d]: fused answer differs from oracle", round, lo, hi)
		}
		if fstats != ostats {
			t.Fatalf("round %d [%d,%d]: stats diverge: %+v vs %+v", round, lo, hi, fstats, ostats)
		}
	}
}

// TestWarmupQueryStreamDifferential checks the Theorem 1 fused query against
// its oracle on both the direct and complement paths.
func TestWarmupQueryStreamDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cols := []workload.Column{
		workload.Uniform(4000, 64, 1),
		workload.Uniform(600, 5, 3), // tiny alphabet: dense answers, complement path
	}
	for ci, col := range cols {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		wx, err := BuildWarmup(d, col)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 100; q++ {
			lo := uint32(rng.Intn(col.Sigma))
			hi := lo + uint32(rng.Intn(col.Sigma-int(lo)))
			r := index.Range{Lo: lo, Hi: hi}
			fused, fstats, err := wx.Query(r)
			if err != nil {
				t.Fatalf("col %d [%d,%d]: fused: %v", ci, lo, hi, err)
			}
			oracle, ostats, err := wx.QueryUnfused(r)
			if err != nil {
				t.Fatalf("col %d [%d,%d]: unfused: %v", ci, lo, hi, err)
			}
			if !cbitmap.Equal(fused, oracle) {
				t.Fatalf("col %d [%d,%d]: fused answer differs from oracle", ci, lo, hi)
			}
			if fstats != ostats {
				t.Fatalf("col %d [%d,%d]: stats diverge: %+v vs %+v", ci, lo, hi, fstats, ostats)
			}
			truth := dynGroundTruth(t, col.X, wx.n, lo, hi)
			if !cbitmap.Equal(fused, truth) {
				t.Fatalf("col %d [%d,%d]: answer differs from column scan", ci, lo, hi)
			}
		}
	}
}

// --- Allocation regression tests for the dynamic paths (mirroring
// cbitmap/alloc_test.go and the static TestFusedQueryAllocs). ---

func skipUnderRaceCore(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; absolute counts only hold without it")
	}
}

// TestDynQueryAllocs pins the fused dynamic query win: the streaming Query
// must allocate well under half of the decode-then-union oracle at steady
// state.
func TestDynQueryAllocs(t *testing.T) {
	skipUnderRaceCore(t)
	col := workload.Uniform(1<<14, 64, 7)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	ax, err := BuildAppendIndex(d, col, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := index.Range{Lo: 10, Hi: 18}
	for i := 0; i < 4; i++ { // warm the pools
		if _, _, err := ax.Query(r); err != nil {
			t.Fatal(err)
		}
	}
	fused := testing.AllocsPerRun(50, func() {
		if _, _, err := ax.Query(r); err != nil {
			t.Fatal(err)
		}
	})
	unfused := testing.AllocsPerRun(50, func() {
		if _, _, err := ax.QueryUnfused(r); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: fused %.1f, decode-then-union %.1f", fused, unfused)
	if fused > unfused*0.6 {
		t.Fatalf("fused dyn query allocates %.1f/op, want <= 60%% of the unfused %.1f/op", fused, unfused)
	}
}

// TestDynamicQueryAllocs: the Theorem 7 fused query reads every bin of a
// cover run in one descent, streams the leaves and merges one overlay, so it
// allocates a small constant per query (9 here), where the rebase-then-union
// oracle's per-bin point queries take hundreds.
func TestDynamicQueryAllocs(t *testing.T) {
	skipUnderRaceCore(t)
	col := workload.Uniform(1<<12, 64, 9)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	dx, err := BuildDynamic(d, col, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := index.Range{Lo: 5, Hi: 13}
	for i := 0; i < 4; i++ {
		if _, _, err := dx.Query(r); err != nil {
			t.Fatal(err)
		}
	}
	fused := testing.AllocsPerRun(50, func() {
		if _, _, err := dx.Query(r); err != nil {
			t.Fatal(err)
		}
	})
	unfused := testing.AllocsPerRun(50, func() {
		if _, _, err := dx.QueryUnfused(r); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: fused %.1f, rebase-then-union %.1f", fused, unfused)
	if fused > 12 || fused >= unfused {
		t.Fatalf("fused dynamic query allocates %.1f/op, want <= 12 and < unfused %.1f/op", fused, unfused)
	}
}

// TestWarmupQueryAllocs pins the Theorem 1 fused query against its oracle.
func TestWarmupQueryAllocs(t *testing.T) {
	skipUnderRaceCore(t)
	col := workload.Uniform(1<<14, 128, 11)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	wx, err := BuildWarmup(d, col)
	if err != nil {
		t.Fatal(err)
	}
	r := index.Range{Lo: 40, Hi: 55}
	for i := 0; i < 4; i++ {
		if _, _, err := wx.Query(r); err != nil {
			t.Fatal(err)
		}
	}
	fused := testing.AllocsPerRun(50, func() {
		if _, _, err := wx.Query(r); err != nil {
			t.Fatal(err)
		}
	})
	unfused := testing.AllocsPerRun(50, func() {
		if _, _, err := wx.QueryUnfused(r); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: fused %.1f, decode-then-union %.1f", fused, unfused)
	if fused > unfused*0.6 {
		t.Fatalf("fused warmup query allocates %.1f/op, want <= 60%% of the unfused %.1f/op", fused, unfused)
	}
}

// TestAppendSteadyStateAllocs pins the streaming write path's headline: a
// steady-state direct append — one gap code staged through a pooled writer
// into the tail block of each affected level — allocates (almost) nothing.
// The character spread keeps leaf weights far from their rebuild thresholds
// so no rebuild lands inside the measured window.
func TestAppendSteadyStateAllocs(t *testing.T) {
	skipUnderRaceCore(t)
	col := workload.Uniform(1<<13, 64, 13)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	ax, err := BuildAppendIndex(d, col, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	next := uint32(0)
	for i := 0; i < 64; i++ { // warm pools and tail blocks
		if _, err := ax.Append(next); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % 64
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ax.Append(next); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % 64
	})
	if allocs > 1 {
		t.Fatalf("steady-state direct append allocated %.2f times per op, want <= 1 (was 7 before the streaming write path)", allocs)
	}
}

// prevPos is the position before pos[i] in a gap stream: -1 before the first.
func prevPos(pos []int64, i int) int64 {
	if i == 0 {
		return -1
	}
	return pos[i-1]
}
