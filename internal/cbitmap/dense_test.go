package cbitmap

import (
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

var mergeBenchSeed = flag.Int64("merge.seed", 42, "seed of BenchmarkMergePaths' input sets")

// mergeVia is mergeStreams with the path of runMerge chosen by the caller
// instead of by the density dispatch (and without the concatenation fast
// path), so the same input can be put through both.
func mergeVia(dense bool, n int64, complement bool, streams []*Stream) (*Bitmap, error) {
	return mergePath(dense, true, n, complement, streams)
}

// mergePath is mergeVia for a sampled or an unsampled merge.
func mergePath(dense, sampled bool, n int64, complement bool, streams []*Stream) (*Bitmap, error) {
	ms := mergeScratchPool.Get().(*mergeScratch)
	defer func() {
		clear(ms.heads)
		mergeScratchPool.Put(ms)
	}()
	heads, sizeHint, err := primeHeads(ms, streams)
	if err != nil {
		return nil, err
	}
	bd := builderPool.Get().(*Builder)
	bd.reset(sizeHint, sampled)
	if dense {
		err = mergeDense(bd, n, complement, heads)
	} else {
		err = mergeSparse(bd, n, complement, heads)
	}
	if err != nil {
		return nil, err
	}
	return bd.finish(n), nil
}

// requireSameBitmap fails unless got and want agree on everything a caller
// can observe: bytes, cardinality, largest position, and Contains/Rank —
// which go through the skip samples, the one thing the two paths are allowed
// to build differently.
func requireSameBitmap(t *testing.T, what string, got, want *Bitmap) {
	t.Helper()
	if !Equal(got, want) {
		t.Fatalf("%s: encoded streams differ (%d vs %d bits, card %d vs %d)", what, got.bits, want.bits, got.card, want.card)
	}
	if got.last != want.last {
		t.Fatalf("%s: last %d, want %d", what, got.last, want.last)
	}
	n := want.n
	for q := int64(0); q <= n; q += 1 + n/509 {
		if g, w := got.Contains(q), want.Contains(q); g != w {
			t.Fatalf("%s: Contains(%d) = %v, want %v", what, q, g, w)
		}
		if g, w := got.Rank(q), want.Rank(q); g != w {
			t.Fatalf("%s: Rank(%d) = %d, want %d", what, q, g, w)
		}
	}
	for _, q := range []int64{want.last - 1, want.last, want.last + 1} {
		if q >= 0 && got.Contains(q) != want.Contains(q) {
			t.Fatalf("%s: Contains(%d) differs near last", what, q)
		}
	}
	if got.SizeBits() > 0 && got.SampleBits()*maxSampleDiv > got.SizeBits() {
		t.Fatalf("%s: sample overhead %d bits exceeds 1/%d of %d", what, got.SampleBits(), maxSampleDiv, got.SizeBits())
	}
}

// bitmapStreams returns fresh bitmap-backed streams over ms, shifted by offs
// (nil: unshifted).
func bitmapStreams(ms []*Bitmap, offs []int64) []*Stream {
	out := make([]*Stream, len(ms))
	for i, m := range ms {
		out[i] = new(Stream)
		var off int64
		if offs != nil {
			off = offs[i]
		}
		out[i].InitBitmap(m, off)
	}
	return out
}

// checkBothPaths merges fresh streams from mk through the sparse and the
// dense path, as union and as complement, and requires identical results that
// also match the position-level oracle want (the union's sorted positions).
func checkBothPaths(t *testing.T, what string, n int64, want []int64, mk func() []*Stream) {
	t.Helper()
	union := MustFromPositions(n, want)
	in := make(map[int64]bool, len(want))
	for _, p := range want {
		in[p] = true
	}
	var rest []int64
	for p := int64(0); p < n; p++ {
		if !in[p] {
			rest = append(rest, p)
		}
	}
	for _, complement := range []bool{false, true} {
		oracle := union
		name := what + "/union"
		if complement {
			oracle, name = MustFromPositions(n, rest), what+"/complement"
		}
		sparse, err := mergeVia(false, n, complement, mk())
		if err != nil {
			t.Fatalf("%s: sparse: %v", name, err)
		}
		dense, err := mergeVia(true, n, complement, mk())
		if err != nil {
			t.Fatalf("%s: dense: %v", name, err)
		}
		requireSameBitmap(t, name+" dense vs oracle", dense, oracle)
		requireSameBitmap(t, name+" dense vs sparse", dense, sparse)
	}
}

// unionPositions returns the sorted distinct positions of the shifted sets.
func unionPositions(ms []*Bitmap, offs []int64) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for i, m := range ms {
		for _, p := range m.Positions() {
			if offs != nil {
				p += offs[i]
			}
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sorted, err := FromUnsorted(1<<62, out)
	if err != nil {
		panic(err)
	}
	return sorted.Positions()
}

// TestMergeDenseEdges walks the dense kernel's boundaries: universes that are
// not whole words or whole windows, positions on both sides of a window seam,
// duplicates, runs, shifted overlapping parts, and empty and full results.
func TestMergeDenseEdges(t *testing.T) {
	seam := int64(denseWindowBits)
	every := func(n, from, step int64) []int64 {
		var out []int64
		for p := from; p < n; p += step {
			out = append(out, p)
		}
		return out
	}
	cases := []struct {
		name string
		n    int64
		sets [][]int64
		offs []int64
	}{
		{"one-position-universe", 1, [][]int64{{0}, {0}}, nil},
		{"sub-word-universe", 63, [][]int64{{0, 5, 62}, {5, 61}}, nil},
		{"word-plus-one", 65, [][]int64{{0, 63, 64}, {63}, {1}}, nil},
		{"window-seam", seam + 37, [][]int64{{seam - 1, seam}, {0, seam - 1, seam + 36}, {seam}}, nil},
		{"window-exact", seam, [][]int64{{0, seam - 1}, {seam - 2}}, nil},
		{"three-windows-ragged", 2*seam + 77, [][]int64{every(2*seam+77, 3, 5), every(2*seam+77, 0, 7), {2*seam + 76}}, nil},
		{"empty-window-between", 3 * seam, [][]int64{{1, 2, 3}, {3*seam - 1}}, nil},
		{"all-duplicates", 1000, [][]int64{every(1000, 0, 3), every(1000, 0, 3), every(1000, 0, 3)}, nil},
		{"long-runs", seam + 300, [][]int64{every(seam+300, 100, 1), every(300, 0, 2)}, nil},
		{"full-universe", 200, [][]int64{every(200, 0, 2), every(200, 1, 2)}, nil},
		{"full-universe-across-seam", seam + 64, [][]int64{every(seam+64, 0, 1), {seam}}, nil},
		{"shifted-overlapping-parts", 3000, [][]int64{every(1000, 0, 3), every(1000, 1, 4), every(1000, 0, 1)}, []int64{0, 500, 1990}},
		{"shifted-across-seam", seam + 1000, [][]int64{every(1000, 0, 2), every(1000, 0, 2)}, []int64{seam - 500, seam - 499}},
		{"single-stream", 500, [][]int64{every(500, 7, 3)}, nil},
		{"no-streams", 130, nil, nil},
	}
	for _, tc := range cases {
		ms := make([]*Bitmap, len(tc.sets))
		for i, set := range tc.sets {
			u := tc.n
			if tc.offs != nil {
				u = 1000
			}
			ms[i] = MustFromPositions(u, set)
		}
		want := unionPositions(ms, tc.offs)
		checkBothPaths(t, tc.name+"/bitmap", tc.n, want, func() []*Stream { return bitmapStreams(ms, tc.offs) })
		if tc.offs != nil {
			// The public wrapper: overlapping shifted parts miss the
			// concatenation fast path and are dense enough for the window.
			parts := make([]Shifted, len(ms))
			for i, m := range ms {
				parts[i] = Shifted{Bm: m, Off: tc.offs[i]}
			}
			got, err := UnionAll(tc.n, parts...)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBitmap(t, tc.name+"/UnionAll", got, MustFromPositions(tc.n, want))
			continue
		}
		// The same sets as validating disk-backed streams and as replay views.
		rd, starts, lens := encodeConcat(ms)
		checkBothPaths(t, tc.name+"/disk", tc.n, want, func() []*Stream {
			out := make([]*Stream, len(ms))
			for i, m := range ms {
				out[i] = new(Stream)
				if err := out[i].InitDecode(rd, starts[i], lens[i], m.Card(), tc.n, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			return out
		})
		checkBothPaths(t, tc.name+"/replay", tc.n, want, func() []*Stream {
			out := make([]*Stream, len(ms))
			for i, m := range ms {
				out[i] = new(Stream)
				if err := out[i].InitDecodeValidated(rd, starts[i], lens[i], m.Card(), m.last, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			return out
		})
	}
}

// requireSameSamples fails unless got holds want's bytes and, unless got is
// unsampled, exactly its skip samples.
func requireSameSamples(t *testing.T, what string, got, want *Bitmap, sampled bool) {
	t.Helper()
	if !Equal(got, want) || got.last != want.last {
		t.Fatalf("%s: %d bits (card %d, last %d), want %d (card %d, last %d)", what, got.bits, got.card, got.last, want.bits, want.card, want.last)
	}
	if !sampled {
		if got.samplePos != nil {
			t.Fatalf("%s: an unsampled merge recorded %d samples", what, len(got.samplePos))
		}
		return
	}
	if got.sampleK != want.sampleK || !slices.Equal(got.samplePos, want.samplePos) || !slices.Equal(got.sampleOff, want.sampleOff) {
		t.Fatalf("%s: samples (k=%d) %v %v, want (k=%d) %v %v", what, got.sampleK, got.samplePos, got.sampleOff, want.sampleK, want.samplePos, want.sampleOff)
	}
}

// TestEmitEncoders: emit's two encoders, forced, and the merges that choose
// between them write FromPositions' bytes and skip samples — at positions 0,
// 63, 64 and a window's last, on words of 0, 1, 4, 5 and 64 set bits (extract's
// unrolled and looping cases), over a partial last word, as union and as
// complement, sampled and not, and for windows just either side of
// flatMaxPerWord.
func TestEmitEncoders(t *testing.T) {
	const w = denseWindowBits
	rng := rand.New(rand.NewSource(39))
	// pops puts pop[k%len(pop)] set bits, at random, in word k of [0,n).
	pops := func(n int64, pop ...int) []int64 {
		var out []int64
		for base := int64(0); base < n; base += 64 {
			word := uint64(0)
			for _, b := range rng.Perm(64)[:pop[base/64%int64(len(pop))]] {
				word |= 1 << uint(b)
			}
			for ; word != 0; word &= word - 1 {
				if p := base + int64(bits.TrailingZeros64(word)); p < n {
					out = append(out, p)
				}
			}
		}
		return out
	}
	// atRandom holds k distinct positions of [0,n).
	atRandom := func(n int64, k int) []int64 {
		out := make([]int64, k)
		for i, p := range rng.Perm(int(n))[:k] {
			out[i] = int64(p)
		}
		slices.Sort(out)
		return out
	}
	edge := int64(flatMaxPerWord * denseWindowWords)
	cases := []struct {
		name string
		n    int64
		pos  []int64
	}{
		{"edges", 2*w + 37, []int64{0, 63, 64, w - 1, w, w + 63, 2*w + 36}},
		{"pops-0-1-4-5-64", 3*w + 10, pops(3*w+10, 0, 1, 4, 5, 64)},
		{"pops-64-5-4-1-0", 2*w + 100, pops(2*w+100, 64, 5, 4, 1, 0)},
		{"crossover-flat", w, atRandom(w, int(edge))},
		{"crossover-runs", w, atRandom(w, int(edge)+1)},
		{"crossover-flat-complement", w, atRandom(w, w-int(edge))},
		{"crossover-runs-complement", w, atRandom(w, w-int(edge)-1)},
	}
	for _, tc := range cases {
		want := MustFromPositions(tc.n, tc.pos)
		// Each encoder, forced, window by window into a sampled Builder.
		for _, enc := range []struct {
			name   string
			encode func(*denseEmitter, []uint64, int64)
		}{{"emitRuns", emitRuns}, {"emitFlat", (*denseEmitter).emitFlat}, {"emit", (*denseEmitter).emit}} {
			bd := NewBuilder(0)
			e := denseEmitter{bd: bd, prev: -1}
			win := new(denseWindow)
			for base := int64(0); base < tc.n; base += w {
				end := min(base+w, tc.n)
				for _, p := range tc.pos {
					if base <= p && p < end {
						win[(p-base)>>6] |= 1 << uint((p-base)&63)
					}
				}
				enc.encode(&e, win[:(end-base+63)>>6], base)
				if *win != (denseWindow{}) {
					t.Fatalf("%s/%s: window words left set", tc.name, enc.name)
				}
			}
			e.flush()
			requireSameSamples(t, tc.name+"/"+enc.name, bd.Bitmap(tc.n), want, true)
		}
		// Plain.Compress: the whole bitset through emit at once, left set.
		pl := NewPlain(tc.n)
		for _, p := range tc.pos {
			pl.Set(p)
		}
		requireSameSamples(t, tc.name+"/Plain.Compress", pl.Compress(), want, true)
		if pl.Card() != int64(len(tc.pos)) {
			t.Fatalf("%s: Plain.Compress left %d of %d bits set", tc.name, pl.Card(), len(tc.pos))
		}
		// The window merge over two streams that split the positions.
		var even, odd []int64
		for i, p := range tc.pos {
			if i%2 == 0 {
				even = append(even, p)
			} else {
				odd = append(odd, p)
			}
		}
		parts := []*Bitmap{MustFromPositions(tc.n, even), MustFromPositions(tc.n, odd)}
		rest := MustFromPositions(tc.n, complementOf(tc.n, tc.pos))
		for _, complement := range []bool{false, true} {
			oracle := want
			if complement {
				oracle = rest
			}
			for _, sampled := range []bool{true, false} {
				got, err := mergePath(true, sampled, tc.n, complement, bitmapStreams(parts, nil))
				if err != nil {
					t.Fatal(err)
				}
				requireSameSamples(t, fmt.Sprintf("%s/merge complement=%v sampled=%v", tc.name, complement, sampled), got, oracle, sampled)
			}
		}
	}
}

// complementOf returns the positions of [0,n) not in the sorted pos.
func complementOf(n int64, pos []int64) []int64 {
	var out []int64
	for p := int64(0); p < n; p++ {
		if len(pos) > 0 && pos[0] == p {
			pos = pos[1:]
		} else {
			out = append(out, p)
		}
	}
	return out
}

// TestMergeDenseThreshold: inputs just below the crossover take the sparse
// path, inputs just above it the dense one, and the public entry points
// return the oracle's bytes on both sides.
func TestMergeDenseThreshold(t *testing.T) {
	n := int64(3*denseWindowBits + 11)
	for i, tc := range []struct {
		total int64
		dense bool
	}{
		{n/denseCrossover - 40, false},
		{n/denseCrossover + 40, true},
		{n / 8, true},
	} {
		ms := streamTestSets(t, 4, int(tc.total/4)+1, n, int64(13+i))
		var card int64
		for _, m := range ms {
			card += m.Card()
		}
		heads, _, err := primeHeads(new(mergeScratch), bitmapStreams(ms, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := denseEnough(n, false, heads); got != tc.dense {
			t.Fatalf("card %d over n %d: denseEnough = %v, want %v", card, n, got, tc.dense)
		}
		want := MustFromPositions(n, unionPositions(ms, nil))
		got, err := MergeStreams(n, bitmapStreams(ms, nil)...)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBitmap(t, "MergeStreams", got, want)
		gotC, err := MergeStreamsComplement(n, bitmapStreams(ms, nil)...)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBitmap(t, "MergeStreamsComplement", gotC, want.Complement())
	}
	// What has no per-row loop to replace stays sparse whatever its density,
	// and so does a StreamEncoder merge (n = 0).
	full := streamTestSets(t, 2, 2048, 4096, 16)
	heads, _, _ := primeHeads(new(mergeScratch), bitmapStreams(full, nil))
	if !denseEnough(4096, false, heads) || denseEnough(0, false, heads) {
		t.Fatal("two dense streams: want dense over n = 4096, sparse over n = 0")
	}
	if denseEnough(4096, false, heads[:1]) || !denseEnough(4096, true, heads[:1]) {
		t.Fatal("one dense stream: want sparse union (verbatim drain), dense complement")
	}
	if denseEnough(4096, true, nil) {
		t.Fatal("empty union: the complement is one AddRun, not a window walk")
	}
}

// viewOverCodes returns a validation-skipping replay view over the given gap
// values, as a shared scan hands out — here over bits no scan ever validated.
func viewOverCodes(claimedLast int64, gaps ...uint64) *Stream {
	w := bitio.NewWriter(0)
	for _, g := range gaps {
		gamma.Write(w, g)
	}
	s := new(Stream)
	if err := s.InitDecodeValidated(bitio.NewReader(w.Bytes(), w.Len()), 0, w.Len(), int64(len(gaps)), claimedLast, 0, 0); err != nil {
		panic(err)
	}
	return s
}

// TestMergeDenseCorruptReplayView: a replay view whose bits decode below the
// window, backwards, or past the universe yields a typed error from the dense
// path — never a panic or a write outside the window — and the window words
// go back zeroed for the next pooled user.
func TestMergeDenseCorruptReplayView(t *testing.T) {
	n := int64(denseWindowBits + 500)
	wrap := ^uint64(0) - 4 // int64(gap) = -5
	cases := []struct {
		name string
		bad  func() *Stream
	}{
		{"head-below-window", func() *Stream { return viewOverCodes(10, wrap, 1) }},
		{"regress-in-window", func() *Stream { return viewOverCodes(30, 11, 9, wrap, 40) }},
		{"regress-at-seam", func() *Stream { return viewOverCodes(30, uint64(denseWindowBits), 3, wrap) }},
		{"overshoot-n", func() *Stream { return viewOverCodes(30, 5, uint64(n)) }},
		{"overshoot-far", func() *Stream { return viewOverCodes(30, 5, 1<<40, 1<<62, 1<<62) }},
		{"truncated", func() *Stream {
			s := viewOverCodes(30, 5, 6, 7)
			s.left += 3 // claims more gaps than its bits hold
			return s
		}},
	}
	good := MustFromPositions(n, []int64{0, 1, 2, 70, 4000, n - 1})
	for _, tc := range cases {
		for _, complement := range []bool{false, true} {
			pair := func() []*Stream { return append(bitmapStreams([]*Bitmap{good}, nil), tc.bad()) }
			heads, sizeHint, err := primeHeads(new(mergeScratch), pair())
			if err != nil {
				t.Fatalf("%s: prime: %v", tc.name, err)
			}
			words := make([]uint64, denseWindowWords)
			err = mergeWindows(NewBuilder(sizeHint), n, complement, heads, words)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s (complement %v): err = %v, want ErrCorrupt", tc.name, complement, err)
			}
			for i, w := range words {
				if w != 0 {
					t.Fatalf("%s (complement %v): window word %d left dirty (%#x)", tc.name, complement, i, w)
				}
			}
			// Through the pool: a clean merge right after must be unaffected.
			if _, err := mergeVia(true, n, complement, pair()); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: pooled run: err = %v, want ErrCorrupt", tc.name, err)
			}
			clean, err := mergeVia(true, n, complement, bitmapStreams([]*Bitmap{good, good}, nil))
			if err != nil {
				t.Fatal(err)
			}
			want := good
			if complement {
				want = good.Complement()
			}
			requireSameBitmap(t, tc.name+": merge after failure", clean, want)
		}
	}
}

// TestMergeDenseHugeGap: the emitter's fallback for gamma codes longer than
// its accumulator (gaps of 2^32 and more) writes the same bits as Builder.Add.
func TestMergeDenseHugeGap(t *testing.T) {
	n := int64(1<<33 + 3*denseWindowBits)
	a := MustFromPositions(n, []int64{3, 4, 1<<33 + 5, 1<<33 + 6, 1<<33 + 100, n - 1})
	b := MustFromPositions(n, []int64{4, 9, 1<<33 + 5, 1<<33 + 70})
	want := unionPositions([]*Bitmap{a, b}, nil)
	sparse, err := mergeVia(false, n, false, bitmapStreams([]*Bitmap{a, b}, nil))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := mergeVia(true, n, false, bitmapStreams([]*Bitmap{a, b}, nil))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBitmap(t, "huge gap dense vs sparse", dense, sparse)
	requireSameBitmap(t, "huge gap dense vs oracle", dense, MustFromPositions(n, want))
}

// TestMergeDenseSteadyStateAllocs: the window is pooled, so a steady-state
// dense merge allocates what a sparse one does — the bitmap it returns.
func TestMergeDenseSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	n := int64(1 << 18)
	ms := streamTestSets(t, 4, int(n/16), n, 5)
	streams := bitmapStreams(ms, nil)
	run := func() {
		for i, m := range ms {
			streams[i].InitBitmap(m, 0)
		}
		if _, err := MergeStreams(n, streams...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		run() // warm the pools
	}
	const maxAllocs = 10 // as TestMergeStreamsSteadyStateAllocs
	if allocs := testing.AllocsPerRun(50, run); allocs > maxAllocs {
		t.Fatalf("steady-state dense merge allocated %.1f times, want <= %d", allocs, maxAllocs)
	}
}

// FuzzMergeDenseVsSparse: the same streams through both paths of runMerge
// — the window path sampled or, as a shard's part is, unsampled (flags bit
// 6), and the disk-backed ones each coded at its own exp-Golomb order — give
// the same bytes, cardinality, largest position and sample-backed
// Contains/Rank; validating streams over corrupted bits fail in both with
// ErrCorrupt or succeed in both with the same answer; and corrupted replay
// views (which nothing validates) never panic the dense path or make it emit
// a position outside the universe.
func FuzzMergeDenseVsSparse(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200}, []byte{2, 90}, []byte{7}, uint32(1000), uint8(0), uint16(0), uint32(0))
	f.Add([]byte{}, []byte{0}, []byte{}, uint32(4), uint8(0x11), uint16(0), uint32(1<<6|2<<12))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0, 0, 0, 9}, []byte{0, 0, 0, 0}, []byte{1, 1, 1}, uint32(70000), uint8(0x26), uint16(3), uint32(5|9<<6))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}, []byte{0x80, 0, 0xff}, []byte{}, uint32(140000), uint8(0x4b), uint16(17), uint32(32|31<<6|1<<12))
	f.Add([]byte{9, 9, 9, 9}, []byte{9, 9, 9, 9}, []byte{3}, uint32(65536), uint8(0x8f), uint16(40), uint32(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}, []byte{0x80, 0, 0xff}, []byte{}, uint32(140000), uint8(0x0b), uint16(17), uint32(17))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 1, 0, 1}, []byte{5}, uint32(200000), uint8(0x54), uint16(9), uint32(3|3<<6|3<<12))
	f.Fuzz(func(t *testing.T, araw, braw, craw []byte, n32 uint32, flags uint8, flipAt uint16, orders uint32) {
		n := int64(n32%(3*denseWindowBits+100)) + 2
		shift := uint(flags&3) * 3 // gap scale: dense runs up to window-crossing jumps
		kind := flags >> 2 & 3     // 0 disk (validating), 1 bitmap, 2 replay view, 3 shifted bitmap
		complement := flags&0x10 != 0
		corrupt := flags&0x20 != 0 && (kind == 0 || kind == 2)
		sampled := flags&0x40 == 0 // else the window merge is a shard part's, unsampled

		var ms []*Bitmap
		for _, raw := range [][]byte{araw, braw, craw} {
			var pos []int64
			p := int64(-1)
			for _, v := range raw {
				if p += 1 + int64(v)<<shift; p >= n {
					break
				}
				pos = append(pos, p)
			}
			ms = append(ms, MustFromPositions(n, pos))
		}
		ks := fuzzOrders(orders, len(ms))
		w, starts, lens := encodeConcatOrders(ms, ks)
		if corrupt && w.Len() > 0 {
			at := int(flipAt) % w.Len()
			w.Bytes()[at>>3] ^= 0x80 >> uint(at&7)
		}
		rd := bitio.NewReader(w.Bytes(), w.Len())
		var offs []int64
		if kind == 3 {
			offs = []int64{0, int64(flipAt) % n, int64(flipAt) % n / 2}
		}
		mk := func() []*Stream {
			out := make([]*Stream, len(ms))
			for i, m := range ms {
				out[i] = new(Stream)
				var err error
				switch kind {
				case 0:
					err = out[i].InitDecode(rd, starts[i], lens[i], m.Card(), n, 0, ks[i])
				case 1:
					out[i].InitBitmap(m, 0)
				case 2:
					err = out[i].InitDecodeValidated(rd, starts[i], lens[i], m.Card(), m.last, 0, ks[i])
				case 3:
					out[i].InitBitmap(m, offs[i])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		univ := n
		if kind == 3 {
			univ = 2 * n // room for the shifts
		}
		sparse, serr := mergeVia(false, univ, complement, mk())
		dense, derr := mergePath(true, sampled, univ, complement, mk())
		for _, err := range []error{serr, derr} {
			if err != nil && (!corrupt || !errors.Is(err, ErrCorrupt)) {
				t.Fatalf("merge failed (corrupt input: %v): %v", corrupt, err)
			}
		}
		if corrupt && kind == 2 {
			if derr == nil {
				prev := int64(-1)
				it := dense.Iter()
				for p, ok := it.Next(); ok; p, ok = it.Next() {
					if p <= prev || p >= univ {
						t.Fatalf("dense path emitted position %d after %d in universe %d", p, prev, univ)
					}
					prev = p
				}
			}
			return
		}
		if (serr == nil) != (derr == nil) {
			t.Fatalf("paths disagree on corrupt input: sparse %v, dense %v", serr, derr)
		}
		if serr == nil {
			requireSameBitmap(t, "dense vs sparse", dense, sparse)
		}
	})
}

// BenchmarkMergePaths is the density sweep behind denseCrossover
// (hypotheses/dense-merge): the same disk-backed streams through each path of
// runMerge, forced, at a total input density of one position per D.
func BenchmarkMergePaths(b *testing.B) {
	seed := *mergeBenchSeed
	n := int64(1 << 20)
	for _, op := range []string{"union", "complement"} {
		for _, k := range []int{2, 4, 16, 64} {
			for _, d := range []int64{4, 16, 64, 128, 256, 512, 1024, 2048, 4096} {
				ms := streamTestSets(b, k, int(n/d)/k+1, n, seed)
				rd, starts, lens := encodeConcat(ms)
				var rows int64
				for _, m := range ms {
					rows += m.Card()
				}
				streams := make([]*Stream, k)
				for i := range streams {
					streams[i] = new(Stream)
				}
				for _, path := range []string{"sparse", "dense"} {
					b.Run(fmt.Sprintf("%s/k=%d/density=1_%d/%s", op, k, d, path), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							for j, s := range streams {
								if err := s.InitDecode(rd, starts[j], lens[j], ms[j].Card(), n, 0, 0); err != nil {
									b.Fatal(err)
								}
							}
							if _, err := mergeVia(path == "dense", n, op == "complement", streams); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
					})
				}
			}
		}
	}
}
