package cbitmap

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bitio"
)

// Differential tests for StreamEncoder, the write-path half of the fused
// streaming pipeline: every encoder path must produce the same bytes as
// encoding through a Builder/Bitmap, since the on-disk format may not move
// by a single bit.

// encBytes returns a bitmap's raw encoded stream.
func encBytes(t *testing.T, bm *Bitmap) []byte {
	t.Helper()
	w := bitio.NewWriter(bm.SizeBits())
	bm.EncodeTo(w)
	return w.Bytes()
}

// randSortedLists draws k disjoint sorted position lists over [0,n).
func randSortedLists(rng *rand.Rand, k, m int, n int64) ([][]int64, []int64) {
	seen := make(map[int64]struct{})
	lists := make([][]int64, k)
	var all []int64
	for li := 0; li < k; li++ {
		for j := 0; j < m; j++ {
			p := rng.Int63n(n)
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			lists[li] = append(lists[li], p)
			all = append(all, p)
		}
	}
	for _, l := range lists {
		sortInt64s(l)
	}
	sortInt64s(all)
	return lists, all
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestStreamEncoderMergeSortedSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := int64(1 << 18)
	for _, k := range []int{0, 1, 2, 3, 8, 9, 17, 64} {
		lists, all := randSortedLists(rng, k, 200, n)
		want := MustFromPositions(n, all)
		w := bitio.NewWriter(0)
		var e StreamEncoder
		e.Init(w)
		e.MergeSortedSlices(lists...)
		if e.Card() != want.Card() {
			t.Fatalf("k=%d: card %d, want %d", k, e.Card(), want.Card())
		}
		if wantLast := int64(-1); want.Card() > 0 {
			wantLast = all[len(all)-1]
			if e.Last() != wantLast {
				t.Fatalf("k=%d: last %d, want %d", k, e.Last(), wantLast)
			}
		} else if e.Last() != -1 {
			t.Fatalf("k=%d: last %d on empty stream, want -1", k, e.Last())
		}
		if !bytes.Equal(w.Bytes(), encBytes(t, want)) || w.Len() != want.SizeBits() {
			t.Fatalf("k=%d: encoded stream differs from Builder path", k)
		}
	}
}

// TestMergeStreamsEqualsUnion: merging k streams over bitmaps writes the
// bytes of the bitmaps' Union.
func TestMergeStreamsEqualsUnion(t *testing.T) {
	n := int64(1 << 19)
	for _, k := range []int{1, 2, 5, 12} {
		ms := streamTestSets(t, k, 900, n, int64(100+k))
		want, err := Union(ms...)
		if err != nil {
			t.Fatal(err)
		}
		streams := make([]*Stream, k)
		for i, m := range ms {
			streams[i] = new(Stream)
			streams[i].InitBitmap(m, 0)
		}
		got, err := MergeStreams(n, streams...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Card() != want.Card() {
			t.Fatalf("k=%d: card %d, want %d", k, got.Card(), want.Card())
		}
		if !bytes.Equal(encBytes(t, got), encBytes(t, want)) || got.SizeBits() != want.SizeBits() {
			t.Fatalf("k=%d: merged stream differs from the Union bitmap", k)
		}
	}
}

// TestStreamEncoderContinuation: InitAt continues an existing gap stream —
// appending through the encoder must equal re-encoding the whole set.
func TestStreamEncoderContinuation(t *testing.T) {
	n := int64(1 << 16)
	head := []int64{3, 40, 41, 900}
	tail := []int64{901, 4000, 65000}
	w := bitio.NewWriter(0)
	var e StreamEncoder
	e.Init(w)
	for _, p := range head {
		e.Add(p)
	}
	e2 := StreamEncoder{}
	e2.InitAt(w, e.Last())
	for _, p := range tail {
		e2.Add(p)
	}
	if e2.Card() != int64(len(tail)) || e2.Last() != tail[len(tail)-1] {
		t.Fatalf("continuation card %d last %d", e2.Card(), e2.Last())
	}
	want := MustFromPositions(n, append(append([]int64{}, head...), tail...))
	if !bytes.Equal(w.Bytes(), encBytes(t, want)) {
		t.Fatal("continued stream differs from whole-set encoding")
	}
}

// TestStreamEncoderAddRun: run writing through the encoder matches the
// Builder's whole-word run path byte for byte.
func TestStreamEncoderAddRun(t *testing.T) {
	n := int64(1 << 14)
	w := bitio.NewWriter(0)
	var e StreamEncoder
	e.Init(w)
	e.Add(5)
	e.AddRun(100, 700)
	var pos []int64
	pos = append(pos, 5)
	for i := int64(0); i < 700; i++ {
		pos = append(pos, 100+i)
	}
	want := MustFromPositions(n, pos)
	if e.Card() != want.Card() {
		t.Fatalf("card %d, want %d", e.Card(), want.Card())
	}
	if !bytes.Equal(w.Bytes(), encBytes(t, want)) {
		t.Fatal("run stream differs from Builder path")
	}
}

// TestMergeSortedSlicesSteadyStateAllocs: with the head scratch pooled, a
// steady-state slice merge into a reused writer allocates nothing — the
// property the streaming rebuild pipeline is built on.
func TestMergeSortedSlicesSteadyStateAllocs(t *testing.T) {
	skipUnderRace(t)
	rng := rand.New(rand.NewSource(72))
	lists, _ := randSortedLists(rng, 12, 500, 1<<20)
	w := bitio.NewWriter(0)
	var e StreamEncoder
	// Warm the pool and the writer's buffer.
	e.Init(w)
	e.MergeSortedSlices(lists...)
	allocs := testing.AllocsPerRun(50, func() {
		w.Reset()
		e.Init(w)
		e.MergeSortedSlices(lists...)
	})
	if allocs != 0 {
		t.Fatalf("steady-state MergeSortedSlices allocated %.1f times per merge, want 0", allocs)
	}
}

// TestAddSortedMatchesAdd pins the bulk accumulator path to per-row Add:
// same bytes, Card and Last and (a StreamEncoder collects none) no skip
// samples — across dense runs, gaps whose codes straddle the accumulator's
// word, gaps of 2^32 and more (codes above 64 bits), both entry widths, and
// the InitAt continuation.
func TestAddSortedMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sets := map[string][]int64{
		"empty":     {},
		"single":    {0},
		"first gap": {1<<32 - 1}, // gap 2^32 from the head position -1
		"wide":      {5, 1 << 31, 1<<31 + 1, 1 << 33, 1<<33 + 1<<32, 1 << 40, 1<<40 + 3, 1 << 62},
	}
	for _, maxGap := range []int64{1, 2, 300, 1 << 20, 1 << 31} {
		var set []int64
		p := int64(-1)
		for i := 0; i < 3000; i++ {
			p += 1 + rng.Int63n(maxGap)
			set = append(set, p)
		}
		sets["gaps up to "+strconv.FormatInt(maxGap, 10)] = set
	}
	for name, set := range sets {
		for _, cut := range []int{0, len(set) / 3, len(set)} {
			ww, gw := bitio.NewWriter(0), bitio.NewWriter(0)
			ww.WriteBits(5, 3) // an unaligned start, as inside a level's writer
			gw.WriteBits(5, 3)
			var want, got StreamEncoder
			want.Init(ww)
			for _, p := range set[:cut] {
				want.Add(p)
			}
			want.InitAt(ww, want.Last())
			for _, p := range set[cut:] {
				want.Add(p)
			}
			got.Init(gw)
			AddSorted(&got, set[:cut])
			got.InitAt(gw, got.Last())
			AddSorted(&got, set[cut:])
			if gw.Len() != ww.Len() || !bytes.Equal(gw.Bytes(), ww.Bytes()) {
				t.Fatalf("%s cut %d: AddSorted wrote %d bits, Add %d (or bytes differ)", name, cut, gw.Len(), ww.Len())
			}
			if got.Card() != want.Card() || got.Last() != want.Last() || len(got.bd.samplePos) != 0 || len(want.bd.samplePos) != 0 {
				t.Fatalf("%s cut %d: card %d/%d, last %d/%d, samples %d/%d", name, cut,
					got.Card(), want.Card(), got.Last(), want.Last(), len(got.bd.samplePos), len(want.bd.samplePos))
			}
			if len(set) > 0 && set[len(set)-1] <= math.MaxUint32 {
				narrow := make([]uint32, len(set))
				for i, p := range set {
					narrow[i] = uint32(p)
				}
				nw := bitio.NewWriter(0)
				nw.WriteBits(5, 3)
				got.Init(nw)
				AddSorted(&got, narrow[:cut])
				got.InitAt(nw, got.Last())
				AddSorted(&got, narrow[cut:])
				if nw.Len() != ww.Len() || !bytes.Equal(nw.Bytes(), ww.Bytes()) {
					t.Fatalf("%s cut %d: 32-bit AddSorted differs from Add", name, cut)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddSorted accepted a position not above the last")
		}
	}()
	var e StreamEncoder
	e.Init(bitio.NewWriter(0))
	AddSorted(&e, []int64{4, 4})
}
