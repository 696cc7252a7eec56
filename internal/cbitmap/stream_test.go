package cbitmap

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

// streamTestSets builds k random position sets over [0,n).
func streamTestSets(t testing.TB, k, m int, n int64, seed int64) []*Bitmap {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Bitmap, k)
	for i := range out {
		pos := make([]int64, 0, m)
		for j := 0; j < m; j++ {
			pos = append(pos, rng.Int63n(n))
		}
		bm, err := FromUnsorted(n, pos)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = bm
	}
	return out
}

// encodeConcat concatenates the sets' encoded streams into one buffer — the
// shape of a materialised cover chunk on disk — returning the buffer reader
// and each member's (start, bits).
func encodeConcat(ms []*Bitmap) (*bitio.Reader, []int, []int) {
	w, starts, lens := encodeConcatWriter(ms)
	return bitio.NewReader(w.Bytes(), w.Len()), starts, lens
}

// encodeConcatWriter is encodeConcat handing out the buffer itself, for tests
// that damage it before reading.
func encodeConcatWriter(ms []*Bitmap) (*bitio.Writer, []int, []int) {
	w := bitio.NewWriter(0)
	starts := make([]int, len(ms))
	lens := make([]int, len(ms))
	for i, m := range ms {
		starts[i] = w.Len()
		m.EncodeTo(w)
		lens[i] = w.Len() - starts[i]
	}
	return w, starts, lens
}

// encodeConcatOrders is encodeConcatWriter with the gaps of ms[i] coded at
// exp-Golomb order orders[i], one gamma.WriteK at a time.
func encodeConcatOrders(ms []*Bitmap, orders []uint) (*bitio.Writer, []int, []int) {
	w := bitio.NewWriter(0)
	starts := make([]int, len(ms))
	lens := make([]int, len(ms))
	for i, m := range ms {
		starts[i] = w.Len()
		prev := int64(-1)
		for _, p := range m.Positions() {
			gamma.WriteK(w, uint64(p-prev), orders[i])
			prev = p
		}
		lens[i] = w.Len() - starts[i]
	}
	return w, starts, lens
}

// fuzzOrders spreads a fuzz word over n exp-Golomb orders in [0, MaxOrder].
func fuzzOrders(x uint32, n int) []uint {
	orders := make([]uint, n)
	for i := range orders {
		orders[i] = uint(x>>(6*i)&63) % (gamma.MaxOrder + 1)
	}
	return orders
}

// TestStreamDecodeMatchesIter: a disk-backed stream produces exactly the
// bitmap's positions, bounded by its own bit range even when the underlying
// reader spans many members.
func TestStreamDecodeMatchesIter(t *testing.T) {
	ms := streamTestSets(t, 5, 700, 1<<20, 1)
	rd, starts, lens := encodeConcat(ms)
	for i, m := range ms {
		var s Stream
		if err := s.InitDecode(rd, starts[i], lens[i], m.Card(), m.Universe(), 0, 0); err != nil {
			t.Fatal(err)
		}
		it := m.Iter()
		for want, ok := it.Next(); ok; want, ok = it.Next() {
			got, gok := s.Next()
			if !gok || got != want {
				t.Fatalf("member %d: stream got (%d,%v), want %d", i, got, gok, want)
			}
		}
		if _, ok := s.Next(); ok || s.Err() != nil {
			t.Fatalf("member %d: stream not cleanly exhausted (err %v)", i, s.Err())
		}
	}
}

// TestMergeStreamsMatchesDecodeThenUnion: the fused merge over disk-backed
// streams is byte-identical to the decode-then-union oracle, for both the
// union and the fused complement, across fan-ins that exercise the linear
// and heap merge paths.
func TestMergeStreamsMatchesDecodeThenUnion(t *testing.T) {
	n := int64(1 << 18)
	for _, k := range []int{0, 1, 2, 7, 8, 9, 16, 31} {
		ms := streamTestSets(t, k, 300, n, int64(100+k))
		rd, starts, lens := encodeConcat(ms)

		// Oracle: materialise every member with Decode, then union.
		var decoded []*Bitmap
		for i, m := range ms {
			sub, err := rd.Sub(starts[i], lens[i])
			if err != nil {
				t.Fatal(err)
			}
			bm, err := Decode(&sub, m.Card(), n)
			if err != nil {
				t.Fatal(err)
			}
			decoded = append(decoded, bm)
		}
		oracle, err := UnionOver(n, decoded...)
		if err != nil {
			t.Fatal(err)
		}

		streams := make([]*Stream, k)
		for i := range streams {
			streams[i] = new(Stream)
			if err := streams[i].InitDecode(rd, starts[i], lens[i], ms[i].Card(), n, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		got, err := MergeStreams(n, streams...)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, oracle) {
			t.Fatalf("k=%d: fused merge differs from decode-then-union", k)
		}
		if got.Universe() != n {
			t.Fatalf("k=%d: universe %d, want %d", k, got.Universe(), n)
		}

		for i := range streams {
			if err := streams[i].InitDecode(rd, starts[i], lens[i], ms[i].Card(), n, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		gotC, err := MergeStreamsComplement(n, streams...)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(gotC, oracle.Complement()) {
			t.Fatalf("k=%d: fused complement differs from union-then-complement", k)
		}
	}
}

// TestMergeStreamsEmptyCarriesUniverse: the empty merge (and empty union
// wrappers) must carry the query's universe — the wart the fused pipeline
// removed from the query paths.
func TestMergeStreamsEmptyCarriesUniverse(t *testing.T) {
	n := int64(4242)
	got, err := MergeStreams(n)
	if err != nil {
		t.Fatal(err)
	}
	if got.Universe() != n || got.Card() != 0 {
		t.Fatalf("empty merge: universe %d card %d, want %d and 0", got.Universe(), got.Card(), n)
	}
	u, err := UnionOver(n, Empty(1), Empty(n))
	if err != nil {
		t.Fatal(err)
	}
	if u.Universe() != n || u.Card() != 0 {
		t.Fatalf("UnionOver empties: universe %d card %d", u.Universe(), u.Card())
	}
	c, err := MergeStreamsComplement(n)
	if err != nil {
		t.Fatal(err)
	}
	if c.Universe() != n || c.Card() != n {
		t.Fatalf("empty complement merge: universe %d card %d, want full", c.Universe(), c.Card())
	}
}

// TestStreamValidation: corrupt streams must surface as errors from the
// merge, never as panics or silently wrong answers.
func TestStreamValidation(t *testing.T) {
	// A zero gap (first bit pattern "1" twice) repeats a position.
	w := bitio.NewWriter(0)
	w.WriteBits(1, 1) // gap 1: position 0
	w.WriteBits(1, 1) // gap 1 again would be position 1 — fine; use universe 1
	rd := bitio.NewReader(w.Bytes(), w.Len())
	var s Stream
	if err := s.InitDecode(rd, 0, w.Len(), 2, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeStreams(1, &s); err == nil {
		t.Fatal("out-of-universe position accepted")
	}
	// Cardinality larger than the stream's bits.
	if err := s.InitDecode(rd, 0, w.Len(), 50, 1<<20, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeStreams(1<<20, &s); err == nil {
		t.Fatal("over-long cardinality accepted")
	}
	// The bit bound must also hold when the underlying reader has more bits:
	// a lying cardinality cannot read into a neighbouring member.
	w2 := bitio.NewWriter(0)
	w2.WriteBits(1, 1)           // member: {0}
	w2.WriteBits(^uint64(0), 64) // neighbour bits, all ones
	rd2 := bitio.NewReader(w2.Bytes(), w2.Len())
	if err := s.InitDecode(rd2, 0, 1, 3, 1<<20, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeStreams(1<<20, &s); err == nil {
		t.Fatal("stream read past its own bit range")
	}
}

// TestMergeStreamsShifted: bitmap-backed shifted streams merge identically
// to re-encoding the shifted positions, in both the disjoint (concat) and
// overlapping arrangements. So does each way a union ends, on the per-row and
// the window path alike: a shifted validating tail at the answer's order,
// concatenated after its own validation (ValidatedLast then reports its
// last), which fails ErrCorrupt when a position lies past its own universe
// though inside n; a replay tail at another order, re-encoded; and a lone
// stream at order k > 0, which keeps its order. A replay tail whose first
// gap does not climb above the merged prefix fails typed.
func TestMergeStreamsShifted(t *testing.T) {
	n := int64(1 << 16)
	a := MustFromPositions(1000, []int64{1, 5, 999})
	b := MustFromPositions(1000, []int64{0, 2, 500})
	for _, offs := range [][2]int64{{0, 1000}, {0, 500}, {0, 0}} {
		var sa, sb Stream
		sa.InitBitmap(a, offs[0])
		sb.InitBitmap(b, offs[1])
		got, err := MergeStreams(n, &sa, &sb)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		for _, p := range a.Positions() {
			seen[p+offs[0]] = true
		}
		for _, p := range b.Positions() {
			seen[p+offs[1]] = true
		}
		var pos []int64
		for p := range seen {
			pos = append(pos, p)
		}
		want, err := FromUnsorted(n, pos)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, want) {
			t.Fatalf("offsets %v: merged stream differs from re-encoded", offs)
		}
	}

	u := int64(denseWindowBits) // c, d: one window each; the union spans two
	c := MustFromPositions(u, []int64{3, 70, 900, u - 1})
	var dpos []int64
	for p := int64(1); p < u; p += 37 {
		dpos = append(dpos, p)
	}
	d := MustFromPositions(u, dpos)
	for _, tc := range []struct {
		name    string
		k       uint  // d's order
		du      int64 // d's own universe when it validates, else 0: a replay
		lone    bool  // d alone
		corrupt bool
	}{
		{"validating tail", 0, u, false, false},
		{"tail past its own universe", 0, d.last, false, true},
		{"replay tail at order 3", 3, 0, false, false},
		{"lone stream at order 5", 5, u, true, false},
	} {
		w, starts, lens := encodeConcatOrders([]*Bitmap{c, d}, []uint{0, tc.k})
		rd := bitio.NewReader(w.Bytes(), w.Len())
		for _, off := range []int64{u / 2, u} {
			for _, dense := range []bool{false, true} {
				var sc, sd Stream
				if err := sc.InitDecode(rd, starts[0], lens[0], c.card, u, 0, 0); err != nil {
					t.Fatal(err)
				}
				var err error
				if tc.du > 0 {
					err = sd.InitDecode(rd, starts[1], lens[1], d.card, tc.du, off, tc.k)
				} else {
					err = sd.InitDecodeValidated(rd, starts[1], lens[1], d.card, d.last, off, tc.k)
				}
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s, shift %d, dense %v", tc.name, off, dense)
				var got *Bitmap
				parts, offs := []*Bitmap{c, d}, []int64{0, off}
				if tc.lone {
					parts, offs = parts[1:], offs[1:]
					got, err = MergeStreams(2*u, &sd)
				} else {
					got, err = mergeVia(dense, 2*u, false, []*Stream{&sc, &sd})
				}
				if tc.corrupt {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: err = %v, want ErrCorrupt", what, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want := MustFromPositions(2*u, unionPositions(parts, offs))
				if tc.lone {
					want = atOrder(t, want, tc.k)
				}
				if !Equal(got, want) || got.last != want.last || got.Order() != want.Order() {
					t.Fatalf("%s: order-%d answer differs from decode-then-Union", what, got.Order())
				}
				if last, ok := sd.ValidatedLast(); ok != (tc.du > 0) || (ok && last != d.last+off) {
					t.Fatalf("%s: tail reports (%d, %v)", what, last, ok)
				}
			}
		}
	}
	for _, dense := range []bool{false, true} {
		var sc Stream
		sc.InitBitmap(c, 0)
		wrap := ^uint64(0) - 4 // int64(gap) = -5
		view := viewOverCodes(2*u-1, uint64(u+10), wrap, 20)
		if _, err := mergeVia(dense, 2*u, false, []*Stream{&sc, view}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("dense %v: replay tail falling below its head: err = %v, want ErrCorrupt", dense, err)
		}
	}
}

// FuzzMergeStreams: for arbitrary inputs and shard-style splits, the fused
// streaming merge (disk-backed streams over one concatenated buffer, each
// coded at its own exp-Golomb order) equals the decode-then-union oracle, and
// the fused complement union-then-complement: byte for byte where the answer
// is gamma-coded, as a set where it kept an input's order.
func FuzzMergeStreams(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200}, []byte{2, 90}, []byte{7}, uint16(1000), uint32(0))
	f.Add([]byte{}, []byte{0}, []byte{}, uint16(4), uint32(1<<6|2<<12))
	f.Add([]byte{0xff, 0xfe, 0xfd}, []byte{}, []byte{1, 1, 1}, uint16(300), uint32(3|32<<6|7<<12))
	f.Fuzz(func(t *testing.T, araw, braw, craw []byte, n16 uint16, orders uint32) {
		n := int64(n16) + 2
		toBm := func(raw []byte) *Bitmap {
			pos := make([]int64, 0, len(raw))
			for i, v := range raw {
				pos = append(pos, (int64(v)*31+int64(i)*7)%n)
			}
			bm, err := FromUnsorted(n, pos)
			if err != nil {
				t.Fatal(err)
			}
			return bm
		}
		ms := []*Bitmap{toBm(araw), toBm(braw), toBm(craw)}
		ks := fuzzOrders(orders, len(ms))
		w, starts, lens := encodeConcatOrders(ms, ks)
		rd := bitio.NewReader(w.Bytes(), w.Len())
		streams := make([]*Stream, len(ms))
		init := func() {
			for i := range streams {
				streams[i] = new(Stream)
				if err := streams[i].InitDecode(rd, starts[i], lens[i], ms[i].Card(), n, 0, ks[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		oracle, err := UnionOver(n, ms...)
		if err != nil {
			t.Fatal(err)
		}
		init()
		got, err := MergeStreams(n, streams...)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, oracle) {
			t.Fatal("fused merge differs from decode-then-union")
		}
		init()
		gotC, err := MergeStreamsComplement(n, streams...)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(gotC, oracle.Complement()) {
			t.Fatal("fused complement differs from union-then-complement")
		}
	})
}
