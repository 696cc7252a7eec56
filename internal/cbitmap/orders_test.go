package cbitmap

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

// atOrder returns b's set as a bitmap whose gaps are coded at order k: the
// answer of a one-stream merge over b's positions encoded at k, which keeps
// the stream's order and bits (drainInto).
func atOrder(t testing.TB, b *Bitmap, k uint) *Bitmap {
	t.Helper()
	w, starts, lens := encodeConcatOrders([]*Bitmap{b}, []uint{k})
	var s Stream
	if err := s.InitDecode(bitio.NewReader(w.Bytes(), w.Len()), starts[0], lens[0], b.Card(), b.Universe(), 0, k); err != nil {
		t.Fatal(err)
	}
	out, err := MergeStreams(b.Universe(), &s)
	if err != nil {
		t.Fatal(err)
	}
	if want := k * uint(min(b.Card(), 1)); out.Order() != want || out.SizeBits() != lens[0] {
		t.Fatalf("one-stream answer at order %d holding %d bits, want order %d and the stream's %d bits", out.Order(), out.SizeBits(), want, lens[0])
	}
	return out
}

// fuzzSet reads a set over [0,n) from raw, two bytes a position.
func fuzzSet(t testing.TB, raw []byte, n int64) *Bitmap {
	var pos []int64
	for i := 0; i+1 < len(raw); i += 2 {
		pos = append(pos, (int64(raw[i])<<8|int64(raw[i+1]))%n)
	}
	b, err := FromUnsorted(n, pos)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireSet fails unless got holds exactly want's positions over n, and
// unless a gamma-coded got is FromPositions' canonical encoding of them.
func requireSet(t *testing.T, what string, got *Bitmap, n int64, want []int64) {
	t.Helper()
	if got.Universe() != n || !slices.Equal(got.Positions(), want) {
		t.Fatalf("%s: %d positions over %d, want %d over %d", what, got.Card(), got.Universe(), len(want), n)
	}
	if got.Order() == 0 && !Equal(got, MustFromPositions(n, want)) {
		t.Fatalf("%s: gamma-coded answer differs from the canonical encoding", what)
	}
}

// FuzzMixedOrders holds every set operation to a sorted-slice oracle over
// operands whose gaps are coded at different orders, one set of them at two
// orders: Contains, Rank, Equal, EncodeTo, Union, UnionOver, Intersect,
// Difference, Complement, UnionAll (disjoint parts, concatenated, and
// overlapping ones, merged) and a merge of streams at mixed orders.
func FuzzMixedOrders(f *testing.F) {
	f.Add([]byte{0, 1, 0, 9, 3, 0}, []byte{0, 9, 200, 7}, uint32(0x3083))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte{}, uint32(0x2104))
	f.Add([]byte{}, []byte{255, 255, 0, 0}, uint32(0x7fff))
	f.Fuzz(func(t *testing.T, araw, braw []byte, korders uint32) {
		const n = 1 << 14
		a, b := fuzzSet(t, araw, n), fuzzSet(t, braw, n)
		orders := fuzzOrders(korders, 3)
		a1, a2, b1 := atOrder(t, a, orders[0]), atOrder(t, a, orders[1]), atOrder(t, b, orders[2])
		ap, bp := a.Positions(), b.Positions()

		if !Equal(a1, a2) || !Equal(a1, a) || Equal(a1, b1) != slices.Equal(ap, bp) {
			t.Fatalf("Equal across orders %v: a=a %v, a=b %v, sets equal %v", orders, Equal(a1, a2), Equal(a1, b1), slices.Equal(ap, bp))
		}
		for _, p := range append([]int64{0, n - 1}, bp...) {
			want, ok := slices.BinarySearch(ap, p)
			if a1.Contains(p) != ok || a2.Rank(p) != int64(want) {
				t.Fatalf("position %d: Contains %v, Rank %d; want %v, %d", p, a1.Contains(p), a2.Rank(p), ok, want)
			}
		}
		w := bitio.NewWriter(0)
		a1.EncodeTo(w)
		dec, err := Decode(bitio.NewReader(w.Bytes(), w.Len()), a.Card(), n)
		if err != nil || dec.Order() != 0 || !Equal(dec, a) {
			t.Fatalf("EncodeTo at order %d: Decode gives %v", orders[0], err)
		}

		var union, inter, diff, comp []int64
		for p := int64(0); p < n; p++ {
			_, inA := slices.BinarySearch(ap, p)
			_, inB := slices.BinarySearch(bp, p)
			switch {
			case inA && inB:
				inter = append(inter, p)
			case inA:
				diff = append(diff, p)
			}
			if inA || inB {
				union = append(union, p)
			} else {
				comp = append(comp, p)
			}
		}
		u, err := Union(a1, b1)
		if err != nil {
			t.Fatal(err)
		}
		requireSet(t, "Union", u, n, union)
		if u, err = UnionOver(n, b1, a2, a1); err != nil {
			t.Fatal(err)
		}
		requireSet(t, "UnionOver", u, n, union)
		in, err := Intersect(a2, b1)
		if err != nil {
			t.Fatal(err)
		}
		requireSet(t, "Intersect", in, n, inter)
		df, err := Difference(a1, b1)
		if err != nil {
			t.Fatal(err)
		}
		requireSet(t, "Difference", df, n, diff)
		requireSet(t, "Complement", a1.Complement(), n, func() []int64 {
			var c []int64
			for p := int64(0); p < n; p++ {
				if _, ok := slices.BinarySearch(ap, p); !ok {
					c = append(c, p)
				}
			}
			return c
		}())
		cu, err := UnionOver(n, a2, b1)
		if err != nil {
			t.Fatal(err)
		}
		requireSet(t, "Complement of a union", cu.Complement(), n, comp)

		// Disjoint shifted parts concatenate at the order of the part holding
		// more bits (the first on a tie), the other re-encoded to it.
		shifted := slices.Clone(ap)
		for _, p := range bp {
			shifted = append(shifted, p+n)
		}
		all, err := UnionAll(2*n, Shifted{Bm: a1, Off: 0}, Shifted{Bm: b1, Off: n})
		if err != nil {
			t.Fatal(err)
		}
		requireSet(t, "UnionAll of disjoint parts", all, 2*n, shifted)
		// A merge weighs what each stream holds behind its primed head.
		rest := func(b *Bitmap) int {
			if b.Card() == 0 {
				return 0
			}
			return b.SizeBits() - gamma.LenK(uint64(b.Positions()[0]+1), b.Order())
		}
		want := orders[0]
		if rest(b1) > rest(a1) || a.Card() == 0 {
			want = orders[2]
		}
		if a.Card()+b.Card() > 0 && all.Order() != want {
			t.Fatalf("UnionAll answer at order %d, its larger part's is %d", all.Order(), want)
		}
		if all, err = UnionAll(n, Shifted{Bm: b1}, Shifted{Bm: a2}, Shifted{Bm: a1}); err != nil {
			t.Fatal(err)
		}
		requireSet(t, "UnionAll of overlapping parts", all, n, union)

		// Disk-backed streams at mixed orders merge as the bitmaps do.
		wr, starts, lens := encodeConcatOrders([]*Bitmap{a, b, a}, orders)
		rd := bitio.NewReader(wr.Bytes(), wr.Len())
		streams := make([]*Stream, 3)
		for i, m := range []*Bitmap{a, b, a} {
			streams[i] = new(Stream)
			if err := streams[i].InitDecode(rd, starts[i], lens[i], m.Card(), n, 0, orders[i]); err != nil {
				t.Fatal(err)
			}
		}
		ms, err := MergeStreams(n, streams...)
		if err != nil {
			t.Fatal(err)
		}
		requireSet(t, "MergeStreams", ms, n, union)
	})
}

// TestBuilderOrders: an empty merge builder that concatenates takes the
// order of the most input bits, from bitmaps or streams; one that has encoded
// a position keeps its order and re-encodes the tail.
func TestBuilderOrders(t *testing.T) {
	const n = 1 << 12
	a := MustFromPositions(n, []int64{3, 40, 41, 900})
	b := MustFromPositions(n, []int64{1000, 1500, 4000})
	b3, c3 := atOrder(t, b, 3), atOrder(t, MustFromPositions(n, []int64{41, 2000, 3000}), 3)
	for _, tc := range []struct {
		what  string
		parts []*Bitmap
		order uint
	}{
		{"gamma part then a larger order-3 part", []*Bitmap{a, b3}, 3},
		{"a larger gamma part then an order-3 part", []*Bitmap{atOrder(t, a, 0), atOrder(t, MustFromPositions(n, []int64{1000}), 3)}, 0},
		{"gamma part overlapping an order-3 part", []*Bitmap{a, c3}, 0},
	} {
		u, err := UnionOver(n, tc.parts...)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for _, p := range tc.parts {
			want = append(want, p.Positions()...)
		}
		slices.Sort(want)
		want = slices.Compact(want)
		if u.Order() != tc.order || !Equal(u, MustFromPositions(n, want)) {
			t.Fatalf("%s: order %d, want %d (or rows differ)", tc.what, u.Order(), tc.order)
		}
	}
	// The first case's parts, as streams, merge as the bitmaps do.
	sa, sb := a.Iter(), b3.Iter()
	m, err := MergeStreams(n, &sa, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if u := MustFromPositions(n, append(a.Positions(), b.Positions()...)); m.Order() != 3 || !Equal(m, u) {
		t.Fatalf("streams of a gamma part then a larger order-3 part merge at order %d, want 3 (or rows differ)", m.Order())
	}
}

// dominantOrderQuadratic is dominantOrder as first written, the oracle for
// the one-pass vote: for each nonempty member, the bits behind the head of
// every nonempty member at its order; the first member whose order holds the
// most wins.
func dominantOrderQuadratic(ms []Member) uint8 {
	var k uint8
	best := -1
	for i := range ms {
		if ms[i].card == 0 {
			continue
		}
		bits := 0
		for j := range ms {
			if ms[j].card > 0 && ms[j].k == ms[i].k {
				bits += ms[j].end - ms[j].tail
			}
		}
		if bits > best {
			k, best = ms[i].k, bits
		}
	}
	return k
}

// TestDominantOrderVote: on random member runs — orders across
// 0…gamma.MaxOrder, drawn from a few per run so that orders repeat, bits
// behind the head from a small range so that totals tie, and some members
// empty — the one-pass vote picks the oracle's order.
func TestDominantOrderVote(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var ties int
	for trial := range 20000 {
		palette := make([]uint, 1+rng.Intn(4))
		for i := range palette {
			palette[i] = uint(rng.Intn(gamma.MaxOrder + 1))
		}
		if trial%7 == 0 {
			palette[0] = gamma.MaxOrder
		}
		ms := make([]Member, rng.Intn(17))
		bitsAt := map[uint8]int{}
		for i := range ms {
			k := uint8(palette[rng.Intn(len(palette))])
			ms[i] = Member{card: int64(rng.Intn(5)), k: k, tail: rng.Intn(8), end: 8 + rng.Intn(65)}
			if ms[i].card > 0 {
				bitsAt[k] += ms[i].end - ms[i].tail
			}
		}
		top, most := 0, -1
		for _, b := range bitsAt {
			if b > most {
				top, most = 1, b
			} else if b == most {
				top++
			}
		}
		if top > 1 {
			ties++
		}
		if got, want := dominantOrder(ms), dominantOrderQuadratic(ms); got != want {
			t.Fatalf("trial %d, %d members: vote %d, oracle %d", trial, len(ms), got, want)
		}
	}
	if ties == 0 {
		t.Fatal("no member run tied: the tie rule went unchecked")
	}
}
