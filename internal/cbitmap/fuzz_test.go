package cbitmap

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

// FuzzDecodeArbitrary: decoding arbitrary bytes with arbitrary claimed
// cardinalities must never panic and never fabricate positions outside the
// universe.
func FuzzDecodeArbitrary(f *testing.F) {
	f.Add([]byte{0xff, 0x01}, uint16(3), uint32(100))
	f.Add([]byte{}, uint16(1), uint32(10))
	f.Add([]byte{0x80, 0x80, 0x80}, uint16(2), uint32(1000))
	f.Fuzz(func(t *testing.T, data []byte, card16 uint16, n32 uint32) {
		n := int64(n32%1_000_000) + 1
		card := int64(card16 % 4096)
		r := bitio.NewReader(data, -1)
		bm, err := Decode(r, card, n)
		if err != nil {
			return // rejected, fine
		}
		// Accepted: every decoded position must be in-universe and sorted.
		prev := int64(-1)
		it := bm.Iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			if p <= prev || p >= n {
				t.Fatalf("decoded invalid position %d (prev %d, n %d)", p, prev, n)
			}
			prev = p
		}
	})
}

// FuzzSamplesAndStreams: for arbitrary inputs, (1) the skip-sample
// Contains/Rank agree with a linear scan over Positions, (2) Union's verbatim
// tail copy and Complement's run writer produce byte-identical streams to
// element-by-element re-encoding, and (3) samples stay within their 5% size
// budget.
func FuzzSamplesAndStreams(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200}, []byte{2, 90}, uint16(1000))
	f.Add([]byte{}, []byte{0}, uint16(4))
	f.Add([]byte{0xff, 0xfe, 0xfd}, []byte{}, uint16(300))
	f.Fuzz(func(t *testing.T, araw, braw []byte, n16 uint16) {
		n := int64(n16) + 256
		toPos := func(raw []byte) []int64 {
			out := make([]int64, 0, len(raw))
			for i, v := range raw {
				out = append(out, (int64(v)*7+int64(i))%n)
			}
			return out
		}
		a, err1 := FromUnsorted(n, toPos(araw))
		b, err2 := FromUnsorted(n, toPos(braw))
		if err1 != nil || err2 != nil {
			t.Fatalf("build: %v %v", err1, err2)
		}
		u, err := Union(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Union's drained tail must be byte-identical to naive re-encoding.
		naive, err := FromUnsorted(n, append(a.Positions(), b.Positions()...))
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(u, naive) || u.bits != naive.bits {
			t.Fatalf("union stream differs from re-encoded: %d vs %d bits", u.bits, naive.bits)
		}
		// Complement's run writer likewise.
		comp := a.Complement()
		var compPos []int64
		has := make(map[int64]bool, a.Card())
		for _, p := range a.Positions() {
			has[p] = true
		}
		for p := int64(0); p < n; p++ {
			if !has[p] {
				compPos = append(compPos, p)
			}
		}
		naiveComp := MustFromPositions(n, compPos)
		if !Equal(comp, naiveComp) {
			t.Fatal("complement stream differs from re-encoded")
		}
		// Contains/Rank vs linear ground truth, probing members and gaps.
		for _, bm := range []*Bitmap{a, u, comp} {
			pos := bm.Positions()
			member := make(map[int64]bool, len(pos))
			for _, p := range pos {
				member[p] = true
			}
			var rank int64
			pi := 0
			for q := int64(0); q < n; q += 1 + n/257 {
				for pi < len(pos) && pos[pi] < q {
					pi++
				}
				rank = int64(pi)
				if got := bm.Contains(q); got != member[q] {
					t.Fatalf("Contains(%d) = %v, want %v", q, got, member[q])
				}
				if got := bm.Rank(q); got != rank {
					t.Fatalf("Rank(%d) = %d, want %d", q, got, rank)
				}
			}
			if bm.SizeBits() > 0 && bm.SampleBits()*maxSampleDiv > bm.SizeBits() {
				t.Fatalf("sample overhead %d bits exceeds %d/%d stream bits", bm.SampleBits(), bm.SizeBits(), maxSampleDiv)
			}
		}
	})
}

// TestSkipSamplesLargeBitmap pins the sample machinery on a bitmap big
// enough to retain samples after thinning: every element and a band of
// absent positions answer Contains/Rank correctly, and the overhead budget
// holds.
func TestSkipSamplesLargeBitmap(t *testing.T) {
	n := int64(1 << 22)
	pos := make([]int64, 0, 1<<16)
	for p := int64(17); p < n && len(pos) < 1<<16; p += 61 {
		pos = append(pos, p)
	}
	bm := MustFromPositions(n, pos)
	if bm.SampleBits() == 0 {
		t.Fatal("expected skip samples on a large bitmap")
	}
	if bm.SampleBits()*maxSampleDiv > bm.SizeBits() {
		t.Fatalf("sample overhead %d bits exceeds 1/%d of %d", bm.SampleBits(), maxSampleDiv, bm.SizeBits())
	}
	for i, p := range pos {
		if !bm.Contains(p) {
			t.Fatalf("Contains(%d) = false for member %d", p, i)
		}
		if got := bm.Rank(p); got != int64(i) {
			t.Fatalf("Rank(%d) = %d, want %d", p, got, i)
		}
	}
	for _, q := range []int64{0, 16, 18, 1 << 21, n - 1} {
		if bm.Contains(q) != (q >= 17 && (q-17)%61 == 0 && q < 17+61*int64(len(pos))) {
			t.Fatalf("Contains(%d) wrong", q)
		}
	}
	if got := bm.Rank(n); got != bm.Card() {
		t.Fatalf("Rank(n) = %d, want %d", got, bm.Card())
	}
}

// TestDrainStopsSampling: a concatenation copies elements without visiting
// them, so its skip samples must come from the lazy scan, not from the heads
// it writes (regression: Rank once returned 128 where 768 was correct, when
// the ordered merge added each head through the sampling Builder and drained
// its tail). With 64 / 639 / 164 positions the third head is element 704, a
// multiple of sampleEvery.
func TestDrainStopsSampling(t *testing.T) {
	n := int64(1 << 22)
	for _, sizes := range [][3]int{{64, 640, 164}, {64, 639, 164}} {
		var streams []*Stream
		p := int64(0)
		for k, size := range sizes {
			pos := make([]int64, size)
			for i := range pos {
				p += int64(3 + 2*k)
				pos[i] = p
			}
			var s Stream
			s.InitBitmap(MustFromPositions(n, pos), 0)
			streams = append(streams, &s)
		}
		bm, err := MergeStreams(n, streams...)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range bm.Positions() {
			if got := bm.Rank(q); got != int64(i) {
				t.Fatalf("sizes %v: Rank(%d) = %d, want %d", sizes, q, got, i)
			}
			if !bm.Contains(q) {
				t.Fatalf("sizes %v: Contains(%d) = false", sizes, q)
			}
		}
		if got := bm.Rank(n); got != bm.Card() {
			t.Fatalf("sizes %v: Rank(n) = %d, want %d", sizes, got, bm.Card())
		}
	}
}

// sampledPositions returns card strictly increasing positions, each call's
// result a prefix of the next larger one. The first 512 gaps take 41-bit
// codes, enough to keep every sample; the later ones 15 or 17, which alone
// would keep every other, so thinning changes step at a card near 900.
func sampledPositions(card int) []int64 {
	pos := make([]int64, card)
	p := int64(-1)
	for i := range pos {
		g := 200 + int64(i*7919%200)
		if i < 512 {
			g += 1 << 20
		}
		p += g
		pos[i] = p
	}
	return pos
}

// requireSamplesOf fails unless got carries want's bytes and skip samples.
func requireSamplesOf(t *testing.T, what string, got, want *Bitmap) {
	t.Helper()
	if !Equal(got, want) || got.last != want.last {
		t.Fatalf("%s: stream differs from FromPositions", what)
	}
	if got.sampleK != want.sampleK || !slices.Equal(got.samplePos, want.samplePos) || !slices.Equal(got.sampleOff, want.sampleOff) {
		t.Fatalf("%s: samples k=%d %v %v, want k=%d %v %v", what,
			got.sampleK, got.samplePos, got.sampleOff, want.sampleK, want.samplePos, want.sampleOff)
	}
}

// TestDecodeSamplesMatchBuilder pins sampleScan, the one sampler under Decode
// and the lazy rebuild: both must record the samples Builder.Add records —
// after every sampleEvery-th element, none for a short tail — and thin them
// alike, so Contains and Rank hold at every element.
func TestDecodeSamplesMatchBuilder(t *testing.T) {
	cards := []int{0, 1, 63, 64, 65, 255, 256, 257, 4096, 70000}
	halved := 0 // the least card whose thinning keeps every other sample
	for c := minSampleCard; c < 1<<14 && halved == 0; c++ {
		if MustFromPositions(1<<40, sampledPositions(c)).sampleK == 2*sampleEvery {
			halved = c
		}
	}
	if halved == 0 {
		t.Fatal("no card thins to every other sample")
	}
	t.Logf("thinning first keeps every other sample at card %d", halved)
	for _, card := range append(cards, halved) {
		pos := sampledPositions(card)
		n := int64(1)
		if card > 0 {
			n = pos[card-1] + 2
		}
		want := MustFromPositions(n, pos)
		w := bitio.NewWriter(0)
		want.EncodeTo(w)
		dec, err := Decode(bitio.NewReader(w.Bytes(), w.Len()), int64(card), n)
		if err != nil {
			t.Fatalf("card %d: %v", card, err)
		}
		requireSamplesOf(t, fmt.Sprintf("card %d: Decode", card), dec, want)

		var s Stream
		s.InitBitmap(want, 0)
		drained, err := MergeStreams(n, &s) // a one-member concatenation: no samples
		if err != nil {
			t.Fatal(err)
		}
		if drained.samplePos != nil {
			t.Fatalf("card %d: drained copy carries construction samples", card)
		}
		drained.ensureSamples()
		requireSamplesOf(t, fmt.Sprintf("card %d: ensureSamples", card), drained, want)

		for _, bm := range []*Bitmap{dec, drained} {
			for i, p := range pos {
				if !bm.Contains(p) || bm.Contains(p+1) || bm.Rank(p) != int64(i) || bm.Rank(p+1) != int64(i+1) {
					t.Fatalf("card %d: Contains/Rank wrong at element %d (position %d)", card, i, p)
				}
			}
		}

		// Truncation always fails (codes are prefix-free, so the cut leaves
		// the last one incomplete); a flipped bit fails typed or decodes to a
		// well-formed bitmap.
		for _, cut := range []int{1, 7, w.Len() / 2, w.Len()} {
			if card == 0 || cut > w.Len() {
				continue
			}
			if _, err := Decode(bitio.NewReader(w.Bytes(), w.Len()-cut), int64(card), n); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("card %d: stream cut by %d bits: err %v, want ErrCorrupt", card, cut, err)
			}
		}
		for bit := 0; bit < w.Len(); bit += 1 + w.Len()/97 {
			buf := slices.Clone(w.Bytes())
			buf[bit/8] ^= 0x80 >> uint(bit%8)
			bm, err := Decode(bitio.NewReader(buf, w.Len()), int64(card), n)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("card %d: bit %d flipped: untyped error %v", card, bit, err)
				}
				continue
			}
			got := bm.Positions()
			for i, p := range got {
				if p >= n || (i > 0 && p <= got[i-1]) {
					t.Fatalf("card %d: bit %d flipped: accepted malformed element %d at %d", card, bit, i, p)
				}
			}
			for i := 0; i < len(got); i += 1 + len(got)/31 {
				if bm.Rank(got[i]) != int64(i) || !bm.Contains(got[i]) {
					t.Fatalf("card %d: bit %d flipped: Contains/Rank wrong at element %d", card, bit, i)
				}
			}
		}
	}
}

// TestDecodeRejectsOverflowGap: a crafted stream whose gamma gap is >= 2^63
// must be rejected, not wrapped into a negative position.
func TestDecodeRejectsOverflowGap(t *testing.T) {
	w := bitio.NewWriter(0)
	w.WriteBits(0, 63) // unary prefix: 63 zeros
	w.WriteBits(1, 1)  // terminator: value has 64 significant bits
	w.WriteBits(0, 63) // remainder bits: value = 2^63
	r := bitio.NewReader(w.Bytes(), w.Len())
	if bm, err := Decode(r, 1, 1<<40); err == nil {
		t.Fatalf("Decode accepted overflowing gap: card=%d last-pos bitmap %+v", bm.Card(), bm.Positions())
	}

	// Accumulated wrap: a first gap sets prev = 2^46, then a gap of
	// 2^63 - 2^46 keeps int64(g) positive but overflows prev + int64(g)
	// to a negative position.
	w2 := bitio.NewWriter(0)
	gamma.Write(w2, 1<<46+1)       // prev = 2^46
	gamma.Write(w2, 1<<63-(1<<46)) // wraps prev + int64(g) negative
	r2 := bitio.NewReader(w2.Bytes(), w2.Len())
	if bm, err := Decode(r2, 2, 1<<47); err == nil {
		t.Fatalf("Decode accepted wrapping gap pair: positions %v", bm.Positions())
	}
}

// FuzzAlgebraLaws: |A∪B| + |A∩B| = |A| + |B| and De Morgan-ish complement
// laws hold for arbitrary inputs.
func FuzzAlgebraLaws(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0})
	f.Fuzz(func(t *testing.T, araw, braw []byte) {
		n := int64(256)
		toPos := func(raw []byte) []int64 {
			out := make([]int64, 0, len(raw))
			for _, v := range raw {
				out = append(out, int64(v))
			}
			return out
		}
		a, err1 := FromUnsorted(n, toPos(araw))
		b, err2 := FromUnsorted(n, toPos(braw))
		if err1 != nil || err2 != nil {
			t.Fatalf("build: %v %v", err1, err2)
		}
		u, err := Union(a, b)
		if err != nil {
			t.Fatal(err)
		}
		in, err := Intersect(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if u.Card()+in.Card() != a.Card()+b.Card() {
			t.Fatalf("inclusion-exclusion violated: %d+%d != %d+%d", u.Card(), in.Card(), a.Card(), b.Card())
		}
		// A \ B and A ∩ B partition A.
		df, err := Difference(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if df.Card()+in.Card() != a.Card() {
			t.Fatalf("difference law violated")
		}
		// Complement involution.
		if !Equal(a, a.Complement().Complement()) {
			t.Fatal("complement not an involution")
		}
	})
}

// FuzzStreamEncoder: the write-path encoder must be byte-identical to the
// Builder/Bitmap path for arbitrary position sets, through both of its merge
// feeds — sorted slices (rebuild sources) and decode streams (merge-fed
// construction) — and through the InitAt continuation used by chain appends.
func FuzzStreamEncoder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200}, []byte{2, 90}, []byte{5})
	f.Add([]byte{}, []byte{0}, []byte{})
	f.Add([]byte{0xff, 0xfe, 0xfd}, []byte{}, []byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, araw, braw, craw []byte) {
		n := int64(1 << 12)
		raws := [][]byte{araw, braw, craw}
		// Deal distinct positions into three disjoint sorted lists.
		seen := make(map[int64]struct{})
		lists := make([][]int64, 3)
		var all []int64
		for li, raw := range raws {
			for i, v := range raw {
				p := (int64(v)*31 + int64(i)*257) % n
				if _, dup := seen[p]; dup {
					continue
				}
				seen[p] = struct{}{}
				lists[li] = append(lists[li], p)
				all = append(all, p)
			}
			slices.Sort(lists[li])
		}
		want, err := FromUnsorted(n, all)
		if err != nil {
			t.Fatal(err)
		}
		wantW := bitio.NewWriter(want.SizeBits())
		want.EncodeTo(wantW)

		// Feed 1: sorted slices.
		w1 := bitio.NewWriter(0)
		var e1 StreamEncoder
		e1.Init(w1)
		e1.MergeSortedSlices(lists...)
		if e1.Card() != want.Card() || !bytes.Equal(w1.Bytes(), wantW.Bytes()) || w1.Len() != want.SizeBits() {
			t.Fatalf("slice-fed encoder differs: card %d want %d", e1.Card(), want.Card())
		}

		// Feed 2: decode streams over the per-list bitmaps.
		streams := make([]*Stream, 0, 3)
		for _, l := range lists {
			bm, err := FromPositions(n, l)
			if err != nil {
				t.Fatal(err)
			}
			s := new(Stream)
			s.InitBitmap(bm, 0)
			streams = append(streams, s)
		}
		merged, err := MergeStreams(n, streams...)
		if err != nil {
			t.Fatal(err)
		}
		w2 := bitio.NewWriter(merged.SizeBits())
		merged.EncodeTo(w2)
		if merged.Card() != want.Card() || !bytes.Equal(w2.Bytes(), wantW.Bytes()) {
			t.Fatal("stream merge differs from Builder path")
		}

		// Feed 3: continuation — split the sorted set at an arbitrary point
		// and encode the tail through InitAt, as chain appends do.
		slices.Sort(all)
		cut := len(all) / 2
		w3 := bitio.NewWriter(0)
		var e3 StreamEncoder
		e3.Init(w3)
		for _, p := range all[:cut] {
			e3.Add(p)
		}
		var e4 StreamEncoder
		e4.InitAt(w3, e3.Last())
		for _, p := range all[cut:] {
			e4.Add(p)
		}
		if !bytes.Equal(w3.Bytes(), wantW.Bytes()) || w3.Len() != want.SizeBits() {
			t.Fatal("continued encoder differs from Builder path")
		}

		// Feed 4: the same split in bulk — AddSorted on both sides of the
		// continuation, in both entry widths, and the set's bits through
		// AddBitset.
		narrow := make([]uint32, len(all))
		words := make([]uint64, n/64)
		for i, p := range all {
			narrow[i] = uint32(p)
			words[p>>6] |= 1 << (p & 63)
		}
		w5, w6, w7 := bitio.NewWriter(0), bitio.NewWriter(0), bitio.NewWriter(0)
		var e5, e6, e7 StreamEncoder
		e5.Init(w5)
		AddSorted(&e5, all[:cut])
		e5.InitAt(w5, e5.Last())
		AddSorted(&e5, all[cut:])
		e6.Init(w6)
		AddSorted(&e6, narrow[:cut])
		AddSorted(&e6, narrow[cut:])
		e7.Init(w7)
		e7.AddBitset(words)
		for name, w := range map[string]*bitio.Writer{"AddSorted int64": w5, "AddSorted uint32": w6, "AddBitset": w7} {
			if !bytes.Equal(w.Bytes(), wantW.Bytes()) || w.Len() != want.SizeBits() {
				t.Fatalf("%s differs from Builder path", name)
			}
		}
		if e6.Card() != want.Card() || e7.Card() != want.Card() || e5.Card() != int64(len(all)-cut) {
			t.Fatalf("bulk cardinalities %d, %d, %d, want %d, %d, %d", e5.Card(), e6.Card(), e7.Card(), len(all)-cut, want.Card(), want.Card())
		}
	})
}
