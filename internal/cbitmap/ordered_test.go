package cbitmap

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bitio"
)

// nextAll is the per-row loop scan replaced — drainInto's validation pass as
// it was — kept as scan's reference, and the tests' way to consume a stream
// to its end with Next.
func (s *Stream) nextAll() bool {
	for s.left > 0 {
		if _, ok := s.Next(); !ok {
			return false
		}
	}
	return true
}

// requireSameScan fails unless scan leaves b exactly where the per-row loop
// leaves a: same verdict, error text, last position, pending count and reader
// position.
func requireSameScan(t *testing.T, what string, a, b *Stream) {
	t.Helper()
	okA, okB := a.nextAll(), b.scan()
	if okA != okB || fmt.Sprint(a.err) != fmt.Sprint(b.err) {
		t.Fatalf("%s: per-row loop (%v, %v), bulk scan (%v, %v)", what, okA, a.err, okB, b.err)
	}
	if b.err != nil && !errors.Is(b.err, ErrCorrupt) {
		t.Fatalf("%s: scan error %v is not ErrCorrupt", what, b.err)
	}
	if a.prev != b.prev || a.left != b.left || a.r.Pos() != b.r.Pos() {
		t.Fatalf("%s: per-row loop stops at prev %d left %d bit %d, bulk scan at prev %d left %d bit %d",
			what, a.prev, a.left, a.r.Pos(), b.prev, b.left, b.r.Pos())
	}
}

// orderedMembers cuts the sorted positions pos into k consecutive members.
func orderedMembers(n int64, pos []int64, k int) []*Bitmap {
	ms := make([]*Bitmap, k)
	for i := range ms {
		ms[i] = MustFromPositions(n, pos[i*len(pos)/k:(i+1)*len(pos)/k])
	}
	return ms
}

// bitmapMember returns b's bits as a concatenation member whose last is
// known, as mergeStreams makes one of a bitmap-backed stream.
func bitmapMember(b *Bitmap) Member {
	return Member{buf: b.buf, end: b.bits, card: b.card, prev: -1, last: b.last, k: b.k}
}

// TestMergeOrdered: the kernel gives the general merge's bytes over
// validating, replayed and bitmap members mixed, with no eager skip samples,
// and a broken promise is a typed error from the member boundary.
func TestMergeOrdered(t *testing.T) {
	const n = 1 << 20
	pos := streamTestSets(t, 1, 5000, n, 3)[0].Positions()
	for _, k := range []int{1, 2, 7, 40, len(pos)} {
		ms := orderedMembers(n, pos, k)
		rd, starts, lens := encodeConcat(ms)
		mk := func() []Member {
			out := make([]Member, k)
			for i, m := range ms {
				var err error
				switch i % 3 {
				case 0:
					err = out[i].Init(rd, starts[i], lens[i], m.Card(), -1, 0)
				case 1:
					err = out[i].Init(rd, starts[i], lens[i], m.Card(), m.last, 0)
				case 2:
					out[i] = bitmapMember(m)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		streams := make([]*Stream, k)
		for i, m := range ms {
			streams[i] = new(Stream)
			if err := streams[i].InitDecode(rd, starts[i], lens[i], m.Card(), n, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		want, err := MergeStreams(n, streams...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Concat(n, mk())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got.samplePos != nil { // before Contains builds them lazily
			t.Fatalf("k=%d: ordered answer carries %d eager skip samples", k, len(got.samplePos))
		}
		requireSameBitmap(t, fmt.Sprintf("k=%d ordered vs general", k), got, want)
		requireSameBitmap(t, fmt.Sprintf("k=%d ordered vs oracle", k), got, MustFromPositions(n, pos))

		if k < 2 {
			continue
		}
		// Out of order, and an equal boundary: each is a broken promise.
		swapped := mk()
		swapped[0], swapped[k-1] = swapped[k-1], swapped[0]
		if _, err := Concat(n, swapped); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("k=%d: out-of-order members: err %v, want ErrCorrupt", k, err)
		}
		dup := mk()
		dup = append(dup[:1], append([]Member{bitmapMember(MustFromPositions(n, []int64{ms[0].last}))}, dup[1:]...)...)
		if _, err := Concat(n, dup); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("k=%d: equal boundary: err %v, want ErrCorrupt", k, err)
		}
	}

	// An empty concatenation still carries its universe.
	if bm, err := Concat(n, nil); err != nil || bm.Universe() != n || bm.Card() != 0 {
		t.Fatalf("empty concatenation: %v, %v", bm, err)
	}
}

// TestScanMatchesNext: over clean, truncated and bit-flipped members — short
// codes, codes longer than the peek window and a universe the positions run
// out of — the bulk scan stops where the per-row loop does, with its error.
func TestScanMatchesNext(t *testing.T) {
	big := int64(1) << 50
	cases := []struct {
		n   int64
		pos []int64
	}{
		{1 << 20, streamTestSets(t, 1, 3000, 1<<20, 5)[0].Positions()},
		{1 << 12, streamTestSets(t, 1, 3000, 1<<12, 6)[0].Positions()},
		{big, []int64{3, 1 << 33, 1<<33 + 1, 1 << 40, 1<<40 + 7, 1 << 49, 1<<49 + 1<<48}},
		{64, []int64{63}},
	}
	for ci, c := range cases {
		bm := MustFromPositions(c.n, c.pos)
		w, _, _ := encodeConcatWriter([]*Bitmap{bm})
		pair := func(buf []byte, nbits int, card, univ int64) (a, b *Stream) {
			rd := bitio.NewReader(buf, nbits)
			a, b = new(Stream), new(Stream)
			for _, s := range []*Stream{a, b} {
				if err := s.InitDecode(rd, 0, nbits, card, univ, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			return a, b
		}
		a, b := pair(w.Bytes(), w.Len(), bm.Card(), c.n)
		requireSameScan(t, fmt.Sprintf("case %d clean", ci), a, b)
		if b.err != nil || b.prev != bm.last {
			t.Fatalf("case %d: clean scan ends at %d (%v), want %d", ci, b.prev, b.err, bm.last)
		}
		// A universe the positions leave half way, a cardinality the bits do
		// not hold, and the stream cut short at every length.
		a, b = pair(w.Bytes(), w.Len(), bm.Card(), c.pos[len(c.pos)/2]+1)
		requireSameScan(t, fmt.Sprintf("case %d small universe", ci), a, b)
		a, b = pair(w.Bytes(), w.Len(), bm.Card()+3, c.n)
		requireSameScan(t, fmt.Sprintf("case %d long cardinality", ci), a, b)
		step := 1 + w.Len()/97
		for cut := 0; cut < w.Len(); cut += step {
			a, b = pair(w.Bytes(), cut, bm.Card(), c.n)
			requireSameScan(t, fmt.Sprintf("case %d cut at %d", ci, cut), a, b)
			if b.err == nil {
				t.Fatalf("case %d: stream cut at bit %d of %d scanned clean", ci, cut, w.Len())
			}
		}
		for at := 0; at < w.Len(); at += step {
			buf := append([]byte(nil), w.Bytes()...)
			buf[at>>3] ^= 0x80 >> uint(at&7)
			a, b = pair(buf, w.Len(), bm.Card(), c.n)
			requireSameScan(t, fmt.Sprintf("case %d flip at %d", ci, at), a, b)
		}
	}
}

// FuzzMergeOrdered: sorted positions cut into consecutive members — validated
// by the kernel or replayed, mixed — concatenate (Concat) to MergeStreams'
// bytes, cardinality and largest position. Members that break the promise
// (swapped, interleaved, sharing a boundary position) give the same union or
// ErrCorrupt, never a panic and never a different set. Over truncated or
// bit-flipped bits every error is ErrCorrupt, a concatenation that succeeds
// is the general merge's answer, and each member's bulk scan stops exactly
// where the per-row loop does.
func FuzzMergeOrdered(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 7, 7, 90}, []byte{2, 5}, uint8(0), uint8(0), uint16(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{3, 6}, uint8(0x02), uint8(0x15), uint16(0))
	f.Add([]byte{9, 1, 1, 250, 3}, []byte{1, 2, 3}, uint8(0x05), uint8(0), uint16(0))
	f.Add([]byte{9, 1, 1, 250, 3, 8, 8}, []byte{4}, uint8(0x08), uint8(0x02), uint16(0))
	f.Add([]byte{9, 1, 1, 250, 3, 8, 8}, []byte{2, 4}, uint8(0x0c), uint8(0), uint16(0))
	f.Add([]byte{1, 2, 3, 200, 7, 7, 90, 4}, []byte{3}, uint8(0x11), uint8(0), uint16(13))
	f.Add([]byte{1, 2, 3, 200, 7, 7, 90, 4}, []byte{3, 5}, uint8(0x23), uint8(0), uint16(9))
	f.Fuzz(func(t *testing.T, raw, cuts []byte, flags, kinds uint8, at uint16) {
		shift := []uint{0, 3, 12, 34}[flags&3] // gap scale; 34 makes codes longer than the peek window
		breakage := flags >> 2 & 3             // 0 as promised, 1 swapped, 2 interleaved, 3 shared boundary
		flip := flags&0x10 != 0
		truncate := flags&0x20 != 0
		n := int64(1) << 46

		var pos []int64
		p := int64(-1)
		for _, v := range raw {
			if p += 1 + int64(v)<<shift; p >= n {
				break
			}
			pos = append(pos, p)
		}
		// Members: consecutive slices of pos between the cut points.
		bounds := []int{0}
		for _, c := range cuts {
			if len(bounds) == 6 || len(pos) == 0 {
				break
			}
			if b := bounds[len(bounds)-1] + int(c)%(len(pos)+1); b <= len(pos) {
				bounds = append(bounds, b)
			}
		}
		bounds = append(bounds, len(pos))
		k := len(bounds) - 1
		sets := make([][]int64, k)
		for i := range sets {
			sets[i] = pos[bounds[i]:bounds[i+1]]
		}
		switch breakage {
		case 1:
			sets[0], sets[k-1] = sets[k-1], sets[0]
		case 2:
			sets = make([][]int64, k)
			for j, q := range pos {
				sets[j%k] = append(sets[j%k], q)
			}
		case 3:
			for i := 1; i < k; i++ {
				if len(sets[i-1]) > 0 {
					sets[i] = append([]int64{sets[i-1][len(sets[i-1])-1]}, sets[i]...)
				}
			}
		}
		ms := make([]*Bitmap, k)
		for i := range ms {
			ms[i] = MustFromPositions(n, sets[i])
		}
		w, starts, lens := encodeConcatWriter(ms)
		damaged := false
		if flip && w.Len() > 0 {
			bit := int(at) % w.Len()
			w.Bytes()[bit>>3] ^= 0x80 >> uint(bit&7)
			damaged = true
		}
		if truncate && lens[int(at)%k] > 0 {
			lens[int(at)%k] -= 1 + int(at>>8)%lens[int(at)%k]
			damaged = true
		}
		rd := bitio.NewReader(w.Bytes(), w.Len())
		views := kinds&(1<<uint(k)-1) != 0 // some member is a validated view
		mk := func() []*Stream {
			out := make([]*Stream, k)
			for i, m := range ms {
				out[i] = new(Stream)
				var err error
				switch kinds >> uint(i) & 1 {
				case 0:
					err = out[i].InitDecode(rd, starts[i], lens[i], m.Card(), n, 0, 0)
				case 1:
					err = out[i].InitDecodeValidated(rd, starts[i], lens[i], m.Card(), m.last, 0, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		for i, m := range ms {
			a, b := new(Stream), new(Stream)
			for _, s := range []*Stream{a, b} {
				if err := s.InitDecode(rd, starts[i], lens[i], m.Card(), n, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
			requireSameScan(t, fmt.Sprintf("member %d", i), a, b)
		}

		members := make([]Member, k)
		for i, m := range ms {
			last := int64(-1)
			if kinds>>uint(i)&1 == 1 {
				last = m.last
			}
			if err := members[i].Init(rd, starts[i], lens[i], m.Card(), last, 0); err != nil {
				t.Fatal(err)
			}
		}
		general, gerr := MergeStreams(n, mk()...)
		ordered, oerr := Concat(n, members)
		for _, err := range []error{gerr, oerr} {
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("merge error %v is not ErrCorrupt", err)
			}
		}
		if damaged && views {
			return // nothing validates a view: no panic and typed errors is all there is
		}
		if gerr != nil && (!damaged || oerr == nil) {
			t.Fatalf("general merge failed (damaged input: %v): %v; ordered: %v", damaged, gerr, oerr)
		}
		if oerr != nil {
			if !damaged && breakage == 0 {
				t.Fatalf("ordered merge of ordered members: %v", oerr)
			}
			return
		}
		requireSameBitmap(t, "ordered vs general", ordered, general)
		if !damaged {
			all, err := FromUnsorted(n, append([]int64(nil), pos...))
			if err != nil {
				t.Fatal(err)
			}
			requireSameBitmap(t, "ordered vs oracle", ordered, all)
		}
	})
}
