package cbitmap

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

// TestConcatDifferential: random runs of disjoint, increasing members at
// mixed orders — a lone member, members at an order the vote does not pick,
// head gaps of 2^32 and more, members the kernel validates and members
// replayed from a known last — concatenate to the set's encoding at the
// voted order (atOrder: a one-stream drain, no concatenation), and to the
// positions, cardinality, last and Contains answers of the general merge of
// validating streams over the same bits. A head at or below its
// predecessor's last fails ErrCorrupt. A flipped bit fails typed or decodes
// to what the general merge decodes, and never panics.
func TestConcatDifferential(t *testing.T) {
	const n = int64(1) << 46
	rng := rand.New(rand.NewSource(50))
	var lone, outvoted, farHeads, replayed, validated, flipsFailed int
	for trial := range 300 {
		k := 1 + rng.Intn(12)
		if trial%6 == 0 {
			k = 1
		}
		sets := make([][]int64, k)
		var all []int64
		p := int64(-1)
		for i := range sets {
			if rng.Intn(4) == 0 {
				p += 1<<32 + rng.Int63n(1<<33)
				farHeads++
			}
			for range 1 + rng.Intn(50) {
				p += 1 + rng.Int63n(int64(1)<<rng.Intn(20))
				sets[i] = append(sets[i], p)
			}
			all = append(all, sets[i]...)
		}
		palette := []uint{uint(rng.Intn(gamma.MaxOrder + 1)), uint(rng.Intn(6))}
		orders := make([]uint, k)
		bms := make([]*Bitmap, k)
		for i := range bms {
			orders[i] = palette[rng.Intn(2)]
			bms[i] = MustFromPositions(n, sets[i])
		}
		w, starts, lens := encodeConcatOrders(bms, orders)
		known := make([]bool, k)
		for i := range known {
			known[i] = rng.Intn(2) == 0
		}
		members := func(buf *bitio.Writer) []Member {
			rd := bitio.NewReader(buf.Bytes(), buf.Len())
			ms := make([]Member, k)
			for i, b := range bms {
				last := int64(-1)
				if known[i] {
					last = b.last
				}
				if err := ms[i].Init(rd, starts[i], lens[i], b.Card(), last, orders[i]); err != nil {
					t.Fatal(err)
				}
			}
			return ms
		}
		general := func(buf *bitio.Writer) (*Bitmap, error) {
			rd := bitio.NewReader(buf.Bytes(), buf.Len())
			streams := make([]*Stream, k)
			for i, b := range bms {
				streams[i] = new(Stream)
				if err := streams[i].InitDecode(rd, starts[i], lens[i], b.Card(), n, 0, orders[i]); err != nil {
					t.Fatal(err)
				}
			}
			return MergeStreams(n, streams...)
		}

		// The order of most bits behind the heads, the first on a tie.
		behind := make([]Member, k)
		for i, b := range bms {
			behind[i] = Member{card: b.Card(), k: uint8(orders[i]), end: lens[i], tail: gamma.LenK(uint64(sets[i][0]+1), orders[i])}
		}
		vote := uint(dominantOrderQuadratic(behind))

		ms := members(w)
		got, err := Concat(n, ms)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := atOrder(t, MustFromPositions(n, all), vote)
		if got.Order() != vote || got.bits != want.bits || !bytes.Equal(got.buf, want.buf) || got.card != want.card || got.last != want.last || got.n != n {
			t.Fatalf("trial %d: %d members: order %d, %d bits, card %d, last %d; want order %d, %d bits, card %d, last %d",
				trial, k, got.Order(), got.bits, got.card, got.last, vote, want.bits, want.card, want.last)
		}
		gen, err := general(w)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(got, gen) || got.Card() != gen.Card() || got.last != gen.last {
			t.Fatalf("trial %d: answer differs from the general merge", trial)
		}
		for _, q := range all {
			if !got.Contains(q) || got.Contains(q+1) != gen.Contains(q+1) {
				t.Fatalf("trial %d: Contains(%d) or Contains(%d) differs from the general merge's", trial, q, q+1)
			}
		}
		for i := range ms {
			last, ok := ms[i].ValidatedLast()
			if ok == known[i] || (ok && last != bms[i].last) {
				t.Fatalf("trial %d member %d (known last %v): ValidatedLast (%d, %v)", trial, i, known[i], last, ok)
			}
			if known[i] {
				replayed++
			} else {
				validated++
			}
			if orders[i] != vote {
				outvoted++
			}
		}
		if k == 1 {
			lone++
			continue
		}

		// Broken promises: swapped members, and a member that starts at its
		// predecessor's last.
		ms = members(w)
		ms[0], ms[k-1] = ms[k-1], ms[0]
		if _, err := Concat(n, ms); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: swapped members: err %v, want ErrCorrupt", trial, err)
		}
		i := 1 + rng.Intn(k-1)
		ms = members(w)
		ms = append(ms[:i], append([]Member{bitmapMember(MustFromPositions(n, []int64{bms[i-1].last}))}, ms[i:]...)...)
		if _, err := Concat(n, ms); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: a head at the previous last: err %v, want ErrCorrupt", trial, err)
		}

		// A flipped bit inside a member: typed failure or the general
		// merge's set, never a panic.
		for range 8 {
			i := rng.Intn(k)
			if lens[i] == 0 {
				continue
			}
			bit := starts[i] + rng.Intn(lens[i])
			dw := bitio.NewWriter(w.Len())
			dw.AppendWriter(w)
			dw.Bytes()[bit>>3] ^= 0x80 >> uint(bit&7)
			got, err := Concat(n, members(dw))
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("trial %d: flipped bit %d of member %d: untyped error %v", trial, bit, i, err)
				}
				flipsFailed++
				continue
			}
			if known[i] {
				continue // nothing validates a replay: no panic is all there is
			}
			if gen, gerr := general(dw); gerr == nil && !Equal(got, gen) {
				t.Fatalf("trial %d: flipped bit %d of member %d: the kernel and the general merge decode different sets", trial, bit, i)
			}
		}
	}
	if lone == 0 || outvoted == 0 || farHeads == 0 || replayed == 0 || validated == 0 || flipsFailed == 0 {
		t.Fatalf("cases seen: %d lone members, %d outvoted members, %d far heads, %d replayed, %d validated, %d failed flips: one is missing",
			lone, outvoted, farHeads, replayed, validated, flipsFailed)
	}
}
