package gamma

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// TestOrderKnownCodes pins the exp-Golomb codes of small values: order 0 is
// gamma, order 1 codes 1..4 as 10, 11, 0100, 0101.
func TestOrderKnownCodes(t *testing.T) {
	cases := []struct {
		v    uint64
		k    uint
		bits string
	}{
		{1, 0, "1"}, {4, 0, "00100"},
		{1, 1, "10"}, {2, 1, "11"}, {3, 1, "0100"}, {4, 1, "0101"}, {5, 1, "0110"},
		{1, 3, "1000"}, {8, 3, "1111"}, {9, 3, "010000"},
	}
	for _, c := range cases {
		w := bitio.NewWriter(0)
		WriteK(w, c.v, c.k)
		if got := bitString(w); got != c.bits {
			t.Errorf("order-%d code of %d = %s, want %s", c.k, c.v, got, c.bits)
		}
		if LenK(c.v, c.k) != len(c.bits) {
			t.Errorf("LenK(%d, %d) = %d, want %d", c.v, c.k, LenK(c.v, c.k), len(c.bits))
		}
	}
	for v := uint64(1); v < 1000; v++ {
		a, b := bitio.NewWriter(0), bitio.NewWriter(0)
		Write(a, v)
		WriteK(b, v, 0)
		if !bytes.Equal(a.Bytes(), b.Bytes()) || a.Len() != b.Len() {
			t.Fatalf("order-0 code of %d is not its gamma code", v)
		}
	}
}

// orderValue maps a fuzz word to a value in WriteK's domain at order k,
// keeping its magnitude spread over the full 64 bits.
func orderValue(x uint64, k uint) uint64 {
	v := x>>(x&63) | 1
	if limit := ^uint64(0) - 1<<k + 1; v > limit {
		v = limit
	}
	return v
}

// FuzzOrderRoundTrip: values at any order up to MaxOrder, codes longer than
// the 64-bit window included, decode to themselves through the fast and the
// slow path at the same positions, LenK agrees with the bits written, and
// every proper prefix of the stream fails instead of decoding.
func FuzzOrderRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(1<<40), uint8(0))
	f.Add(uint64(7), uint64(1), uint64(1), uint8(5))
	f.Add(^uint64(0), uint64(3), uint64(1<<63), uint8(MaxOrder))
	f.Fuzz(func(t *testing.T, a, b, c uint64, ko uint8) {
		k := uint(ko) % (MaxOrder + 1)
		vals := []uint64{orderValue(a, k), orderValue(b, k), orderValue(c, k)}
		w := bitio.NewWriter(0)
		for _, v := range vals {
			before := w.Len()
			WriteK(w, v, k)
			if got := w.Len() - before; got != LenK(v, k) {
				t.Fatalf("order %d value %d: wrote %d bits, LenK says %d", k, v, got, LenK(v, k))
			}
		}
		fast := bitio.NewReader(w.Bytes(), w.Len())
		slow := bitio.NewReader(w.Bytes(), w.Len())
		for i, want := range vals {
			fv, ferr := ReadK(fast, k)
			sv, serr := readKSlow(slow, k)
			if ferr != nil || serr != nil || fv != want || sv != want {
				t.Fatalf("order %d value %d: fast %d,%v slow %d,%v, want %d", k, i, fv, ferr, sv, serr, want)
			}
			if fast.Pos() != slow.Pos() {
				t.Fatalf("order %d value %d: positions diverged fast %d slow %d", k, i, fast.Pos(), slow.Pos())
			}
		}
		// A stream cut inside its last code must fail, not decode short.
		cut := w.Len() - 1 - int(a%uint64(LenK(vals[2], k)))
		r := bitio.NewReader(w.Bytes(), cut)
		for i := 0; i < 2; i++ {
			if _, err := ReadK(r, k); err != nil {
				t.Fatalf("order %d: truncated stream failed early at value %d: %v", k, i, err)
			}
		}
		if v, err := ReadK(r, k); err == nil {
			t.Fatalf("order %d: stream cut to %d of %d bits decoded %d", k, cut, w.Len(), v)
		}
	})
}

// TestCostsExact: Costs prices every order exactly as summing LenK would, on
// values chosen to carry (runs of ones) as well as random ones, and Best
// breaks ties toward the smaller order.
func TestCostsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		var c Costs
		var vals []uint64
		for i := rng.Intn(50); i >= 0; i-- {
			var v uint64
			switch rng.Intn(4) {
			case 0:
				v = uint64(rng.Intn(16) + 1)
			case 1:
				m := uint(rng.Intn(40) + 3)
				v = 1<<m - uint64(rng.Intn(4)) // x = v-1 starts with a run of ones
			case 2:
				v = uint64(rng.Int63n(1<<uint(rng.Intn(48)+1))) + 1
			default:
				v = 1 << uint(rng.Intn(48))
			}
			c.Add(v)
			vals = append(vals, v)
		}
		bestK, best := uint(0), int64(-1)
		all := c.all()
		for k := uint(0); k <= MaxOrder; k++ {
			var want int64
			for _, v := range vals {
				want += int64(LenK(v, k))
			}
			if got := all[k]; got != want {
				t.Fatalf("trial %d order %d: Costs %d bits, LenK sum %d", trial, k, got, want)
			}
			if best < 0 || want < best {
				bestK, best = k, want
			}
		}
		if k, b := c.Best(); k != bestK || b != best {
			t.Fatalf("trial %d: Best %d (%d bits), want %d (%d bits)", trial, k, b, bestK, best)
		}
	}
	var c Costs
	c.Add(1) // "1" at order 0, "10" at order 1
	if k, b := c.Best(); k != 0 || b != 1 {
		t.Fatalf("Best of {1} = order %d, %d bits", k, b)
	}
	c = Costs{}
	c.Add(2) // gamma 010 and order 1 "11": order 1 wins
	c.Add(3) // gamma 011 and order 1 "0100": tie over {2,3} at 6 bits
	if k, b := c.Best(); k != 0 || b != 6 || c.all()[1] != 6 {
		t.Fatalf("Best of {2,3} = order %d, %d bits (order 1: %d), want the tie to go to 0", k, b, c.all()[1])
	}
}
