package gamma

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// FuzzGammaRoundTrip: any nonzero value survives encode/decode, for both
// gamma and delta codes, in arbitrary mixed streams.
func FuzzGammaRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(1<<40))
	f.Add(uint64(7), uint64(1), uint64(1))
	f.Add(^uint64(0), uint64(3), uint64(1<<63))
	f.Fuzz(func(t *testing.T, a, b, c uint64) {
		vals := []uint64{a | 1, b | 1, c | 1} // ensure nonzero
		w := bitio.NewWriter(0)
		for i, v := range vals {
			if i%2 == 0 {
				Write(w, v)
			} else {
				WriteDelta(w, v)
			}
		}
		r := bitio.NewReader(w.Bytes(), w.Len())
		for i, want := range vals {
			var got uint64
			var err error
			if i%2 == 0 {
				got, err = Read(r)
			} else {
				got, err = ReadDelta(r)
			}
			if err != nil {
				t.Fatalf("value %d: %v", i, err)
			}
			if got != want {
				t.Fatalf("value %d: got %d want %d", i, got, want)
			}
		}
	})
}

// FuzzGammaFastVsSlow: on arbitrary byte streams the windowed fast decoders
// must agree exactly — values, stream positions, and error-ness — with the
// retained slow paths they shadow.
func FuzzGammaFastVsSlow(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xab}, false)
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0xff}, true)
	f.Add([]byte{0x55, 0xaa, 0x55, 0xaa}, false)
	f.Fuzz(func(t *testing.T, data []byte, delta bool) {
		fast := bitio.NewReader(data, -1)
		slow := bitio.NewReader(data, -1)
		for i := 0; i < 128; i++ {
			var fv, sv uint64
			var ferr, serr error
			if delta {
				fv, ferr = ReadDelta(fast)
				sv, serr = readDeltaSlow(slow)
			} else {
				fv, ferr = Read(fast)
				sv, serr = readKSlow(slow, 0)
			}
			if (ferr == nil) != (serr == nil) || fv != sv {
				t.Fatalf("code %d: fast %d,%v slow %d,%v", i, fv, ferr, sv, serr)
			}
			if ferr != nil {
				return
			}
			if fast.Pos() != slow.Pos() {
				t.Fatalf("code %d: position diverged fast %d slow %d", i, fast.Pos(), slow.Pos())
			}
		}
	})
}

// TestFastSlowAgreeOnRandomStreams is the property test form of the fuzz
// target above: well-formed random streams, including values too large for
// the 64-bit window, decode identically through both paths.
func TestFastSlowAgreeOnRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		w := bitio.NewWriter(0)
		var vals []uint64
		var deltas []bool
		for i := 0; i < 500; i++ {
			var v uint64
			switch rng.Intn(4) {
			case 0:
				v = uint64(rng.Intn(8) + 1)
			case 1:
				v = uint64(rng.Int63n(1<<20) + 1)
			case 2:
				v = uint64(rng.Int63()) + 1 // up to 63 bits
			default:
				v = rng.Uint64() | 1<<63 // force the slow path
			}
			d := rng.Intn(2) == 1
			vals = append(vals, v)
			deltas = append(deltas, d)
			if d {
				WriteDelta(w, v)
			} else {
				Write(w, v)
			}
		}
		fast := bitio.NewReader(w.Bytes(), w.Len())
		slow := bitio.NewReader(w.Bytes(), w.Len())
		for i, want := range vals {
			var fv, sv uint64
			var ferr, serr error
			if deltas[i] {
				fv, ferr = ReadDelta(fast)
				sv, serr = readDeltaSlow(slow)
			} else {
				fv, ferr = Read(fast)
				sv, serr = readKSlow(slow, 0)
			}
			if ferr != nil || serr != nil {
				t.Fatalf("trial %d code %d: errors fast=%v slow=%v", trial, i, ferr, serr)
			}
			if fv != want || sv != want {
				t.Fatalf("trial %d code %d: fast %d slow %d want %d", trial, i, fv, sv, want)
			}
			if fast.Pos() != slow.Pos() {
				t.Fatalf("trial %d code %d: positions diverged", trial, i)
			}
		}
		if fast.Remaining() != 0 {
			t.Fatalf("trial %d: %d bits left over", trial, fast.Remaining())
		}
	}
}

// FuzzGammaDecodeArbitrary: decoding arbitrary bytes must never panic; it
// either yields values or errors.
func FuzzGammaDecodeArbitrary(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xab})
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bitio.NewReader(data, -1)
		for i := 0; i < 64; i++ {
			if _, err := Read(r); err != nil {
				break
			}
		}
		r2 := bitio.NewReader(data, -1)
		for i := 0; i < 64; i++ {
			if _, err := ReadDelta(r2); err != nil {
				break
			}
		}
	})
}
