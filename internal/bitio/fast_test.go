package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPeekSkip exercises the window primitives against ReadBits.
func TestPeekSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	w := NewWriter(0)
	for i := 0; i < 2000; i++ {
		w.WriteBits(rng.Uint64(), rng.Intn(65))
	}
	r := NewReader(w.Bytes(), w.Len())
	for r.Remaining() > 0 {
		n := rng.Intn(65)
		if n > r.Remaining() {
			n = r.Remaining()
		}
		pk, err := r.PeekBits(n)
		if err != nil {
			t.Fatal(err)
		}
		w64, avail := r.Peek64()
		wantAvail := r.Remaining()
		if wantAvail > 64 {
			wantAvail = 64
		}
		if avail != wantAvail {
			t.Fatalf("Peek64 avail = %d, want %d", avail, wantAvail)
		}
		if n > 0 && w64>>uint(64-n) != pk {
			t.Fatalf("Peek64 top %d bits %x != PeekBits %x", n, w64>>uint(64-n), pk)
		}
		rd, err := r.ReadBits(n)
		if err != nil {
			t.Fatal(err)
		}
		if rd != pk {
			t.Fatalf("PeekBits %x != ReadBits %x (n=%d)", pk, rd, n)
		}
	}
	if _, avail := r.Peek64(); avail != 0 {
		t.Fatalf("Peek64 at end: avail = %d", avail)
	}
	if err := r.SkipBits(1); err != ErrOutOfBits {
		t.Fatalf("SkipBits past end: %v", err)
	}
}

// TestSkipBitsMatchesRead verifies SkipBits advances exactly like ReadBits.
func TestSkipBitsMatchesRead(t *testing.T) {
	buf := make([]byte, 64)
	rand.New(rand.NewSource(22)).Read(buf)
	a := NewReader(buf, -1)
	b := NewReader(buf, -1)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 13} {
		if _, err := a.ReadBits(n); err != nil {
			t.Fatal(err)
		}
		if err := b.SkipBits(n); err != nil {
			t.Fatal(err)
		}
		if a.Pos() != b.Pos() {
			t.Fatalf("pos diverged: %d vs %d", a.Pos(), b.Pos())
		}
	}
}

// TestCopyBits checks the aligned byte-copy and unaligned word paths against
// a bit-by-bit reference.
func TestCopyBits(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		src := NewWriter(0)
		total := rng.Intn(700)
		for src.Len() < total {
			src.WriteBits(rng.Uint64(), rng.Intn(65))
		}
		prefix := rng.Intn(9) // destination alignment
		skip := 0
		if src.Len() > 0 {
			skip = rng.Intn(src.Len() + 1) // source alignment
		}
		n := src.Len() - skip

		fast := NewWriter(0)
		fast.WriteBits(uint64(trial), prefix)
		r := NewReader(src.Bytes(), src.Len())
		r.Seek(skip)
		if err := fast.CopyBits(r, n); err != nil {
			t.Fatal(err)
		}
		if r.Remaining() != 0 {
			t.Fatalf("trial %d: CopyBits left %d bits", trial, r.Remaining())
		}

		slow := NewWriter(0)
		slow.writeBitsSlow(uint64(trial), prefix)
		r2 := NewReader(src.Bytes(), src.Len())
		r2.Seek(skip)
		for i := 0; i < n; i++ {
			b, err := r2.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			slow.WriteBit(b)
		}
		if fast.Len() != slow.Len() || !bytes.Equal(fast.Bytes(), slow.Bytes()) {
			t.Fatalf("trial %d: CopyBits diverged from reference (prefix=%d skip=%d n=%d)", trial, prefix, skip, n)
		}
	}
}

// TestWriteBitsUnalignedWord pins the eight-byte append behind a word written
// at an odd bit offset — CopyBits on an unaligned destination, the dense
// emitter's spill — and behind the 57..63-bit writes that share it: every
// destination alignment, then a second word to prove the writer's state.
func TestWriteBitsUnalignedWord(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for prefix := 0; prefix < 8; prefix++ {
		for n := 57; n <= 64; n++ {
			v1, v2 := rng.Uint64(), rng.Uint64()
			fast, slow := NewWriter(0), NewWriter(0)
			fast.WriteBits(0x55, prefix)
			slow.writeBitsSlow(0x55, prefix)
			for _, v := range []uint64{v1, ^uint64(0), v2} {
				fast.WriteBits(v, n)
				slow.writeBitsSlow(v, n)
			}
			if fast.Len() != slow.Len() || !bytes.Equal(fast.Bytes(), slow.Bytes()) {
				t.Fatalf("prefix %d width %d: fast %x (%d bits) != slow %x (%d bits)",
					prefix, n, fast.Bytes(), fast.Len(), slow.Bytes(), slow.Len())
			}
		}
	}
}

// FuzzWriteBitsFast: the word-at-a-time WriteBits must produce streams
// byte-identical to the retained bit-by-bit slow path.
func FuzzWriteBitsFast(f *testing.F) {
	f.Add(uint64(0xdeadbeef), uint8(13), uint64(1), uint8(64), uint64(0), uint8(0))
	f.Add(uint64(5), uint8(3), ^uint64(0), uint8(64), uint64(0x8000000000000001), uint8(64))
	f.Add(^uint64(0), uint8(64), ^uint64(0), uint8(7), uint64(5), uint8(3))
	f.Fuzz(func(t *testing.T, v1 uint64, n1 uint8, v2 uint64, n2 uint8, v3 uint64, n3 uint8) {
		vals := [...]uint64{v1, v2, v3}
		ns := [...]uint8{n1 % 65, n2 % 65, n3 % 65}
		fast := NewWriter(0)
		slow := NewWriter(0)
		for i := range vals {
			fast.WriteBits(vals[i], int(ns[i]))
			slow.writeBitsSlow(vals[i], int(ns[i]))
		}
		if fast.Len() != slow.Len() || !bytes.Equal(fast.Bytes(), slow.Bytes()) {
			t.Fatalf("fast %x (%d bits) != slow %x (%d bits)", fast.Bytes(), fast.Len(), slow.Bytes(), slow.Len())
		}
	})
}

// FuzzReadFastVsSlow: on arbitrary byte streams, the windowed ReadBits and
// CLZ ReadUnary must agree exactly — values, positions, and errors — with the
// retained bit-by-bit slow paths.
func FuzzReadFastVsSlow(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0xff}, uint8(20), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(1))
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01}, uint8(80), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, nbit8 uint8, widthSeed uint8) {
		nbit := int(nbit8)
		if nbit > 8*len(data) {
			nbit = 8 * len(data)
		}
		fast := NewReader(data, nbit)
		slow := NewReader(data, nbit)
		for step := 0; step < 200; step++ {
			if step%2 == 0 {
				n := int(widthSeed+uint8(step)) % 65
				fv, ferr := fast.ReadBits(n)
				sv, serr := slow.readBitsSlow(n)
				if (ferr == nil) != (serr == nil) || fv != sv {
					t.Fatalf("ReadBits(%d) diverged: fast %x,%v slow %x,%v", n, fv, ferr, sv, serr)
				}
				if ferr != nil {
					return
				}
			} else {
				fv, ferr := fast.ReadUnary()
				sv, serr := slow.readUnarySlow()
				if (ferr == nil) != (serr == nil) || fv != sv {
					t.Fatalf("ReadUnary diverged: fast %d,%v slow %d,%v", fv, ferr, sv, serr)
				}
				if ferr != nil {
					return
				}
			}
			if fast.Pos() != slow.Pos() {
				t.Fatalf("position diverged: fast %d slow %d", fast.Pos(), slow.Pos())
			}
		}
	})
}

// FuzzAppendWriter: the byte-copy append must match bitwise re-writing for
// every alignment of destination and source.
func FuzzAppendWriter(f *testing.F) {
	f.Add(uint8(3), []byte{0xab, 0xcd}, uint8(11))
	f.Add(uint8(0), []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, prefixBits uint8, body []byte, tailBits uint8) {
		other := NewWriter(0)
		for _, b := range body {
			other.WriteBits(uint64(b), 8)
		}
		other.WriteBits(uint64(tailBits), int(tailBits%9))

		fast := NewWriter(0)
		fast.WriteBits(^uint64(0), int(prefixBits%65))
		slow := NewWriter(0)
		slow.WriteBits(^uint64(0), int(prefixBits%65))

		fast.AppendWriter(other)
		r := NewReader(other.Bytes(), other.Len())
		for r.Remaining() > 0 {
			b, _ := r.ReadBit()
			slow.WriteBit(b)
		}
		if fast.Len() != slow.Len() || !bytes.Equal(fast.Bytes(), slow.Bytes()) {
			t.Fatalf("AppendWriter diverged: %x (%d) vs %x (%d)", fast.Bytes(), fast.Len(), slow.Bytes(), slow.Len())
		}
	})
}

// FuzzCopyBits pins the word-shifted CopyBits to a bit-at-a-time oracle for
// every source offset, destination alignment and length, on a destination
// whose spare capacity holds stale ones. The seeds cross both alignments with
// the lengths around the 64-bit word boundaries and with copies ending in the
// source's last eight bytes, where ReadBytes leaves its word loop.
func FuzzCopyBits(f *testing.F) {
	body := make([]byte, 40)
	for i := range body {
		body[i] = byte(i*37 + 11)
	}
	for srcOff := 0; srcOff < 8; srcOff++ {
		for dstOff := 0; dstOff < 8; dstOff++ {
			for _, n := range []int{0, 1, 7, 8, 62, 63, 64, 65, 126, 127, 128, 129} {
				f.Add(body, uint16(srcOff), uint8(dstOff), uint16(n))
			}
			for tail := 0; tail <= 64; tail += 9 {
				f.Add(body, uint16(srcOff), uint8(dstOff), uint16(8*len(body)-srcOff-tail))
			}
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, srcOff uint16, dstOff uint8, n uint16) {
		total := 8 * len(src)
		skip := min(int(srcOff), total)
		count := min(int(n), total-skip)
		prefix := int(dstOff % 8)

		fast := NewWriter(0)
		for i := 0; i < len(src)/8+2; i++ {
			fast.WriteBits(^uint64(0), 64)
		}
		fast.Reset()
		fast.WriteBits(0x55, prefix)
		r := NewReader(src, total)
		r.Seek(skip)
		if err := fast.CopyBits(r, count); err != nil {
			t.Fatal(err)
		}
		if r.Pos() != skip+count {
			t.Fatalf("CopyBits consumed %d bits, want %d", r.Pos()-skip, count)
		}
		if err := fast.CopyBits(r, r.Remaining()+1); err != ErrOutOfBits {
			t.Fatalf("CopyBits past the end: err = %v, want ErrOutOfBits", err)
		}

		slow := NewWriter(0)
		slow.writeBitsSlow(0x55, prefix)
		r2 := NewReader(src, total)
		r2.Seek(skip)
		for i := 0; i < count; i++ {
			b, _ := r2.ReadBit()
			slow.WriteBit(b)
		}
		if fast.Len() != slow.Len() || !bytes.Equal(fast.Bytes(), slow.Bytes()) {
			t.Fatalf("CopyBits diverged (src offset %d, dst offset %d, n %d): %x vs %x", skip, prefix, count, fast.Bytes(), slow.Bytes())
		}
	})
}
