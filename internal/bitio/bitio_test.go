package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	w := NewWriter(0)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("read past end: err = %v, want ErrOutOfBits", err)
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type item struct {
		v uint64
		n int
	}
	var items []item
	w := NewWriter(0)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(65)
		v := rng.Uint64()
		if n < 64 {
			v &= (1 << uint(n)) - 1
		}
		items = append(items, item{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, it := range items {
		got, err := r.ReadBits(it.n)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if got != it.v {
			t.Fatalf("item %d: got %x want %x (n=%d)", i, got, it.v, it.n)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", r.Remaining())
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(^uint64(0), 3) // only low 3 bits should land
	r := NewReader(w.Bytes(), w.Len())
	v, err := r.ReadBits(3)
	if err != nil || v != 7 {
		t.Fatalf("got %d,%v want 7,nil", v, err)
	}
}

func TestUnary(t *testing.T) {
	w := NewWriter(0)
	vals := []int{0, 1, 2, 5, 63, 64, 65, 130, 1000}
	for _, v := range vals {
		w.WriteUnary(v)
	}
	r := NewReader(w.Bytes(), w.Len())
	for i, want := range vals {
		got, err := r.ReadUnary()
		if err != nil {
			t.Fatalf("unary %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("unary %d = %d, want %d", i, got, want)
		}
	}
}

func TestAlign(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(5, 3)
	w.Align(8)
	if w.Len() != 8 {
		t.Fatalf("Len after align = %d, want 8", w.Len())
	}
	w.Align(8) // already aligned: no-op
	if w.Len() != 8 {
		t.Fatalf("Len after second align = %d, want 8", w.Len())
	}
	w.WriteBit(1)
	w.Align(64)
	if w.Len() != 64 {
		t.Fatalf("Len after align 64 = %d, want 64", w.Len())
	}
}

// TestTruncate: a writer truncated to any length and written on holds the
// bytes of one that never wrote the bits it dropped.
func TestTruncate(t *testing.T) {
	for cut := 0; cut <= 23; cut++ {
		w := NewWriter(0)
		w.WriteBits(0x5a5a5a, 23)
		w.Truncate(cut)
		w.WriteBits(0b101, 3)
		want := NewWriter(0)
		want.WriteBits(0x5a5a5a>>uint(23-cut), cut)
		want.WriteBits(0b101, 3)
		if w.Len() != want.Len() || !bytes.Equal(w.Bytes(), want.Bytes()) {
			t.Fatalf("cut %d: %d bits %x, want %d bits %x", cut, w.Len(), w.Bytes(), want.Len(), want.Bytes())
		}
	}
}

func TestSeek(t *testing.T) {
	w := NewWriter(0)
	for i := 0; i < 100; i++ {
		w.WriteBits(uint64(i), 7)
	}
	r := NewReader(w.Bytes(), w.Len())
	if err := r.Seek(7 * 42); err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadBits(7)
	if err != nil || v != 42 {
		t.Fatalf("after seek: got %d,%v want 42,nil", v, err)
	}
	if err := r.Seek(w.Len() + 1); err == nil {
		t.Fatal("seek past end should error")
	}
	if err := r.Seek(-1); err == nil {
		t.Fatal("negative seek should error")
	}
}

func TestAppendWriter(t *testing.T) {
	a := NewWriter(0)
	a.WriteBits(0b101, 3)
	b := NewWriter(0)
	for i := 0; i < 50; i++ {
		b.WriteBits(uint64(i%2), 1)
		b.WriteBits(uint64(i), 13)
	}
	a.AppendWriter(b)
	if a.Len() != 3+50*14 {
		t.Fatalf("combined len = %d", a.Len())
	}
	r := NewReader(a.Bytes(), a.Len())
	v, _ := r.ReadBits(3)
	if v != 0b101 {
		t.Fatalf("prefix = %b", v)
	}
	for i := 0; i < 50; i++ {
		bit, _ := r.ReadBits(1)
		val, _ := r.ReadBits(13)
		if bit != uint64(i%2) || val != uint64(i) {
			t.Fatalf("item %d: bit=%d val=%d", i, bit, val)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint16, widthSeed uint8) bool {
		w := NewWriter(0)
		width := int(widthSeed%16) + 1
		mask := uint64(1)<<uint(width) - 1
		for _, v := range vals {
			w.WriteBits(uint64(v)&mask, width)
		}
		r := NewReader(w.Bytes(), w.Len())
		for _, v := range vals {
			got, err := r.ReadBits(width)
			if err != nil || got != uint64(v)&mask {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderBounds(t *testing.T) {
	r := NewReader([]byte{0xff}, 4)
	if _, err := r.ReadBits(5); err != ErrOutOfBits {
		t.Fatalf("want ErrOutOfBits, got %v", err)
	}
	if _, err := r.ReadBits(-1); err == nil {
		t.Fatal("negative width should error")
	}
	if _, err := r.ReadBits(65); err == nil {
		t.Fatal("width > 64 should error")
	}
	v, err := r.ReadBits(4)
	if err != nil || v != 0xf {
		t.Fatalf("got %x,%v", v, err)
	}
}
