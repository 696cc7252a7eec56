package bitio

import (
	"errors"
	"fmt"
)

// writeBitsSlow is the original byte-by-byte WriteBits, retained as the
// differential-testing oracle for WriteBits' word-at-a-time path.
func (w *Writer) writeBitsSlow(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d out of range", n))
	}
	if n < 64 {
		v &= (1 << uint(n)) - 1
	}
	need := (w.nbit + n + 7) / 8
	for len(w.buf) < need {
		w.buf = append(w.buf, 0)
	}
	pos := w.nbit
	w.nbit += n
	for n > 0 {
		byteIdx := pos >> 3
		bitIdx := pos & 7
		room := 8 - bitIdx
		take := n
		if take > room {
			take = room
		}
		chunk := byte(v >> uint(n-take))
		chunk &= (1 << uint(take)) - 1
		w.buf[byteIdx] |= chunk << uint(room-take)
		pos += take
		n -= take
	}
}

// readBitsSlow is the original byte-by-byte ReadBits, retained as the
// differential-testing oracle for ReadBits' windowed path.
func (r *Reader) readBitsSlow(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bitio: ReadBits width %d out of range", n)
	}
	if r.pos+n > r.nbit {
		return 0, ErrOutOfBits
	}
	var v uint64
	pos := r.pos
	r.pos += n
	for n > 0 {
		byteIdx := pos >> 3
		bitIdx := pos & 7
		room := 8 - bitIdx
		take := n
		if take > room {
			take = room
		}
		chunk := r.buf[byteIdx] >> uint(room-take)
		chunk &= (1 << uint(take)) - 1
		v = v<<uint(take) | uint64(chunk)
		pos += take
		n -= take
	}
	return v, nil
}

// readUnarySlow is the original bit-by-bit ReadUnary, retained as the
// differential-testing oracle for ReadUnary's CLZ path.
func (r *Reader) readUnarySlow() (int, error) {
	n := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			return n, nil
		}
		n++
		if n > r.nbit {
			return 0, errors.New("bitio: unterminated unary code")
		}
	}
}
