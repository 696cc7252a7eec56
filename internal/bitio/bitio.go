// Package bitio provides bit-granular readers and writers over byte slices.
//
// All compressed encodings in this repository (Elias gamma/delta codes,
// gap-encoded bitmaps, block-aligned bitmap pages) are built on this package.
// Bits are written most-significant-bit first within each byte, so that the
// encoded stream is a prefix of its own byte representation and positioned
// reads at arbitrary bit offsets are cheap. This MSB-first format is fixed:
// the word-at-a-time fast paths below (64-bit peek window, CLZ-based unary
// decode, byte-copy appends) change only how the stream is traversed, never
// a single bit of what is written, so encoded streams remain byte-identical
// to the original bit-by-bit implementation.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// ErrOutOfBits is returned when a read runs past the end of the stream.
var ErrOutOfBits = errors.New("bitio: read past end of stream")

// Writer appends bits to an in-memory buffer, most significant bit first.
// The zero value is ready to use.
//
// Invariant: len(buf) == (nbit+7)/8 and all bits of buf past nbit are zero.
type Writer struct {
	buf  []byte
	nbit int // total bits written
}

// NewWriter returns a Writer with capacity for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, (sizeHint+7)/8)}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Bytes returns the underlying buffer. The final byte is zero-padded.
// The returned slice aliases the writer's storage.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer to zero bits, retaining capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Grow ensures capacity for at least nbits further bits without changing the
// contents, so a reused writer can pre-size for a known output instead of
// growing through repeated appends.
func (w *Writer) Grow(nbits int) {
	if nbits <= 0 {
		return
	}
	need := (w.nbit + nbits + 7) / 8
	if cap(w.buf) < need {
		nb := make([]byte, len(w.buf), need)
		copy(nb, w.buf)
		w.buf = nb
	}
}

// WriteBit appends a single bit (any nonzero v writes a 1).
func (w *Writer) WriteBit(v uint) {
	if w.nbit&7 == 0 {
		w.buf = append(w.buf, 0)
	}
	if v != 0 {
		w.buf[w.nbit>>3] |= 0x80 >> uint(w.nbit&7)
	}
	w.nbit++
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d out of range", n))
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << uint(n)) - 1
	}
	hv := v << uint(64-n) // left-aligned: the first bit to land is bit 63
	if bitIdx := w.nbit & 7; bitIdx != 0 {
		// Merge the leading bits into the partially filled last byte. If n is
		// smaller than the room left, the low bits of hv>>56 are zero and the
		// OR is still exact.
		take := 8 - bitIdx
		if take > n {
			take = n
		}
		w.buf[len(w.buf)-1] |= byte(hv>>56) >> uint(bitIdx)
		hv <<= uint(take)
		w.nbit += take
		n -= take
		if n == 0 {
			return
		}
	}
	// Destination is now byte-aligned: append whole bytes, then the
	// zero-padded final partial byte.
	w.nbit += n
	if n > 56 {
		// Eight bytes exactly: a whole word, or the 57..63 bits an unaligned
		// 64-bit write has left (hv's low bits are zero, so the last byte is
		// already padded).
		w.buf = binary.BigEndian.AppendUint64(w.buf, hv)
		return
	}
	for n >= 8 {
		w.buf = append(w.buf, byte(hv>>56))
		hv <<= 8
		n -= 8
	}
	if n > 0 {
		w.buf = append(w.buf, byte(hv>>56))
	}
}

// WriteUnary appends v zeros followed by a one (the unary code of v).
func (w *Writer) WriteUnary(v int) {
	if v < 0 {
		panic("bitio: negative unary value")
	}
	for v >= 64 {
		w.WriteBits(0, 64)
		v -= 64
	}
	w.WriteBits(1, v+1)
}

// Align pads with zero bits to the next multiple of n bits (n > 0).
func (w *Writer) Align(n int) {
	if n <= 0 {
		panic("bitio: Align with non-positive n")
	}
	if rem := w.nbit % n; rem != 0 {
		pad := n - rem
		for pad >= 64 {
			w.WriteBits(0, 64)
			pad -= 64
		}
		if pad > 0 {
			w.WriteBits(0, pad)
		}
	}
}

// AppendWriter appends the full contents of other to w.
func (w *Writer) AppendWriter(other *Writer) {
	w.CopyBits(NewReader(other.buf, other.nbit), other.nbit)
}

// CopyBits moves n bits from r (consuming them) to the end of w: one short
// write byte-aligns the destination, whole bytes then move a word per shift
// of the source (Reader.ReadBytes), and one more short write takes the tail.
func (w *Writer) CopyBits(r *Reader, n int) error {
	if n < 0 || n > r.Remaining() {
		return ErrOutOfBits
	}
	if head := -w.nbit & 7; head != 0 {
		head = min(head, n)
		v, _ := r.ReadBits(head)
		w.WriteBits(v, head)
		n -= head
	}
	if nbytes := n >> 3; nbytes > 0 {
		old := len(w.buf)
		w.buf = slices.Grow(w.buf, nbytes)[:old+nbytes]
		r.ReadBytes(w.buf[old:])
		w.nbit += nbytes << 3
		n &= 7
	}
	if n > 0 {
		v, _ := r.ReadBits(n)
		w.WriteBits(v, n)
	}
	return nil
}

// Reader consumes bits from a byte slice, most significant bit first.
type Reader struct {
	buf  []byte
	nbit int // total readable bits
	pos  int // current bit position
}

// NewReader returns a Reader over buf exposing exactly nbit bits.
// If nbit is negative, all of buf (8*len(buf) bits) is exposed.
func NewReader(buf []byte, nbit int) *Reader {
	r := new(Reader)
	r.Init(buf, nbit)
	return r
}

// Init (re)initialises r in place to read nbit bits of buf, exactly as
// NewReader does but without allocating. It lets iterators embed a Reader by
// value.
func (r *Reader) Init(buf []byte, nbit int) {
	if nbit < 0 {
		nbit = 8 * len(buf)
	}
	if nbit > 8*len(buf) {
		panic(fmt.Sprintf("bitio: NewReader nbit %d exceeds buffer (%d bits)", nbit, 8*len(buf)))
	}
	r.buf, r.nbit, r.pos = buf, nbit, 0
}

// Len returns the total number of bits exposed by the reader.
func (r *Reader) Len() int { return r.nbit }

// Bytes returns the underlying buffer, whose first Len bits the reader
// exposes. The returned slice aliases the reader's storage.
func (r *Reader) Bytes() []byte { return r.buf }

// Pos returns the current bit position.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// Sub returns a Reader restricted to the nbits bits starting at absolute bit
// offset start of r's stream, positioned at the beginning of that range. The
// sub-reader shares r's buffer but advances independently, which is how the
// streaming decode pipeline carves per-member streams out of one contiguous
// extent read. Positions reported by the sub-reader stay in r's absolute
// coordinates.
func (r *Reader) Sub(start, nbits int) (Reader, error) {
	if start < 0 || nbits < 0 || start+nbits > r.nbit {
		return Reader{}, fmt.Errorf("bitio: Sub range [%d,%d) outside [0,%d]", start, start+nbits, r.nbit)
	}
	return Reader{buf: r.buf, nbit: start + nbits, pos: start}, nil
}

// Seek positions the reader at absolute bit offset pos.
func (r *Reader) Seek(pos int) error {
	if pos < 0 || pos > r.nbit {
		return fmt.Errorf("bitio: seek to %d outside [0,%d]", pos, r.nbit)
	}
	r.pos = pos
	return nil
}

// window returns 64 bits starting at the current position, left-aligned (the
// bit at pos is bit 63 of the result). Bits past the end of the buffer read
// as zero; bits between nbit and the end of the buffer are NOT masked — use
// Peek64 for a masked view.
func (r *Reader) window() uint64 { return Window(r.buf, r.pos) }

// Window returns the 64 bits of buf from bit pos on, left-aligned (bit pos is
// bit 63 of the result); bits past the end of buf read as zero. It is the
// word every reader peeks, for code that holds a buffer and a bit position
// rather than a Reader.
func Window(buf []byte, pos int) uint64 {
	i := pos >> 3
	if i+9 <= len(buf) {
		b := buf[i : i+9]
		return binary.BigEndian.Uint64(b)<<(pos&7) | uint64(b[8])>>(8-pos&7)
	}
	var b [9]byte
	if i < len(buf) {
		copy(b[:], buf[i:])
	}
	return binary.BigEndian.Uint64(b[:])<<(pos&7) | uint64(b[8])>>(8-pos&7)
}

// Peek64 returns the next min(64, Remaining()) bits left-aligned (the bit at
// the current position is bit 63 of the result) without consuming them,
// together with that count. Bits past the end of the stream read as zero.
// This is the primitive the gamma/delta fast paths decode from.
func (r *Reader) Peek64() (uint64, int) {
	avail := r.nbit - r.pos
	if avail <= 0 {
		return 0, 0
	}
	if avail > 64 {
		avail = 64
	}
	w := r.window()
	if avail < 64 {
		w &= ^uint64(0) << uint(64-avail)
	}
	return w, avail
}

// PeekBits returns the next n bits (0 <= n <= 64) in the low bits of the
// result without consuming them.
func (r *Reader) PeekBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bitio: PeekBits width %d out of range", n)
	}
	if r.pos+n > r.nbit {
		return 0, ErrOutOfBits
	}
	if n == 0 {
		return 0, nil
	}
	w := r.window()
	if n < 64 {
		w >>= uint(64 - n)
	}
	return w, nil
}

// SkipBits advances the reader by n bits.
func (r *Reader) SkipBits(n int) error {
	if n < 0 || r.pos+n > r.nbit {
		return ErrOutOfBits
	}
	r.pos += n
	return nil
}

// ReadBit reads one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, ErrOutOfBits
	}
	b := (r.buf[r.pos>>3] >> uint(7-r.pos&7)) & 1
	r.pos++
	return uint(b), nil
}

// ReadBits reads n bits (0 <= n <= 64) into the low bits of the result.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bitio: ReadBits width %d out of range", n)
	}
	if r.pos+n > r.nbit {
		return 0, ErrOutOfBits
	}
	if n == 0 {
		return 0, nil
	}
	w := r.window()
	r.pos += n
	if n < 64 {
		w >>= uint(64 - n)
	}
	return w, nil
}

// ReadBytes reads 8·len(dst) bits into dst: a byte copy from a byte-aligned
// position, otherwise eight bytes per shift of a source word and the high
// bits of the byte after it.
func (r *Reader) ReadBytes(dst []byte) error {
	if 8*len(dst) > r.Remaining() {
		return ErrOutOfBits
	}
	src := r.buf[r.pos>>3:]
	sh := uint(r.pos & 7)
	r.pos += 8 * len(dst)
	if sh == 0 {
		copy(dst, src)
		return nil
	}
	// The last bit read lies in src[len(dst)], so src[i+1] and src[i+8] exist.
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.BigEndian.PutUint64(dst[i:], binary.BigEndian.Uint64(src[i:])<<sh|uint64(src[i+8])>>(8-sh))
	}
	for ; i < len(dst); i++ {
		dst[i] = src[i]<<sh | src[i+1]>>(8-sh)
	}
	return nil
}

// ReadUnary reads a unary code (count of zeros before the terminating one).
// It counts leading zeros 64 bits at a time instead of looping per bit.
func (r *Reader) ReadUnary() (int, error) {
	n := 0
	for {
		w, avail := r.Peek64()
		if avail == 0 {
			return 0, ErrOutOfBits
		}
		if w == 0 {
			// The whole window is zeros: consume it and continue. If the
			// window was short, the stream ended without a terminating one.
			n += avail
			r.pos += avail
			if avail < 64 {
				return 0, ErrOutOfBits
			}
			continue
		}
		z := bits.LeadingZeros64(w)
		r.pos += z + 1
		return n + z, nil
	}
}
