// Package gamma implements Elias gamma and delta codes [Elias, IEEE ToIT
// 1975], the reference run-length encodings used throughout the paper:
// a run of x zeros is encoded with a gamma code using 2⌊lg(x+1)⌋+2 bits,
// which compresses a bitmap of cardinality m to within a constant factor of
// the information bound lg C(n,m) = m lg(n/m) + Θ(m).
//
// Codes operate on values v >= 1. Callers encoding gaps that may be zero
// shift by one (encode gap+1).
package gamma

import (
	"fmt"
	"math/bits"

	"repro/internal/bitio"
)

// Len returns the length in bits of the gamma code of v (v >= 1).
func Len(v uint64) int {
	if v == 0 {
		panic("gamma: Len of 0")
	}
	return 2*(bits.Len64(v)-1) + 1
}

// Write appends the gamma code of v (v >= 1) to w.
//
// Fast path: a gamma code of total length 2n-1 <= 64 read as an integer is
// exactly v (n-1 leading zeros, then v's n significant bits, whose leading 1
// doubles as the unary terminator), so it is a single WriteBits call.
func Write(w *bitio.Writer, v uint64) {
	if v == 0 {
		panic("gamma: Write of 0")
	}
	n := bits.Len64(v) // number of significant bits
	if total := 2*n - 1; total <= 64 {
		w.WriteBits(v, total)
		return
	}
	w.WriteUnary(n - 1)
	// The leading 1 of v is implied by the unary prefix; write remaining n-1 bits.
	w.WriteBits(v, n-1)
}

// Read decodes one gamma code from r.
//
// Fast path: the whole code (unary prefix, implied leading one, and
// remainder) is decoded from a single 64-bit peek window. A gamma code of
// 2z+1 bits read as an integer is exactly its value (z zeros, a one, then the
// low bits), so one CLZ, one shift, and one skip decode it. Codes that do not
// fit the window (values >= 2^32 or a window truncated by the end of the
// stream) fall back to the bit-exact slow path.
func Read(r *bitio.Reader) (uint64, error) {
	w, avail := r.Peek64()
	if w != 0 {
		z := bits.LeadingZeros64(w)
		if total := 2*z + 1; total <= avail {
			r.SkipBits(total)
			return w >> uint(64-total), nil
		}
	}
	return readKSlow(r, 0)
}

// DeltaLen returns the length in bits of the delta code of v (v >= 1).
func DeltaLen(v uint64) int {
	if v == 0 {
		panic("gamma: DeltaLen of 0")
	}
	n := bits.Len64(v)
	return Len(uint64(n)) + n - 1
}

// WriteDelta appends the Elias delta code of v (v >= 1): the gamma code of
// the bit length of v followed by the bits of v below its leading 1.
func WriteDelta(w *bitio.Writer, v uint64) {
	if v == 0 {
		panic("gamma: WriteDelta of 0")
	}
	n := bits.Len64(v)
	Write(w, uint64(n))
	w.WriteBits(v, n-1)
}

// ReadDelta decodes one delta code from r.
//
// Fast path: the gamma-coded length field and the value's remainder bits are
// both extracted from one 64-bit peek window; codes whose total length
// exceeds the window fall back to the slow path.
func ReadDelta(r *bitio.Reader) (uint64, error) {
	w, avail := r.Peek64()
	if w != 0 {
		z := bits.LeadingZeros64(w)
		gl := 2*z + 1 // bits in the gamma code of the length field
		if z <= 6 && gl <= avail {
			n := int(w >> uint(64-gl)) // bit length of the value, in [1,127]
			if total := gl + n - 1; n <= 64 && total <= avail {
				var rest uint64
				if n > 1 {
					rest = (w << uint(gl)) >> uint(64-(n-1))
				}
				r.SkipBits(total)
				return 1<<uint(n-1) | rest, nil
			}
		}
	}
	return readDeltaSlow(r)
}

// readDeltaSlow decodes a delta code through Read/ReadBits. It is the
// fallback for codes longer than the peek window and the differential-test
// oracle for the windowed fast path.
func readDeltaSlow(r *bitio.Reader) (uint64, error) {
	n64, err := readKSlow(r, 0)
	if err != nil {
		return 0, err
	}
	if n64 == 0 || n64 > 64 {
		return 0, fmt.Errorf("gamma: delta length field %d invalid", n64)
	}
	n := int(n64)
	rest, err := r.ReadBits(n - 1)
	if err != nil {
		return 0, err
	}
	return 1<<uint(n-1) | rest, nil
}

// MaxOrder is the largest exp-Golomb order a stream may be coded in: an
// order-k code of a gap below 2^48 still fits one 64-bit peek window.
const MaxOrder = 32

// The exp-Golomb code of order k [Teuhola, IPL 1978] generalises gamma: v >= 1
// is coded as the gamma code of ⌊(v-1)/2^k⌋+1 followed by the k low bits of
// v-1. Equivalently it is the gamma code of u = v-1+2^k with its first k
// zeros dropped, so its 2⌊lg u⌋-k+1 bits read as an integer are u, and
// order 0 is gamma itself. A member whose gaps cluster around g codes them in
// about lg g+2 bits at k ≈ lg g-1, where gamma spends 2 lg g+1. Values must
// keep u below 2^64: v <= 2^64-2^k.

// LenK returns the length in bits of the order-k code of v (v >= 1).
func LenK(v uint64, k uint) int {
	if v == 0 {
		panic("gamma: LenK of 0")
	}
	return 2*bits.Len64(v-1+1<<k) - 1 - int(k)
}

// WriteK appends the order-k code of v (v >= 1) to w. At k = 0 it is Write.
func WriteK(w *bitio.Writer, v uint64, k uint) {
	if v == 0 || k > MaxOrder || v-1 > ^uint64(0)-1<<k {
		panic(fmt.Sprintf("gamma: WriteK of %d at order %d", v, k))
	}
	u := v - 1 + 1<<k
	n := bits.Len64(u)
	if total := 2*n - 1 - int(k); total <= 64 {
		w.WriteBits(u, total)
		return
	}
	w.WriteUnary(n - 1 - int(k))
	w.WriteBits(u, n-1)
}

// ReadK decodes one order-k code from r. Its fast path is Read's with the
// code k bits longer; a code that does not fit the peek window, or a
// truncated one, goes through ReadUnary/ReadBits.
func ReadK(r *bitio.Reader, k uint) (uint64, error) {
	if k > MaxOrder {
		return 0, fmt.Errorf("gamma: order %d above %d", k, MaxOrder)
	}
	w, avail := r.Peek64()
	if w != 0 {
		z := bits.LeadingZeros64(w)
		if total := 2*z + 1 + int(k); total <= avail {
			r.SkipBits(total)
			return w>>uint(64-total) - (1<<k - 1), nil
		}
	}
	return readKSlow(r, k)
}

// readKSlow is ReadK through the unary/ReadBits primitives: the fallback for
// codes longer than the peek window (or a window truncated by the end of the
// stream), Read's at k = 0, and the differential-test oracle for both fast
// paths.
func readKSlow(r *bitio.Reader, k uint) (uint64, error) {
	z, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if z+int(k) >= 64 {
		return 0, fmt.Errorf("gamma: order-%d code length %d too large", k, 2*z+1+int(k))
	}
	rest, err := r.ReadBits(z + int(k))
	if err != nil {
		return 0, err
	}
	return (1<<uint(z+int(k)) | rest) - (1<<k - 1), nil
}

// Costs prices a sequence of values under every order in [0, MaxOrder] at
// once, exactly, from three counters per value. For x = v-1 of bit length m,
// the order-k code has length k+1 when k >= m, else 2m-1-k plus 2 when adding
// 2^k carries x into bit m — when the bits of x from k up are all ones, i.e.
// k >= m-t for t the run of ones x starts with. So a histogram of m and the
// interval [m-t, m) of orders that carry price every order in one pass.
type Costs struct {
	byLen [65]int64 // values whose v-1 has each bit length
	carry [66]int64 // differences: orders k in [m-t, m) carry
	n     int64
}

// Add counts v (v >= 1).
func (c *Costs) Add(v uint64) {
	x := v - 1
	m := bits.Len64(x)
	t := bits.LeadingZeros64(^(x << (uint(64-m) & 63))) // 0 when m = 0
	c.byLen[m]++
	c.carry[m-t]++
	c.carry[m]--
	c.n++
}

// all returns the total length of the counted values' codes at every order.
func (c *Costs) all() (total [MaxOrder + 1]int64) {
	// At order k: k+1 bits per value of length <= k (short of them), 2m-1-k
	// per value of length m > k (long sums their 2m-1), and 2 more per value
	// that carries at k.
	var short, long, carries int64
	for m := 1; m < len(c.byLen); m++ {
		long += c.byLen[m] * int64(2*m-1)
	}
	for k := range total {
		short += c.byLen[k]
		if k > 0 {
			long -= c.byLen[k] * int64(2*k-1)
		}
		carries += c.carry[k]
		total[k] = short*int64(k+1) + long - (c.n-short)*int64(k) + 2*carries
	}
	return total
}

// Best returns the order in [0, MaxOrder] that codes the counted values in
// the fewest bits, the smallest such order on a tie, and that length.
func (c *Costs) Best() (k uint, total int64) {
	all := c.all()
	for o, b := range all {
		if o == 0 || b < total {
			k, total = uint(o), b
		}
	}
	return k, total
}
