package cbitmap

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bitio"
)

// The measuring half of hypotheses/kernel-floor: the dense merge's two
// kernels — Stream.fillWindow (gamma stream → window bits) and
// denseEmitter.word (window bits → gamma stream) — beside bare loops that do
// the same arithmetic with nothing else: no validation, no skip samples, no
// run detection, no Writer, no error paths. A kernel at its bare loop's cost
// has nothing left that a rewrite in Go could remove.

var floorSink int64

// BenchmarkFloor reports ns/row at one position per d universe positions.
func BenchmarkFloor(b *testing.B) {
	const n = 1 << 20
	for _, d := range []int{4, 16, 64} {
		rng := rand.New(rand.NewSource(int64(d)))
		words := make([]uint64, n/64)
		for i := 0; i < n/d; i++ {
			p := rng.Intn(n)
			words[p>>6] |= 1 << uint(p&63)
		}
		bd := NewBuilder(0)
		rows := 0
		for i, x := range words {
			for ; x != 0; x &= x - 1 {
				bd.Add(int64(i<<6 + bits.TrailingZeros64(x)))
				rows++
			}
		}
		bm := bd.Bitmap(n)
		buf := append(append([]byte(nil), bm.buf...), make([]byte, 8)...) // slack for the 8-byte loads
		out := make([]byte, len(bm.buf)+16)
		perRow := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		}
		sub := func(name string, f func(b *testing.B)) { b.Run(name+"/d="+strconv.Itoa(d), f) }

		sub("bare-bits", func(b *testing.B) { // iterate the set bits
			for i := 0; i < b.N; i++ {
				var sum int64
				for wi, x := range words {
					for ; x != 0; x &= x - 1 {
						sum += int64(wi<<6 + bits.TrailingZeros64(x))
					}
				}
				floorSink = sum
			}
			perRow(b)
		})
		sub("bare-gaplen", func(b *testing.B) { // … and price each gap
			for i := 0; i < b.N; i++ {
				prev, total := int64(-1), 0
				for wi, x := range words {
					for ; x != 0; x &= x - 1 {
						p := int64(wi<<6 + bits.TrailingZeros64(x))
						total += 2*bits.Len64(uint64(p-prev)) - 1
						prev = p
					}
				}
				floorSink = int64(total)
			}
			perRow(b)
		})
		sub("bare-encode", func(b *testing.B) { // … and write its code, a word at a time
			for i := 0; i < b.N; i++ {
				prev := int64(-1)
				var acc uint64
				nacc, at := 0, 0
				for wi, x := range words {
					for ; x != 0; x &= x - 1 {
						p := int64(wi<<6 + bits.TrailingZeros64(x))
						g := uint64(p - prev)
						prev = p
						glen := 2*bits.Len64(g) - 1
						if glen < 64-nacc {
							acc, nacc = acc<<uint(glen)|g, nacc+glen
							continue
						}
						rem := glen - (64 - nacc)
						binary.BigEndian.PutUint64(out[at:], acc<<uint(64-nacc)|g>>uint(rem))
						at += 8
						acc, nacc = g&(1<<uint(rem)-1), rem
					}
				}
				binary.BigEndian.PutUint64(out[at:], acc<<uint(64-nacc))
				floorSink = int64(at)
			}
			perRow(b)
		})
		sub("bare-decode", func(b *testing.B) { // one unaligned load, one lzcnt, one shift per code
			for i := 0; i < b.N; i++ {
				pos, prev := 0, int64(-1)
				var sum int64
				for r := 0; r < rows; r++ {
					w := binary.BigEndian.Uint64(buf[pos>>3:]) << uint(pos&7)
					total := 2*bits.LeadingZeros64(w) + 1
					prev += int64(w >> uint(64-total))
					pos += total
					sum += prev
				}
				floorSink = sum
			}
			perRow(b)
		})
		sub("fillWindow", func(b *testing.B) {
			win := new(denseWindow)
			for i := 0; i < b.N; i++ {
				var s Stream
				s.InitBitmapBounded(bm, 0, n) // validating, as a stream read from disk is
				cur, ok := s.Next()
				for base := int64(0); ok; base += denseWindowBits {
					cur, ok = s.fillWindow(win[:], base, base+denseWindowBits, cur)
					clear(win[:])
				}
				if s.err != nil {
					b.Fatal(s.err)
				}
			}
			perRow(b)
		})
		sub("word", func(b *testing.B) {
			win := new(denseWindow)
			w := bitio.NewWriter(0)
			w.Grow(bm.bits)
			for i := 0; i < b.N; i++ {
				w.Reset()
				e := denseEmitter{bd: &Builder{w: w, prev: -1}, prev: -1}
				for base := 0; base < n; base += denseWindowBits {
					copy(win[:], words[base>>6:])
					e.emit(win[:], int64(base))
				}
				e.flush()
				if w.Len() != bm.bits {
					b.Fatalf("emitted %d bits, want %d", w.Len(), bm.bits)
				}
			}
			perRow(b)
		})
	}
}
