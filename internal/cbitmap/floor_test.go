package cbitmap

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/bitio"
)

// The measuring half of hypotheses/kernel-floor and hypotheses/flat-emit:
// the dense merge's kernels — Stream.fillWindow (gamma stream → window bits)
// and emit's two encoders, denseEmitter.word (a run of ones at a time) and
// emitFlat (extract, then emitSorted) — beside bare loops that do the same
// arithmetic with nothing else: no validation, no skip samples, no run
// detection, no Writer, no error paths. The bare loops keep word's
// data-dependent branches (one per set bit, one per word), so they bound
// loops of that shape, not every encoder.

var floorSink int64

// floorWords returns the words of a 2^20-position universe holding each
// position with probability 1/d (one per d on average), and the Bitmap the
// Builder makes of them.
func floorWords(d float64) ([]uint64, *Bitmap, int) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(int64(d * 1000)))
	words := make([]uint64, n/64)
	bd := NewBuilder(0)
	rows := 0
	for p := 0; p < n; p++ {
		if rng.Float64()*d < 1 {
			words[p>>6] |= 1 << uint(p&63)
			bd.Add(int64(p))
			rows++
		}
	}
	return words, bd.Bitmap(n), rows
}

// benchEncoder times one of emit's encoders over words window by window, and
// fails unless its output is bm's bit for bit.
func benchEncoder(b *testing.B, encode func(*denseEmitter, []uint64, int64), words []uint64, bm *Bitmap, rows int) {
	win := new(denseWindow)
	w := bitio.NewWriter(0)
	w.Grow(bm.bits)
	for i := 0; i < b.N; i++ {
		w.Reset()
		e := denseEmitter{bd: &Builder{w: w, prev: -1}, prev: -1}
		for base := 0; base < len(words)*64; base += denseWindowBits {
			copy(win[:], words[base>>6:])
			encode(&e, win[:], int64(base))
		}
		e.flush()
	}
	if w.Len() != bm.bits || !bytes.Equal(w.Bytes(), bm.buf) {
		b.Fatalf("emitted %d bits unlike the Builder's %d", w.Len(), bm.bits)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// emitRuns is emit's loop for a window above flatMaxPerWord, forced.
func emitRuns(e *denseEmitter, words []uint64, base int64) {
	for i, x := range words {
		if x != 0 {
			words[i] = 0
			e.word(x, base+int64(i)<<6)
		}
	}
}

// BenchmarkFloor reports ns/row at one position per d universe positions.
func BenchmarkFloor(b *testing.B) {
	const n = 1 << 20
	for _, d := range []int{2, 4, 8, 16, 64, 128} {
		words, bm, rows := floorWords(float64(d))
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
				var s Stream // validating, as a stream read from disk is
				if err := s.InitDecode(bitio.NewReader(bm.buf, bm.bits), 0, bm.bits, bm.card, n, 0, 0); err != nil {
					b.Fatal(err)
				}
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
			b.ReportMetric(float64(bm.bits)/float64(rows), "bits/row")
		})
		// The same positions coded at the exp-Golomb order that prices their
		// gaps least, the code of an internal member of a static index.
		k := BestOrder(bm.Positions())
		kw := bitio.NewWriter(0)
		var enc StreamEncoder
		enc.Init(kw)
		AddSortedK(&enc, bm.Positions(), k)
		kbuf := append(append([]byte(nil), kw.Bytes()...), make([]byte, 8)...)
		sub("fillWindow-bestk", func(b *testing.B) {
			win := new(denseWindow)
			for i := 0; i < b.N; i++ {
				var s Stream
				if err := s.InitDecode(bitio.NewReader(kbuf, kw.Len()), 0, kw.Len(), bm.card, n, 0, k); err != nil {
					b.Fatal(err)
				}
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
			b.ReportMetric(float64(k), "k")
			b.ReportMetric(float64(kw.Len())/float64(rows), "bits/row")
		})
		sub("word", func(b *testing.B) { benchEncoder(b, emitRuns, words, bm, rows) })
		sub("flat", func(b *testing.B) { benchEncoder(b, (*denseEmitter).emitFlat, words, bm, rows) })
		sub("emit", func(b *testing.B) { benchEncoder(b, (*denseEmitter).emit, words, bm, rows) })
	}
}

// BenchmarkEmitCrossover is the sweep behind flatMaxPerWord: both encoders
// of emit, forced, from one set bit in 128 to seven in eight.
func BenchmarkEmitCrossover(b *testing.B) {
	for _, f := range []float64{1.0 / 1024, 1.0 / 512, 1.0 / 256, 1.0 / 128, 1.0 / 16, 1.0 / 4, 5.0 / 16, 3.0 / 8, 7.0 / 16, 1.0 / 2, 5.0 / 8, 3.0 / 4, 7.0 / 8} {
		words, bm, rows := floorWords(1 / f)
		set := "/set=" + strconv.FormatFloat(f, 'f', 4, 64)
		b.Run("word"+set, func(b *testing.B) { benchEncoder(b, emitRuns, words, bm, rows) })
		b.Run("flat"+set, func(b *testing.B) { benchEncoder(b, (*denseEmitter).emitFlat, words, bm, rows) })
	}
}
