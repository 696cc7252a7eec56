// Package cbitmap implements compressed bitmaps: sets of positions in a
// universe [0,n) stored as gap streams in the exp-Golomb code of some order
// k — order 0 is gamma, the paper's reference run-length encoding (§1.2). A
// bitmap with m ones occupies O(m lg(n/m) + m) bits, within a constant factor
// of the information bound lg C(n,m), which is what makes the paper's space
// accounting go through.
//
// At a given order the gap encoding is canonical — a set has exactly one
// encoding — and the word-at-a-time fast paths in this package (verbatim tail
// copies in Union, run-writing in Complement, skip samples for Contains/Rank)
// never change a bit of it; they only change how it is produced and
// traversed. A bitmap carries its order: a merge answer is gamma-coded unless
// it takes its inputs' order — a one-stream merge keeps its stream's order and
// bits, a concatenation takes the order of most of its input bits (concat).
//
// The package also provides Plain, an explicit n-bit bitmap, for the
// constant-alphabet regime where uncompressed bitmap indexes are optimal.
package cbitmap

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

// Skip-sample parameters. While a bitmap is built, every sampleEvery-th
// element's (position, bit offset past its gap code) is recorded; once the
// final stream size is known the samples are thinned so their in-memory
// footprint stays below maxSampleDiv⁻¹ (5%) of the stream. Samples are an
// in-memory acceleration for Contains/Rank only: they are not part of the
// encoded stream and never count towards SizeBits.
const (
	sampleEvery    = 64  // provisional sampling stride during construction
	sampleBitsEach = 96  // int64 position + int32 offset per retained sample
	maxSampleDiv   = 20  // samples may use at most bits/20 = 5%
	minSampleCard  = 256 // don't bother sampling tiny bitmaps
)

// ErrCorrupt reports that encoded bits failed decode validation: a gamma
// code ran past the end of its stream, or a decoded position fell outside
// the universe or below its predecessor. Query pipelines surface it (wrapped
// with context) instead of panicking, so a caller can distinguish corrupt
// storage from programming errors with errors.Is(err, ErrCorrupt). Silent
// corruption that happens to decode to a well-formed stream is, by nature,
// not detectable at this layer.
var ErrCorrupt = errors.New("cbitmap: corrupt encoded data")

// Bitmap is an immutable compressed set of positions in [0, Universe()).
// The zero value is an empty set over an empty universe.
type Bitmap struct {
	n    int64 // universe size
	card int64 // number of positions
	buf  []byte
	bits int
	last int64 // largest position, -1 when empty
	k    uint8 // the gaps' exp-Golomb order, at most gamma.MaxOrder

	// Skip samples: samplePos[i] is the position of element (i+1)*sampleK-1
	// and sampleOff[i] the bit offset just past its gap code, so point
	// queries start decoding near the target instead of at bit 0.
	samplePos []int64
	sampleOff []int32
	sampleK   int64
	// sampleOnce guards the lazy sample build of a bitmap that recorded
	// none at construction: an unsampled merge's, or one assembled from
	// verbatim tail copies (Union drains, UnionAll shard concatenation).
	sampleOnce sync.Once
}

// Builder incrementally constructs a Bitmap from strictly increasing
// positions, recording skip samples as it goes. It is the single encoding
// path used by every constructor and set operation in this package.
type Builder struct {
	w         *bitio.Writer
	prev      int64
	card      int64
	k         uint // the order every code is written at
	samplePos []int64
	sampleOff []int32
	// noSamples is set for a builder that records no samples (an unsampled
	// merge's, a StreamEncoder's), and once a drain (Stream.drainInto) copies
	// elements without visiting them: the uniform element-index spacing that
	// iterFrom/Rank rely on can then no longer be maintained, so sampling
	// stops (samples already collected cover the prefix and stay valid).
	noSamples bool
}

// NewBuilder returns a Builder with capacity for sizeHint bits of stream.
func NewBuilder(sizeHint int) *Builder {
	return &Builder{w: bitio.NewWriter(sizeHint), prev: -1}
}

func (bd *Builder) maybeSample() {
	if !bd.noSamples && bd.card%sampleEvery == 0 && bd.w.Len() <= math.MaxInt32 {
		bd.samplePos = append(bd.samplePos, bd.prev)
		bd.sampleOff = append(bd.sampleOff, int32(bd.w.Len()))
	}
}

// Add appends position p, which must exceed every position added so far.
func (bd *Builder) Add(p int64) {
	if p <= bd.prev {
		panic(fmt.Sprintf("cbitmap: Builder.Add position %d not above %d", p, bd.prev))
	}
	if bd.k == 0 {
		gamma.Write(bd.w, uint64(p-bd.prev))
	} else {
		gamma.WriteK(bd.w, uint64(p-bd.prev), bd.k)
	}
	bd.prev = p
	bd.card++
	bd.maybeSample()
}

// AddRun appends count consecutive positions start, start+1, ....
// A gap of 1 is the single-bit gamma code "1", so after the first element the
// run is written as whole words of ones instead of count-1 encode calls; at a
// higher order a position at a time.
func (bd *Builder) AddRun(start, count int64) {
	if count <= 0 {
		return
	}
	if bd.k != 0 {
		for p := start; p < start+count; p++ {
			bd.Add(p)
		}
		return
	}
	bd.Add(start)
	count--
	for count > 0 {
		chunk := sampleEvery - bd.card%sampleEvery // stop at sample boundaries
		if chunk > count {
			chunk = count
		}
		bd.w.WriteBits(^uint64(0), int(chunk))
		bd.prev += chunk
		bd.card += chunk
		bd.maybeSample()
		count -= chunk
	}
}

// Bitmap finalises the builder into an immutable bitmap over [0,n) that
// takes the builder's output buffer, right-sized first if more than a quarter
// of it is slack; the builder must not be written again.
func (bd *Builder) Bitmap(n int64) *Bitmap {
	buf := bd.w.Bytes()
	if cap(buf)-len(buf) > len(buf)/4+64 {
		buf = append(make([]byte, 0, len(buf)), buf...)
	}
	return bd.bitmapOf(n, buf)
}

// bitmapOf finalises the builder into a bitmap over [0,n) holding buf, its
// output bits; sample slices the bitmap takes as they stand are surrendered.
func (bd *Builder) bitmapOf(n int64, buf []byte) *Bitmap {
	b := &Bitmap{n: n, card: bd.card, buf: buf, bits: bd.w.Len(), last: bd.prev, k: uint8(bd.k)}
	if bd.card == 0 {
		b.last = -1
	}
	if b.attachSamples(bd.samplePos, bd.sampleOff) {
		bd.samplePos, bd.sampleOff = nil, nil
	}
	return b
}

// attachSamples thins the provisional every-sampleEvery-th samples to a
// uniform stride whose footprint is at most bits/maxSampleDiv, then attaches
// them. It reports whether the given slices themselves were attached (rather
// than a thinned copy), in which case the caller must stop mutating them.
func (b *Bitmap) attachSamples(pos []int64, off []int32) (aliased bool) {
	if len(pos) == 0 || b.card < minSampleCard {
		return false
	}
	budget := b.bits / maxSampleDiv / sampleBitsEach // samples we may keep
	if budget == 0 {
		return false
	}
	t := (len(pos) + budget - 1) / budget
	if t == 1 {
		b.samplePos, b.sampleOff, b.sampleK = pos, off, sampleEvery
		return true
	}
	keep := len(pos) / t
	b.samplePos = make([]int64, 0, keep)
	b.sampleOff = make([]int32, 0, keep)
	for i := t - 1; i < len(pos); i += t {
		b.samplePos = append(b.samplePos, pos[i])
		b.sampleOff = append(b.sampleOff, off[i])
	}
	b.sampleK = int64(sampleEvery) * int64(t)
	return false
}

// FromPositions builds a bitmap over [0,n) from a strictly increasing
// position slice.
func FromPositions(n int64, pos []int64) (*Bitmap, error) {
	bd := NewBuilder(4 * len(pos))
	prev := int64(-1)
	for i, p := range pos {
		if p <= prev {
			return nil, fmt.Errorf("cbitmap: positions not strictly increasing at index %d (%d after %d)", i, p, prev)
		}
		if p < 0 || p >= n {
			return nil, fmt.Errorf("cbitmap: position %d outside universe [0,%d)", p, n)
		}
		bd.Add(p)
		prev = p
	}
	return bd.Bitmap(n), nil
}

// MustFromPositions is FromPositions for known-good inputs (tests, builders).
func MustFromPositions(n int64, pos []int64) *Bitmap {
	b, err := FromPositions(n, pos)
	if err != nil {
		panic(err)
	}
	return b
}

// FromUnsorted builds a bitmap from positions in any order; duplicates are
// removed.
func FromUnsorted(n int64, pos []int64) (*Bitmap, error) {
	sorted := slices.Clone(pos)
	slices.Sort(sorted)
	return FromPositions(n, slices.Compact(sorted))
}

// Empty returns the empty bitmap over [0,n).
func Empty(n int64) *Bitmap { return &Bitmap{n: n, last: -1} }

// Universe returns the universe size n.
func (b *Bitmap) Universe() int64 { return b.n }

// Card returns the number of positions in the set (the paper's cardinality).
func (b *Bitmap) Card() int64 { return b.card }

// SizeBits returns the size of the compressed representation in bits.
func (b *Bitmap) SizeBits() int { return b.bits }

// Order returns the exp-Golomb order of the bitmap's gaps (0 is gamma).
func (b *Bitmap) Order() uint { return uint(b.k) }

// SampleBits returns the in-memory size of the optional skip samples in bits.
// Samples accelerate Contains/Rank but are not part of the encoded stream and
// do not count towards SizeBits (the paper's space accounting).
func (b *Bitmap) SampleBits() int { return len(b.samplePos) * sampleBitsEach }

// FootprintBytes bounds the heap the bitmap retains: its whole stream buffer
// (exact-size for a merge answer up to builderMaxBytes; Builder.Bitmap keeps
// up to a quarter of slack rather than copy) and the skip samples at their cap
// of 1/maxSampleDiv of the stream, built yet or not.
func (b *Bitmap) FootprintBytes() int64 {
	return int64(cap(b.buf)) + int64(b.bits/8/maxSampleDiv)
}

// EncodeTo appends the gamma-coded gap stream (gaps only; the caller must
// record cardinality and universe out of band, as the paper's layouts do via
// node weights), which Decode reads back. A bitmap at a higher order is
// re-encoded.
func (b *Bitmap) EncodeTo(w *bitio.Writer) {
	if b.k != 0 {
		var e StreamEncoder
		e.Init(w)
		it := b.Iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			e.Add(p)
		}
		return
	}
	var r bitio.Reader
	r.Init(b.buf, b.bits)
	w.CopyBits(&r, b.bits)
}

// decodeScratch pools Decode's sample-collection slices: a steady-state
// decode then allocates only the bitmap it returns (buffer, struct, thinned
// samples) instead of regrowing the provisional sample slices every call.
type decodeScratch struct {
	pos []int64
	off []int32
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// decodeScratchMaxSamples bounds the slices returned to the pool, so one
// huge decode does not pin megabytes behind every later small one (the same
// oversized-pooled-object hazard the Touch and chain-writer pools guard
// against).
const decodeScratchMaxSamples = 1 << 16

func (ds *decodeScratch) release(pos []int64, off []int32) {
	if cap(pos) > decodeScratchMaxSamples {
		pos, off = nil, nil
	}
	ds.pos, ds.off = pos, off
	decodeScratchPool.Put(ds)
}

// Decode reads card gamma-coded gaps from r, reconstructing a bitmap over
// [0,n). This is how bitmaps are read back from disk: the stored stream
// carries no header, cardinality comes from the node weight. It is a thin
// wrapper over the streaming core — a Stream performs the validation scan
// (collecting skip samples along the way), and the scanned bits are then
// copied whole words at a time into an exact-size buffer. r is left
// positioned just past the stream.
func Decode(r *bitio.Reader, card, n int64) (*Bitmap, error) {
	start := r.Pos()
	var s Stream
	if err := s.InitDecode(r, start, r.Remaining(), card, n, 0, 0); err != nil {
		return nil, err
	}
	ds := decodeScratchPool.Get().(*decodeScratch)
	samplePos, sampleOff, ok := s.sampleScan(start, ds.pos[:0], ds.off[:0])
	if !ok {
		ds.release(samplePos, sampleOff)
		return nil, fmt.Errorf("cbitmap: decode of %d gaps: %w", card, s.err)
	}
	bits := s.r.Pos() - start
	var w bitio.Writer
	w.Grow(bits)
	if err := w.CopyBits(r, bits); err != nil {
		ds.release(samplePos, sampleOff)
		return nil, err
	}
	// s.prev is -1 when card is 0, matching the empty bitmap's sentinel.
	b := &Bitmap{n: n, card: card, buf: w.Bytes(), bits: bits, last: s.prev}
	if b.attachSamples(samplePos, sampleOff) {
		// The bitmap took the slices themselves; surrender them to it.
		samplePos, sampleOff = nil, nil
	}
	ds.release(samplePos, sampleOff)
	return b, nil
}

// Iter returns a stream over the set's positions in increasing order. A
// Stream is a value holding its reader inline, so obtaining and running one
// allocates nothing.
func (b *Bitmap) Iter() Stream {
	var s Stream
	s.InitBitmap(b, 0)
	return s
}

// ensureSamples lazily builds skip samples by one decode pass over the
// stream. An unsampled merge answer records none at construction (it is meant
// to be read once, whole), and a verbatim tail copy never visits its
// elements, which would leave point queries scanning from bit 0; the first
// point query pays one full scan instead, leaving the samples Builder.Add
// would have recorded. Safe for concurrent readers.
func (b *Bitmap) ensureSamples() {
	if b.card < minSampleCard {
		return
	}
	b.sampleOnce.Do(func() {
		if b.samplePos != nil {
			return // sampled at construction
		}
		s := b.Iter()
		pos, off, _ := s.sampleScan(0, nil, nil) // b's own bits: cannot fail
		b.attachSamples(pos, off)
	})
}

// iterFrom returns a stream positioned at the latest skip sample strictly
// before pos (or at the start when there is none), so a forward scan reaches
// pos after at most sampleK decodes.
func (b *Bitmap) iterFrom(pos int64) Stream {
	b.ensureSamples()
	s := b.Iter()
	j := sort.Search(len(b.samplePos), func(i int) bool { return b.samplePos[i] >= pos })
	if j == 0 {
		return s
	}
	s.prev = b.samplePos[j-1]
	s.left = b.card - int64(j)*b.sampleK
	s.r.Seek(int(b.sampleOff[j-1]))
	return s
}

// Positions materialises the set as a sorted slice.
func (b *Bitmap) Positions() []int64 {
	out := make([]int64, 0, b.card)
	it := b.Iter()
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		out = append(out, p)
	}
	return out
}

// Contains reports whether pos is in the set. With skip samples the scan
// starts at the nearest preceding sample instead of bit 0, so membership
// costs O(sampleK) decodes plus a binary search rather than a scan of the
// whole prefix.
func (b *Bitmap) Contains(pos int64) bool {
	if b.card == 0 || pos > b.last {
		return false
	}
	it := b.iterFrom(pos)
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		if p >= pos {
			return p == pos
		}
	}
	return false
}

// Rank returns the number of set positions strictly below pos, jumping to
// the nearest preceding skip sample like Contains.
func (b *Bitmap) Rank(pos int64) int64 {
	if b.card == 0 {
		return 0
	}
	if pos > b.last {
		return b.card
	}
	it := b.iterFrom(pos)
	rank := b.card - it.left // samples skipped are all below pos
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		if p >= pos {
			break
		}
		rank++
	}
	return rank
}

// ErrUniverseMismatch reports set algebra over different universes.
var ErrUniverseMismatch = errors.New("cbitmap: universe size mismatch")

// Union returns the union of the given bitmaps (k-way merge in one pass, as
// the paper's query algorithm computes the union of the cover's bitmaps).
// The universe is inferred as the largest input universe; query code that
// must carry an explicit universe through an empty union uses UnionOver.
func Union(ms ...*Bitmap) (*Bitmap, error) {
	var n int64
	for _, m := range ms {
		if m.n > n {
			n = m.n
		}
	}
	return UnionOver(n, ms...)
}

// UnionOver returns the union of the given bitmaps over the explicit
// universe [0,n): the result carries n even when every input (or the input
// list itself) is empty, which is what lets query paths drop their
// empty-union special cases. It is a thin wrapper over MergeStreams, so once
// a single input remains its tail is copied verbatim, whole words at a time,
// instead of being decoded and re-encoded.
func UnionOver(n int64, ms ...*Bitmap) (*Bitmap, error) {
	for _, m := range ms {
		if m.n != n && m.card > 0 {
			return nil, ErrUniverseMismatch
		}
	}
	sc := streamScratchPool.Get().(*streamScratch)
	defer sc.release()
	for _, m := range ms {
		if m.card > 0 {
			sc.next().InitBitmap(m, 0)
		}
	}
	return MergeStreams(n, sc.ptrs()...)
}

// streamScratch pools the per-merge stream slices used by the Union wrappers.
type streamScratch struct {
	streams []Stream
	ptrs_   []*Stream
}

var streamScratchPool = sync.Pool{New: func() any { return new(streamScratch) }}

// next appends a zero stream and returns it for the caller to initialise in
// place, good until the next append.
func (sc *streamScratch) next() *Stream {
	sc.streams = append(sc.streams, Stream{})
	return &sc.streams[len(sc.streams)-1]
}

// ptrs returns one pointer per accumulated stream. It is taken only after
// every append, since appends may move the backing array.
func (sc *streamScratch) ptrs() []*Stream {
	sc.ptrs_ = sc.ptrs_[:0]
	for i := range sc.streams {
		sc.ptrs_ = append(sc.ptrs_, &sc.streams[i])
	}
	return sc.ptrs_
}

func (sc *streamScratch) release() {
	// Clear before truncating so idle pool entries do not keep the merged
	// bitmaps' buffers reachable.
	clear(sc.streams)
	clear(sc.ptrs_)
	sc.streams = sc.streams[:0]
	sc.ptrs_ = sc.ptrs_[:0]
	streamScratchPool.Put(sc)
}

// Shifted pairs a bitmap with a non-negative row-id offset: the pair
// denotes the set { p + Off | p ∈ Bm }. This is how per-shard query results,
// each over the shard's local row universe, are rebased onto the global
// row-id space.
type Shifted struct {
	Bm  *Bitmap
	Off int64
}

// UnionAll returns the union, over the universe [0,n), of the shifted
// inputs. It is a thin wrapper over MergeStreams, whose inputs here all know
// their largest positions: when they are pairwise disjoint and arrive in
// increasing position order — the sharded-query case, where shard i's rows
// all precede shard i+1's — the concatenation kernel (concat) writes the
// answer, re-encoding only each input's head gap (gaps are relative, so a
// constant shift leaves every later gap unchanged) and copying the tail
// verbatim, a word at a time. Overlapping or unsorted inputs fall back to
// the k-way merge with deduplication.
func UnionAll(n int64, parts ...Shifted) (*Bitmap, error) {
	sc := streamScratchPool.Get().(*streamScratch)
	defer sc.release()
	for _, p := range parts {
		if p.Bm == nil || p.Bm.card == 0 {
			continue
		}
		if p.Off < 0 {
			return nil, fmt.Errorf("cbitmap: UnionAll offset %d is negative", p.Off)
		}
		if p.Off+p.Bm.last >= n {
			return nil, fmt.Errorf("cbitmap: shifted position %d outside universe [0,%d)", p.Off+p.Bm.last, n)
		}
		sc.next().InitBitmap(p.Bm, p.Off)
	}
	return MergeStreams(n, sc.ptrs()...)
}

// Intersect returns the intersection of a and b.
func Intersect(a, b *Bitmap) (*Bitmap, error) {
	if a.n != b.n && a.card > 0 && b.card > 0 {
		return nil, ErrUniverseMismatch
	}
	n := a.n
	if b.n > n {
		n = b.n
	}
	bd := NewBuilder(0)
	ia, ib := a.Iter(), b.Iter()
	pa, oka := ia.Next()
	pb, okb := ib.Next()
	for oka && okb {
		switch {
		case pa < pb:
			pa, oka = ia.Next()
		case pb < pa:
			pb, okb = ib.Next()
		default:
			bd.Add(pa)
			pa, oka = ia.Next()
			pb, okb = ib.Next()
		}
	}
	return bd.Bitmap(n), nil
}

// Difference returns a \ b.
func Difference(a, b *Bitmap) (*Bitmap, error) {
	if a.n != b.n && a.card > 0 && b.card > 0 {
		return nil, ErrUniverseMismatch
	}
	bd := NewBuilder(0)
	ia, ib := a.Iter(), b.Iter()
	pa, oka := ia.Next()
	pb, okb := ib.Next()
	for oka {
		for okb && pb < pa {
			pb, okb = ib.Next()
		}
		if !okb || pb != pa {
			bd.Add(pa)
		}
		pa, oka = ia.Next()
	}
	return bd.Bitmap(a.n), nil
}

// Complement returns [0,n) \ b. This realises the paper's dense-answer trick:
// when z > n/2 the query returns the complement of two sparse queries. It is
// a single-stream MergeStreamsComplement: runs of consecutive absent
// positions become runs of single-bit gap-1 codes, written whole words at a
// time by AddRun.
func (b *Bitmap) Complement() *Bitmap {
	var s Stream
	s.InitBitmap(b, 0)
	out, err := MergeStreamsComplement(b.n, &s)
	if err != nil {
		// Unreachable: bitmap-backed streams decode their own validated bits.
		panic(err)
	}
	return out
}

// Equal reports whether a and b contain the same positions over the same
// universe. At one order the gap encoding is canonical (each set has exactly
// one encoded stream, zero-padded to the byte), so bitmaps of one order are
// compared byte for byte; bitmaps of different orders decode both sides.
func Equal(a, b *Bitmap) bool {
	if a.k == b.k {
		return a.n == b.n && a.card == b.card && a.bits == b.bits &&
			bytes.Equal(a.buf, b.buf)
	}
	if a.n != b.n || a.card != b.card || a.last != b.last {
		return false
	}
	ia, ib := a.Iter(), b.Iter()
	for {
		pa, ok := ia.Next()
		if pb, _ := ib.Next(); !ok || pa != pb {
			return !ok
		}
	}
}
