package core

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/cbitmap"
	"repro/internal/hashutil"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// ErrBuildInvariant reports that a build-time self-check failed: a level
// pass did not fill a member's record span, or a hashed set left its
// universe or its sorted order. Only a bug in this package can produce it.
var ErrBuildInvariant = errors.New("core: build invariant violated")

// BuildApprox constructs the Theorem 3 index for col on disk d: the
// Theorem 2 structure, then for each materialised member S the hashed sets
// h_j(S), j = 1 … k, grouped by j ("we group the sets according to what hash
// function was used") so a cover chunk at one j is contiguous.
//
// The hashed levels are built without a comparison sort, in three steps per
// materialised level:
//
//  1. One pass over the column drops every row into its member's slice of a
//     slab (hashedBuild.scatter), so each member's positions arrive in
//     increasing order and are computed once, not once per j.
//  2. For each (j, member) the slice is hashed and emitted sorted and
//     de-duplicated (hashedSet.encode): through a bitset for the universes
//     up to 2^16, through a byte-radix sort for the 2^32 one.
//  3. Every set is gap-encoded by one StreamEncoder into one pooled writer
//     that a single AllocStream places; extents are derived from offsets, as
//     in BuildOptimal.
//
// Memory: the slab is 8n bytes, allocated once and live for the whole build;
// the sort buffers grow to 8 bytes × the largest member (the first level's).
//
// The bytes on d cannot differ from a member-at-a-time build: a set has
// exactly one gap encoding (package cbitmap), adjacent AllocStream calls
// share blocks with no padding, and the sets are laid down in the same
// (level, j, member) order — so only how each sorted set is reached changed
// (pinned by TestBuildApproxDifferential and TestFormatGoldens).
func BuildApprox(d iomodel.Device, col workload.Column, opts ApproxOptions) (*Approx, error) {
	ox, err := BuildOptimal(d, col, opts.OptimalOptions)
	if err != nil {
		return nil, err
	}
	ax := &Approx{Optimal: ox, seed: opts.Seed}
	ax.k = maxJ(ox.tree.n)
	rng := rand.New(rand.NewSource(opts.Seed))
	for j := 1; j <= ax.k; j++ {
		ax.hs = append(ax.hs, hashutil.NewSplitXOR(rng, 1<<uint(j)))
	}
	hb := newHashedBuild(ox.tree, col.X)
	lw := getChainWriter()
	defer putChainWriter(lw)
	var enc cbitmap.StreamEncoder
	for li := range ox.levels {
		lv := &ox.levels[li]
		if err := hb.scatter(lv.members); err != nil {
			return nil, fmt.Errorf("core: depth %d: %w", lv.depth, err)
		}
		hl := hashLevel{perJ: make([]hashArray, ax.k)}
		lw.Reset()
		levelOff := d.AllocatedBits() // = the extent AllocStream returns below
		for j := 1; j <= ax.k; j++ {
			arr := &hl.perJ[j-1]
			arr.exts = make([]iomodel.Extent, len(lv.members))
			arr.cards = make([]int64, len(lv.members))
			for mi, m := range lv.members {
				startBit := lw.Len()
				enc.Init(lw)
				if err := hb.set.encode(&enc, ax.hs[j-1], hb.slab[m.start:m.end]); err != nil {
					return nil, fmt.Errorf("core: depth %d hashed level j=%d member [%d,%d): %w",
						lv.depth, j, m.start, m.end, err)
				}
				arr.exts[mi] = iomodel.Extent{Off: levelOff + int64(startBit), Bits: int64(lw.Len() - startBit)}
				arr.cards[mi] = enc.Card()
			}
		}
		d.AllocStream(lw)
		ax.hmaps = append(ax.hmaps, hl)
	}
	d.ResetStats()
	return ax, nil
}

// maxJ returns k ≈ lg lg n, the deepest hashed level, chosen as the least k
// with 2^(2^k) >= n so the coarsest hashed universe reaches the position
// universe (beyond that a hashed set cannot beat the exact one; the paper's
// ⌊lg lg n⌋ is the same value up to rounding, and the space analysis is
// unchanged since level sizes decay geometrically upward). The cap keeps
// k <= 5: no hashed universe exceeds 2^32, which hashedSet relies on.
func maxJ(n int64) int {
	lgn := max(bits.Len64(uint64(n-1)), 1)
	k := 1
	for 1<<uint(k) < lgn && 1<<uint(k+1) <= 56 {
		k++
	}
	return k
}

// hashedBuild is the per-build scratch of the hashed-level construction.
type hashedBuild struct {
	x      []uint32
	prefix []int64
	// slab holds one level at a time: member m owns slab[m.start:m.end], its
	// positions in increasing order. Members of a level are disjoint record
	// ranges, so the record range doubles as the slab range.
	slab []int64
	next []int64 // per character: the record its next occurrence becomes
	cur  []int32 // per character: first member not wholly below next
	fill []int64 // per member: the slab slot its next row drops into
	set  hashedSet
}

func newHashedBuild(t *Tree, x []uint32) *hashedBuild {
	return &hashedBuild{
		x:      x,
		prefix: t.prefix,
		slab:   make([]int64, t.n),
		next:   make([]int64, t.sigma),
		cur:    make([]int32, t.sigma),
	}
}

// scatter fills the slab for one level in a single pass over the column:
// row i of character a is sorted-record next[a] (records are ordered by
// character, then position), and cur[a] walks the level's members — sorted,
// disjoint record ranges — forward to the one holding that record. A
// character's records may straddle several members, and records under a leaf
// materialised at a shallower level belong to no member here; both cases are
// the cursor advancing or the row being skipped. Rows arrive in increasing i,
// so each member's slice ends up sorted.
func (hb *hashedBuild) scatter(members []member) error {
	copy(hb.next, hb.prefix)
	mi := 0
	for a := range hb.cur {
		for mi < len(members) && members[mi].end <= hb.prefix[a] {
			mi++
		}
		hb.cur[a] = int32(mi)
	}
	hb.fill = make([]int64, len(members))
	for c, m := range members {
		hb.fill[c] = m.start
	}
	for i, a := range hb.x {
		r := hb.next[a]
		hb.next[a] = r + 1
		c := int(hb.cur[a])
		for c < len(members) && members[c].end <= r {
			c++
		}
		hb.cur[a] = int32(c)
		if c == len(members) || members[c].start > r {
			continue
		}
		hb.slab[hb.fill[c]] = int64(i)
		hb.fill[c]++
	}
	for c, m := range members {
		if hb.fill[c] != m.end {
			return fmt.Errorf("%w: member [%d,%d) received %d of %d records",
				ErrBuildInvariant, m.start, m.end, hb.fill[c]-m.start, m.end-m.start)
		}
	}
	return nil
}

// Cutovers of hashedSet.encode: the smallest member sizes from which the
// sort-free path beat the insertion sort on every seed of the member-size
// sweep in hypotheses/sortfree-build (FINDINGS.md has the tables; the paths
// tie around 64 rows for the bitset and 64–96 for the radix sort).
const (
	// bitsetMinRows applies to the 2^16 universe only: its bitset is 1024
	// words, and the walk loads every one whether or not a bit is set. The
	// smaller universes are at most 4 words and always take the bitset.
	bitsetMinRows = 80
	// radixMinRows: below it the radix sort's four 256-bucket histograms and
	// prefix sums cost more than insertion-sorting the member.
	radixMinRows = 128
)

// hashedSet turns one member's positions into the gap stream of its hashed
// set h(S): sorted, duplicates (collisions) removed.
type hashedSet struct {
	words     []uint64 // bitset over a universe of up to 2^16, all zero between calls
	keys, tmp []uint32 // sort buffers for the 2^32 universe and for tiny members
}

// encode appends h(pos) to enc, choosing the path from the universe and the
// member size. Every path emits the same canonical stream.
func (hs *hashedSet) encode(enc *cbitmap.StreamEncoder, h hashutil.SplitXOR, pos []int64) error {
	switch {
	case h.LowBits > 32:
		return fmt.Errorf("%w: hashed universe 2^%d above 2^32", ErrBuildInvariant, h.LowBits)
	case h.LowBits < 16, h.LowBits == 16 && len(pos) >= bitsetMinRows:
		return hs.encodeBitset(enc, h, pos)
	case h.LowBits > 16 && len(pos) >= radixMinRows:
		return hs.encodeRadix(enc, h, pos)
	default:
		return hs.encodeSmall(enc, h, pos)
	}
}

// encodeBitset marks every hashed value in a bitset and walks the set bits,
// which come out sorted and distinct. Universes of at most 2^16.
func (hs *hashedSet) encodeBitset(enc *cbitmap.StreamEncoder, h hashutil.SplitXOR, pos []int64) error {
	univ := uint64(1) << uint(h.LowBits)
	nw := int(univ+63) / 64
	if len(hs.words) < nw {
		hs.words = make([]uint64, 1<<16/64)
	}
	words := hs.words[:nw]
	for _, p := range pos {
		v := h.Hash(uint64(p))
		if v >= univ {
			clear(words)
			return outsideUniverse(v, h)
		}
		words[v>>6] |= 1 << (v & 63)
	}
	for wi, w := range words {
		words[wi] = 0
		for ; w != 0; w &= w - 1 {
			enc.Add(int64(wi<<6 | bits.TrailingZeros64(w)))
		}
	}
	return nil
}

// encodeSmall insertion-sorts a tiny member's hashed values.
func (hs *hashedSet) encodeSmall(enc *cbitmap.StreamEncoder, h hashutil.SplitXOR, pos []int64) error {
	keys, err := hs.hashInto(h, pos)
	if err != nil {
		return err
	}
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	return encodeSorted(enc, keys)
}

// encodeRadix sorts the hashed values of the 2^32 universe with an LSD radix
// sort on bytes. A digit on which every key agrees is skipped: for n <= 2^32
// the split-XOR hash at this width is position XOR a constant, so the bytes
// above lg n are constant in every member.
func (hs *hashedSet) encodeRadix(enc *cbitmap.StreamEncoder, h hashutil.SplitXOR, pos []int64) error {
	keys, err := hs.hashInto(h, pos)
	if err != nil || len(keys) == 0 {
		return err
	}
	if cap(hs.tmp) < len(keys) {
		hs.tmp = make([]uint32, len(keys))
	}
	tmp := hs.tmp[:len(keys)]
	var count [4][256]int
	for _, k := range keys {
		count[0][k&0xff]++
		count[1][k>>8&0xff]++
		count[2][k>>16&0xff]++
		count[3][k>>24]++
	}
	for d := range count {
		c, shift := &count[d], uint(8*d)
		if c[keys[0]>>shift&0xff] == len(keys) {
			continue
		}
		sum := 0
		for b, cnt := range c {
			c[b], sum = sum, sum+cnt
		}
		for _, k := range keys {
			b := k >> shift & 0xff
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}
	return encodeSorted(enc, keys)
}

// hashInto hashes pos into the keys buffer, checking the universe.
func (hs *hashedSet) hashInto(h hashutil.SplitXOR, pos []int64) ([]uint32, error) {
	if cap(hs.keys) < len(pos) {
		hs.keys = make([]uint32, len(pos))
	}
	keys := hs.keys[:len(pos)]
	univ := uint64(1) << uint(h.LowBits)
	for i, p := range pos {
		v := h.Hash(uint64(p))
		if v >= univ {
			return nil, outsideUniverse(v, h)
		}
		keys[i] = uint32(v)
	}
	return keys, nil
}

// encodeSorted gap-encodes sorted keys, dropping repeats.
func encodeSorted(enc *cbitmap.StreamEncoder, keys []uint32) error {
	prev := int64(-1)
	for _, k := range keys {
		v := int64(k)
		if v == prev {
			continue
		}
		if v < prev {
			return fmt.Errorf("%w: hashed value %d sorted after %d", ErrBuildInvariant, v, prev)
		}
		enc.Add(v)
		prev = v
	}
	return nil
}

func outsideUniverse(v uint64, h hashutil.SplitXOR) error {
	return fmt.Errorf("%w: hashed value %d outside [0,2^%d)", ErrBuildInvariant, v, h.LowBits)
}
