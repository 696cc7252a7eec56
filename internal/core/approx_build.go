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
//     de-duplicated (hashedSet.encode): through a bitset over the universe,
//     or an insertion sort for a small member of the 2^16 one.
//  3. Every set is gap-encoded by one StreamEncoder into one pooled writer
//     that a single AllocStream places; extents are derived from offsets, as
//     in BuildOptimal.
//
// Memory: the slab is 8n bytes, allocated once and live for the whole build.
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

// maxHashedJ caps k: no hashed universe exceeds 2^16, which hashedSet's
// bitset relies on. Level 5 (universe 2^32) would be useful only for
// n > 2^32, a 32 GiB slab no build here makes; the radix-sort encoder that
// served it went with it (hypotheses/useless-hashed-level).
const maxHashedJ = 4

// maxJ returns k = ⌊lg lg n⌋ as the paper has it: the deepest hashed level
// whose universe 2^(2^k) is smaller than the position universe [n]. A level
// at or above n stores a second copy of every exact set (the hash is then a
// permutation of [n]) and a query that selected it would read at least the
// exact answer's bits to return a superset; "if j > k we cannot save
// anything", so those queries take the exact path. For n <= 4 no universe
// qualifies: k = 0, the index is exact-only and every ApproxQuery answers
// exactly.
func maxJ(n int64) int {
	k := 0
	for k < maxHashedJ && int64(1)<<(1<<uint(k+1)) < n {
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

// bitsetMinRows is the cutover of hashedSet.encode for the 2^16 universe: the
// smallest member size from which the bitset beat the insertion sort on every
// seed of the member-size sweep in hypotheses/sortfree-build (the paths tie
// around 64 rows). Its bitset is 1024 words, and the walk loads every one
// whether or not a bit is set; the smaller universes are at most 4 words and
// always take the bitset.
const bitsetMinRows = 80

// hashedSet turns one member's positions into the gap stream of its hashed
// set h(S): sorted, duplicates (collisions) removed.
type hashedSet struct {
	words []uint64 // bitset over a universe of up to 2^16, all zero between calls
	keys  []uint32 // insertion-sort buffer for small members of the 2^16 universe
}

// encode appends h(pos) to enc, choosing the path from the universe and the
// member size. Every path emits the same canonical stream.
func (hs *hashedSet) encode(enc *cbitmap.StreamEncoder, h hashutil.SplitXOR, pos []int64) error {
	switch {
	case h.LowBits > 16:
		return fmt.Errorf("%w: hashed universe 2^%d above 2^16", ErrBuildInvariant, h.LowBits)
	case h.LowBits < 16, len(pos) >= bitsetMinRows:
		return hs.encodeBitset(enc, h, pos)
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

// encodeSmall hashes a tiny member into the keys buffer, insertion-sorts it
// and gap-encodes the result, dropping repeats.
func (hs *hashedSet) encodeSmall(enc *cbitmap.StreamEncoder, h hashutil.SplitXOR, pos []int64) error {
	if cap(hs.keys) < len(pos) {
		hs.keys = make([]uint32, len(pos))
	}
	keys := hs.keys[:len(pos)]
	univ := uint64(1) << uint(h.LowBits)
	for i, p := range pos {
		v := h.Hash(uint64(p))
		if v >= univ {
			return outsideUniverse(v, h)
		}
		k, j := uint32(v), i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
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
