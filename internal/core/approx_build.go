package core

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/cbitmap"
	"repro/internal/gamma"
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
// h_j(S), j = 1 … k, that a query can select (hashedReachable), with a worker
// budget of GOMAXPROCS.
func BuildApprox(d *iomodel.Disk, col workload.Column, opts ApproxOptions) (*Approx, error) {
	return BuildApproxOn(NewWorkers(0), d, col, opts)
}

// BuildApproxOn is BuildApprox drawing its encoders from ws, which other
// builds may share.
//
// A level is the unit of construction (build.go): one pass over the column
// drops every row into its member's slice of a slab, so each member's
// positions arrive in increasing order with no comparison sort; that slab
// feeds the member's exact gap stream and, hashed and emitted sorted and
// de-duplicated (hashSet.encode), its k hashed ones. Levels encode side by
// side into private writers. The bytes on d do not depend on how many ran at
// once: a set has exactly one gap encoding at its order (package cbitmap),
// and one goroutine places the writers in the canonical order — exact
// levels, then the hashed sets by (level, j, member) — with no padding
// (pinned by TestBuildApproxDifferential and TestBuildParallelDeterministic).
func BuildApproxOn(ws Workers, d *iomodel.Disk, col workload.Column, opts ApproxOptions) (*Approx, error) {
	return buildApprox(ws, d, col, opts, maxJ(int64(col.Len())))
}

// BuildExactOn is BuildApproxOn with no hashed levels: the Theorem 2
// structure alone, as an Approx with k = 0 (the state BuildApprox leaves for
// n <= 4), whose approximate queries all answer exactly. The shards of a
// sharded index build it: nothing queries their hashed levels.
func BuildExactOn(ws Workers, d *iomodel.Disk, col workload.Column, opts OptimalOptions) (*Approx, error) {
	return buildApprox(ws, d, col, ApproxOptions{OptimalOptions: opts}, 0)
}

// buildApprox builds the index with k hashed levels.
func buildApprox(ws Workers, d *iomodel.Disk, col workload.Column, opts ApproxOptions, k int) (*Approx, error) {
	ax := &Approx{seed: opts.Seed, k: k}
	rng := rand.New(rand.NewSource(opts.Seed))
	for j := 1; j <= ax.k; j++ {
		ax.hs = append(ax.hs, hashutil.NewSplitXOR(rng, 1<<uint(j)))
	}
	ox, tasks, err := buildLevels(ws, d, col, opts.OptimalOptions, ax.hs)
	if err != nil {
		return nil, err
	}
	ax.Optimal = ox
	for i := range tasks {
		t := &tasks[i]
		if t.hashed != nil {
			off := d.AllocStream(t.hashed).Off
			putChainWriter(t.hashed)
			for _, arr := range t.perJ {
				for mi := range arr.exts {
					if arr.stored(mi) {
						arr.exts[mi].Off += off
					}
				}
			}
		}
		ax.hmaps = append(ax.hmaps, hashLevel{perJ: t.perJ})
	}
	d.ResetStats()
	return ax, nil
}

// maxHashedJ caps k: no hashed universe exceeds 2^16, which hashSet's
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

// bitsetMinRows is the cutover of hashedSet.encode for the 2^16 universe: the
// smallest member size from which the bitset beat the insertion sort on every
// seed of the member-size sweep in hypotheses/sortfree-build (the paths tie
// around 64 rows). Its bitset is 1024 words, and the walk loads every one
// whether or not a bit is set; the smaller universes are at most 4 words and
// always take the bitset.
const bitsetMinRows = 80

// hashSet turns one member's positions into the gap stream of its hashed
// set h(S): sorted, duplicates (collisions) removed.
type hashSet[P rowID] struct {
	words []uint64 // bitset over a universe of up to 2^16, all zero between calls
	keys  []uint32 // insertion-sort buffer for small members of the 2^16 universe
}

// encode appends h(pos) to enc, choosing the path from the universe and the
// member size, at hashedOrder's order for the set's size and memberK, the
// order of the member whose positions pos are, where that codes it shorter
// than gamma, else in gamma; it returns the order. Every path emits the same
// canonical stream.
func (hs *hashSet[P]) encode(enc *cbitmap.StreamEncoder, h hashutil.SplitXOR, pos []P, memberK uint) (uint, error) {
	switch {
	case h.LowBits > 16:
		return 0, fmt.Errorf("%w: hashed universe 2^%d above 2^16", ErrBuildInvariant, h.LowBits)
	case h.LowBits < 16, len(pos) >= bitsetMinRows:
		return hs.encodeBitset(enc, h, pos, memberK)
	default:
		return hs.encodeSmall(enc, h, pos, memberK)
	}
}

// encodeBitset marks every hashed value in a bitset, whose set bits AddBitsetK
// walks sorted and distinct and leaves zeroed. Universes of at most 2^16.
func (hs *hashSet[P]) encodeBitset(enc *cbitmap.StreamEncoder, h hashutil.SplitXOR, pos []P, memberK uint) (uint, error) {
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
			return 0, outsideUniverse(v, h)
		}
		words[v>>6] |= 1 << (v & 63)
	}
	card := 0
	for _, w := range words {
		card += bits.OnesCount64(w)
	}
	k := hashedOrder(h.LowBits, int64(card), memberK)
	if k > 0 {
		var gs gapSaving
		for i, w := range words {
			for ; w != 0; w &= w - 1 {
				gs.add(int64(i*64+bits.TrailingZeros64(w)), k)
			}
		}
		k = gs.order(k)
	}
	enc.AddBitsetK(words, k)
	return k, nil
}

// encodeSmall hashes a tiny member into the keys buffer, insertion-sorts it
// and gap-encodes the result, dropping repeats.
func (hs *hashSet[P]) encodeSmall(enc *cbitmap.StreamEncoder, h hashutil.SplitXOR, pos []P, memberK uint) (uint, error) {
	if cap(hs.keys) < len(pos) {
		hs.keys = make([]uint32, len(pos))
	}
	keys := hs.keys[:len(pos)]
	univ := uint64(1) << uint(h.LowBits)
	for i, p := range pos {
		v := h.Hash(uint64(p))
		if v >= univ {
			return 0, outsideUniverse(v, h)
		}
		k, j := uint32(v), i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
	m := 0
	for _, k := range keys {
		if m > 0 && k == keys[m-1] {
			continue
		}
		if m > 0 && k < keys[m-1] {
			return 0, fmt.Errorf("%w: hashed value %d sorted after %d", ErrBuildInvariant, k, keys[m-1])
		}
		keys[m] = k
		m++
	}
	k := hashedOrder(h.LowBits, int64(m), memberK)
	if k > 0 {
		var gs gapSaving
		for _, v := range keys[:m] {
			gs.add(int64(v), k)
		}
		k = gs.order(k)
	}
	cbitmap.AddSortedK(enc, keys[:m], k)
	return k, nil
}

// gapSaving prices the gaps of strictly increasing values, the first taken
// from -1, at one order against gamma.
type gapSaving struct {
	next  int64 // one past the last value added, 0 before the first
	delta int   // order-k bits less gamma bits so far
}

func (gs *gapSaving) add(v int64, k uint) {
	g := uint64(v - gs.next + 1)
	gs.delta += gamma.LenK(g, k) - gamma.Len(g)
	gs.next = v + 1
}

// order returns k if the gaps added cost fewer bits at order k than in
// gamma, else 0.
func (gs *gapSaving) order(k uint) uint {
	if gs.delta < 0 {
		return k
	}
	return 0
}

func outsideUniverse(v uint64, h hashutil.SplitXOR) error {
	return fmt.Errorf("%w: hashed value %d outside [0,2^%d)", ErrBuildInvariant, v, h.LowBits)
}
