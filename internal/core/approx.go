package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cbitmap"
	"repro/internal/hashutil"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// ApproxOptions configures the Theorem 3 structure.
type ApproxOptions struct {
	OptimalOptions
	// Seed determines the shared hash functions h_1 … h_k. Indexes built
	// with the same Seed over the same n share functions, which is what
	// makes intersection of approximate results across dimensions work
	// ("simply compute the preimage of the intersection", §3).
	Seed int64
}

// Approx is the paper's Theorem 3 structure: the Theorem 2 index extended,
// at every materialised member, with the hashed sets h_j(S) for
// j = 1 … k = ⌊lg lg n⌋ (maxJ) that a query can select (hashedReachable),
// where h_j maps [n] to [2^(2^j)] via the split-XOR universal family. An approximate query reads O(z lg(1/ε)/B) bits
// instead of O(z lg(n/z)/B).
type Approx struct {
	*Optimal
	seed  int64
	k     int                 // hashed levels a query may select: every universe is below n
	hs    []hashutil.SplitXOR // hs[j-1] has output width 2^j bits
	hmaps []hashLevel         // parallel to Optimal.levels
}

// hashLevel holds, for one materialised level, the per-j concatenated
// hashed-set extents, parallel to the level's member slice.
type hashLevel struct {
	perJ []hashArray // index j-1; k entries, or the stored count of an older file
}

// A set no query can select (hashedReachable) is not stored: it keeps its
// place with a zero extent and card 0. Nor, from revision 3 on, is a set no
// shorter than its member's exact set: it keeps a zero extent and card 0 too,
// and priced holds its length. Every stored set holds at least one value,
// since every member holds at least one row.
type hashArray struct {
	exts  []iomodel.Extent
	cards []int64
	// orders holds each set's exp-Golomb order: hashedOrder's where that
	// codes the set in fewer bits than gamma, else 0; nil for the gamma-coded
	// sets of a file written before.
	orders []uint8
	// priced holds the length of each set dropped for being no shorter than
	// its member's exact set, else 0; nil on a file of revision 2 or before,
	// which stores every set it lists. A query reads the member's exact set in
	// a dropped set's place and hashes its rows into the overlay the executor
	// merges (hashedPlan).
	priced []int64
}

// StaticRevision is the revision of the static payload (EncodeMeta) this
// package writes, which a container records beside it: 3 stores a hashed set
// only where it is shorter than its member's exact set, and codes each
// stored set's collisions in place of its card; 2 holds the member directory
// as one stream in the metadata and no tree layout in the image; 1 lists
// only the hashed sets a query can select (hashedReachable); 0, every file
// written before, lists every set.
const StaticRevision = 3

// minRows is the fewest rows z a query whose cover holds member m can count:
// every record of the characters m's records belong to. A cover member lies
// inside the query's record range, which starts and ends on character
// boundaries (Tree.RecordRange).
func minRows(prefix []int64, m member) int64 {
	lo := sort.Search(len(prefix), func(a int) bool { return prefix[a] > m.start }) - 1
	hi := sort.Search(len(prefix), func(a int) bool { return prefix[a] >= m.end })
	return prefix[hi] - prefix[lo]
}

// hashedReachable reports whether some query can read h_j(S) of a member
// whose covers count at least minz rows. A query selects the smallest j with
// 2^(2^j) > z/ε, and z/ε >= z >= minz for ε < 1 (rounded, too), so it never
// selects a j with 2^(2^j) <= minz. The rule needs only the tree, so the build and the reader
// both derive it and the directory stores no flag.
func hashedReachable(minz int64, j int) bool { return minz < int64(1)<<(1<<uint(j)) }

// stored reports whether set i is stored (see hashArray).
func (arr *hashArray) stored(i int) bool { return arr.cards[i] > 0 }

// dropped reports whether set i is listed but not stored, being no shorter
// than its member's exact set.
func (arr *hashArray) dropped(i int) bool { return arr.priced != nil && arr.priced[i] != 0 }

// pricedBits returns the bits of sets [i,j) as the directory prices them: a
// stored set's length, a dropped one's priced length.
func (arr *hashArray) pricedBits(i, j int) int64 {
	var bits int64
	for k := i; k < j; k++ {
		bits += arr.exts[k].Bits
		if arr.priced != nil {
			bits += arr.priced[k]
		}
	}
	return bits
}

// hashedOrder is the exp-Golomb order a hashed set of card values in the
// universe [0, 2^lgU), whose member is coded at order memberK, is coded at
// when that is shorter than gamma: the smaller of
// max(0, ⌊lg(2^lgU/card)⌋ − 1) — about lg of the mean gap of card values
// spread over the universe, less one, where that code spends about lg g + 2
// bits on a gap g and gamma 2 lg g + 1 — and memberK. The split-XOR hash
// keeps a member's clusters (a run of rows hashes to a run of values), where
// the member's own order is the better guess; unbounded by it, the spread
// order doubles the hashed sets of a column of runs. Both come from the
// directory, which stores only whether the set takes this order or gamma
// (cardWord), so a set never costs more than its gamma code
// (hypotheses/leaf-order).
func hashedOrder(lgU int, card int64, memberK uint) uint {
	if card <= 0 {
		return 0
	}
	return min(uint(max(0, lgU-bits.Len64(uint64(card-1))-1)), memberK)
}

// cardWord is set i's cardinality as the directory of revision 2 or before
// stores it: in a file whose sets carry orders, shifted up by one over a bit
// that says the set takes hashedOrder's order rather than gamma.
func (arr *hashArray) cardWord(i int) uint64 {
	return arr.word(i, arr.cards[i])
}

// collisionWord is cardWord as revision 3 stores it, plus one: the set's
// collisions — how many of its member's card rows hash onto a value another
// row took — in place of its card, which the reader derives from the
// member's.
func (arr *hashArray) collisionWord(i int, card int64) uint64 {
	return arr.word(i, card-arr.cards[i]) + 1
}

// word returns v shifted up by one over set i's order bit, in a file whose
// sets carry orders.
func (arr *hashArray) word(i int, v int64) uint64 {
	c := uint64(v)
	if arr.orders == nil {
		return c
	}
	c <<= 1
	if arr.orders[i] > 0 {
		c |= 1
	}
	return c
}

// setCard appends the set of member m whose directory word is w, a cardWord
// of a file whose sets carry orders when ordered, and its order: hashedOrder's
// over [0, 2^lgU) where w flags it, which must then be above 0, else 0. The
// set holds from one value to the fewer of m's rows and the universe.
func (arr *hashArray) setCard(w uint64, ordered bool, lgU int, m member) error {
	card, k := int64(w), uint(0)
	if ordered {
		card = int64(w >> 1)
		if w&1 == 1 {
			if k = hashedOrder(lgU, card, uint(m.k)); k == 0 {
				return fmt.Errorf("core: hashed set of %d values flagged at order 0", card)
			}
		}
		arr.orders = append(arr.orders, uint8(k))
	}
	if card < 1 || card > min(m.end-m.start, int64(1)<<uint(lgU)) {
		return fmt.Errorf("core: hashed set of %d values for a member of %d rows", card, m.end-m.start)
	}
	arr.cards = append(arr.cards, card)
	return nil
}

// Name implements index.Index.
func (ax *Approx) Name() string { return "pr-approx" }

// K returns the number of hashed levels queries select among.
func (ax *Approx) K() int { return ax.k }

// Seed returns the hash seed (indexes must share it to intersect results).
func (ax *Approx) Seed() int64 { return ax.seed }

// SizeBits includes the stored hashed sets and their directory on top of the
// exact structure.
func (ax *Approx) SizeBits() int64 {
	size := ax.Optimal.SizeBits() + ax.hashedDirBits()
	for _, hl := range ax.hmaps {
		for _, arr := range hl.perJ {
			for _, e := range arr.exts {
				size += e.Bits
			}
		}
	}
	return size
}

// hashedDirBits is what the container's metadata spends on the hashed
// directory of every hashed level the handle holds, a file's surplus level
// included (OpenApprox): its share of the directory stream, or the varints
// of a file of revision 1 or before.
func (ax *Approx) hashedDirBits() int64 {
	if ax.layout != nil {
		return ax.hashedVarintBits(ax.storedLevels())
	}
	return planDirectory(ax.levels, ax.hmaps, ax.storedLevels()).space.HashedBits
}

// storedLevels returns how many hashed levels the handle holds: k, or one
// more on a file written while maxJ rounded up.
func (ax *Approx) storedLevels() int {
	if len(ax.hmaps) == 0 {
		return 0
	}
	return len(ax.hmaps[0].perJ)
}

// Result is the answer to an approximate range query: either an exact
// compressed position set (when no hashed level could help), or a hashed
// set together with the function that produced it, from which membership,
// candidate enumeration and intersections are computed without further
// I/Os.
type Result struct {
	N     int64
	Exact *cbitmap.Bitmap // non-nil for exact answers
	J     int
	H     hashutil.SplitXOR
	Set   *cbitmap.Bitmap // hashed set over [0, 2^(2^J))
}

// IsExact reports whether the result carries no false positives.
func (r *Result) IsExact() bool { return r.Exact != nil }

// Contains reports whether position i is in the (super)set.
func (r *Result) Contains(i int64) bool {
	if r.Exact != nil {
		return r.Exact.Contains(i)
	}
	return r.Set.Contains(int64(r.H.Hash(uint64(i))))
}

// contains with a prebuilt membership table, for hot loops.
func (r *Result) memberFn() func(int64) bool {
	if r.Exact != nil {
		set := make(map[int64]struct{}, r.Exact.Card())
		it := r.Exact.Iter()
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			set[p] = struct{}{}
		}
		return func(i int64) bool { _, ok := set[i]; return ok }
	}
	set := make(map[int64]struct{}, r.Set.Card())
	it := r.Set.Iter()
	for s, ok := it.Next(); ok; s, ok = it.Next() {
		set[s] = struct{}{}
	}
	return func(i int64) bool {
		_, ok := set[int64(r.H.Hash(uint64(i)))]
		return ok
	}
}

// CandidateCount returns |Iˆ| — the number of positions the result admits
// (exactly z for exact results; about z + εn for hashed ones).
func (r *Result) CandidateCount() int64 {
	if r.Exact != nil {
		return r.Exact.Card()
	}
	var total int64
	it := r.Set.Iter()
	for s, ok := it.Next(); ok; s, ok = it.Next() {
		total += r.H.PreimageCount(uint64(s), r.N)
	}
	return total
}

// Candidates materialises Iˆ as a sorted compressed bitmap ("we do not want
// to output the preimage (it is quite large)" — this is for tests and for
// final result delivery after intersections have shrunk the set).
func (r *Result) Candidates() (*cbitmap.Bitmap, error) {
	if r.Exact != nil {
		return r.Exact, nil
	}
	var pos []int64
	it := r.Set.Iter()
	for s, ok := it.Next(); ok; s, ok = it.Next() {
		pre := r.H.Preimage(uint64(s), r.N)
		for p, okp := pre.Next(); okp; p, okp = pre.Next() {
			pos = append(pos, int64(p))
		}
	}
	return cbitmap.FromUnsorted(r.N, pos)
}

// Intersect computes the intersection of approximate results without any
// I/O. Results hashed at the same level intersect their hashed sets (the
// preimage of the intersection, §3); mixed forms filter the smaller side's
// candidates through the other results' membership tests.
func Intersect(rs ...*Result) (*Result, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("core: Intersect of nothing")
	}
	if len(rs) == 1 {
		return rs[0], nil
	}
	n := rs[0].N
	for _, r := range rs {
		if r.N != n {
			return nil, fmt.Errorf("core: Intersect over different universes")
		}
	}
	// Fast path: all hashed with identical function.
	allSame := true
	for _, r := range rs {
		if r.IsExact() || r.J != rs[0].J || r.H != rs[0].H {
			allSame = false
			break
		}
	}
	if allSame {
		set := rs[0].Set
		for _, r := range rs[1:] {
			var err error
			set, err = cbitmap.Intersect(set, r.Set)
			if err != nil {
				return nil, err
			}
		}
		return &Result{N: n, J: rs[0].J, H: rs[0].H, Set: set}, nil
	}
	// General path: enumerate the cheapest result's candidates and test the
	// rest; the output is exact with respect to the input supersets.
	sorted := append([]*Result(nil), rs...)
	slices.SortFunc(sorted, func(a, b *Result) int {
		return cmp.Compare(a.CandidateCount(), b.CandidateCount())
	})
	members := make([]func(int64) bool, len(sorted)-1)
	for i, r := range sorted[1:] {
		members[i] = r.memberFn()
	}
	base, err := sorted[0].Candidates()
	if err != nil {
		return nil, err
	}
	var pos []int64
	it := base.Iter()
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		keep := true
		for _, m := range members {
			if !m(p) {
				keep = false
				break
			}
		}
		if keep {
			pos = append(pos, p)
		}
	}
	bm, err := cbitmap.FromPositions(n, pos)
	if err != nil {
		return nil, err
	}
	return &Result{N: n, Exact: bm}, nil
}

// entry implements memberDir over one hashed array.
func (arr *hashArray) entry(i int) (iomodel.Extent, int64, uint) {
	k := uint(0)
	if arr.orders != nil {
		k = uint(arr.orders[i])
	}
	return arr.exts[i], arr.cards[i], k
}

// ApproxQuery answers I[lo;hi] with false-positive probability at most eps
// per non-member ("The parameter ε is supplied as an argument to the query
// algorithm"). When no hashed level is coarse enough to save I/O, the exact
// Theorem 2 algorithm runs instead.
func (ax *Approx) ApproxQuery(r index.Range, eps float64) (*Result, index.QueryStats, error) {
	return ax.ApproxQueryContext(context.Background(), r, eps)
}

// ApproxQueryContext answers like ApproxQuery, checking ctx for cancellation
// between member runs and populating stats even on an error return
// (including the session's failed read attempts), so retry layers can
// account every attempt.
func (ax *Approx) ApproxQueryContext(ctx context.Context, r index.Range, eps float64) (res *Result, stats index.QueryStats, err error) {
	if err = r.Valid(ax.tree.sigma); err != nil {
		return nil, stats, err
	}
	if !(eps > 0 && eps < 1) { // a NaN eps fails both comparisons
		return nil, stats, fmt.Errorf("core: eps %v outside (0,1)", eps)
	}
	tc := ax.disk.NewTouch()
	defer tc.Close()
	defer sessionStats(tc, &stats)
	sc := getScratch()
	defer sc.release()
	qlo, qhi := ax.tree.RecordRange(r.Lo, r.Hi)
	z := qhi - qlo

	// Choose the smallest j with 2^(2^j) > z/ε among the k levels whose
	// universe is below n (an empty range has nothing to approximate).
	j := 0
	for jj := 1; jj <= ax.k && z > 0; jj++ {
		if math.Exp2(float64(int64(1)<<uint(jj))) > float64(z)/eps {
			j = jj
			break
		}
	}
	plans := sc.growPlans(2) // the exact or cover plan, and the hashed one
	plan, hashed := &plans[0], &plans[1]
	planned := j > 0
	if planned {
		// The hashed sets tile each level in the exact sets' member order, so
		// one cover plan locates both frontiers and the directory prices them
		// before either is read. A hashed frontier that is not the smaller one
		// saves nothing: it happens when the universe is within a small factor
		// of n and the members' positions cluster
		// (hypotheses/useless-hashed-level).
		if err = ax.planCover(qlo, qhi, plan); err != nil {
			return nil, stats, err
		}
		if exactBits, hashedBits := ax.frontierBits(plan.Chunks, j); hashedBits >= exactBits {
			j = 0
		}
	}
	if j == 0 {
		// "If j > k we cannot save anything": answer exactly. The chunks
		// priced above are the exact plan unless the answer is dense
		// enough for the complement trick, which reads the two ranges beside
		// this one.
		if !planned || z > ax.tree.n/2 {
			plan.reset()
			if err = ax.planRecords(qlo, qhi, plan); err != nil {
				return nil, stats, err
			}
		}
		exact, err := sc.execute(ctx, tc, plans[:1], ax.exactDir, ax.tree.n, &stats)
		if err != nil {
			return nil, stats, err
		}
		return &Result{N: ax.tree.n, Exact: exact[0]}, stats, nil
	}

	// The same cover executed against the j-th hashed sets, over
	// [0,2^(2^j)), in which hashed positions are in no order: each run of
	// stored sets is a chunk of the hashed plan, and each run of sets dropped
	// for being no shorter than their exact members is read exact and hashed
	// into the overlay the merge takes as one more stream. No query reads more
	// bits than it would had every set been stored.
	univ := int64(1) << uint(1<<uint(j))
	if err = ax.hashedPlan(ctx, tc, sc, plan.Chunks, j, hashed, &stats); err != nil {
		return nil, stats, err
	}
	hashedDir := func(level int) memberDir { return &ax.hmaps[level].perJ[j-1] }
	set, err := sc.execute(ctx, tc, plans[1:], hashedDir, univ, &stats)
	if err != nil {
		return nil, stats, err
	}
	return &Result{N: ax.tree.n, J: j, H: ax.hs[j-1], Set: set[0]}, stats, nil
}

// hashedPlan sets plan to the runs of stored j-th hashed sets in the cover
// chunks, and reads each run of dropped ones as one span of the exact level:
// every row of its members, validated against [0,n), joins sc.overlay as
// its hashed value.
func (ax *Approx) hashedPlan(ctx context.Context, tc *iomodel.Touch, sc *queryScratch, chunks []PlanChunk, j int, plan *QueryPlan, stats *index.QueryStats) error {
	h := ax.hs[j-1]
	for _, c := range chunks {
		arr := &ax.hmaps[c.Level].perJ[j-1]
		for i := c.I; i < c.J; {
			stored := arr.stored(i)
			run := PlanChunk{Level: c.Level, I: i, J: i + 1}
			for run.J < c.J && arr.stored(run.J) == stored {
				run.J++
			}
			i = run.J
			if stored {
				plan.Chunks = append(plan.Chunks, run)
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			lv := &ax.levels[c.Level]
			cb, span, err := sc.readSpan(tc, lv, run.I, run.J, stats)
			if err != nil {
				return err
			}
			var s cbitmap.Stream
			for k := run.I; k < run.J; k++ {
				ext, card, order := lv.entry(k)
				err := s.InitDecode(&cb.r, int(ext.Off-span.Off), int(ext.Bits), card, ax.tree.n, 0, order)
				for p, ok := s.Next(); err == nil && ok; p, ok = s.Next() {
					sc.overlay = append(sc.overlay, int64(h.Hash(uint64(p))))
				}
				if err == nil {
					err = s.Err()
				}
				if err != nil {
					return fmt.Errorf("core: level %d member %d: %w", c.Level, k, err)
				}
			}
		}
	}
	return nil
}

// PayloadUnderCodes prices the exact payload as Optimal.PayloadUnderCodes
// does and, level by level, each group of hashed sets h_j(S) the same way.
func (ax *Approx) PayloadUnderCodes() ([]LevelCodes, error) {
	out, err := ax.Optimal.PayloadUnderCodes()
	if err != nil {
		return nil, err
	}
	tc := ax.disk.NewTouch()
	defer tc.Close()
	for li, hl := range ax.hmaps {
		out[li].Hashed = make([]CodeBits, len(hl.perJ))
		for j := range hl.perJ {
			arr := &hl.perJ[j]
			for i := range arr.exts {
				if !arr.stored(i) {
					continue
				}
				if err := priceStream(tc, arr, i, int64(1)<<uint(1<<uint(j+1)), &out[li].Hashed[j]); err != nil {
					return nil, fmt.Errorf("core: depth %d hashed set %d at j=%d: %w", out[li].Depth, i, j+1, err)
				}
			}
		}
	}
	return out, nil
}

// frontierBits prices a cover plan's frontier from the in-memory directory:
// the bits of the exact members, as the spans a query would read, and of
// their j-th hashed sets, a dropped set at its priced length. Pricing a
// dropped set at what a query reads for it instead would turn exact answers
// hashed for a fraction of a percent of bits (hypotheses/hashed-earn).
func (ax *Approx) frontierBits(chunks []PlanChunk, j int) (exact, hashed int64) {
	for _, c := range chunks {
		exact += spanOf(&ax.levels[c.Level], c.I, c.J).Bits
		hashed += ax.hmaps[c.Level].perJ[j-1].pricedBits(c.I, c.J)
	}
	return exact, hashed
}

var _ index.Index = (*Approx)(nil)
