package core

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/hashutil"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// positionsRef returns the oracle the level pass is checked against: a
// function giving the positions of records [start,end) of column x in
// increasing order, by slicing the record order (row i of character a is
// record prefix[a] + the occurrences of a before i) and sorting.
func (t *Tree) positionsRef(x []uint32) func(start, end int64) []int64 {
	rec := make([]int64, len(x))
	next := slices.Clone(t.prefix)
	for i, a := range x {
		rec[next[a]] = int64(i)
		next[a]++
	}
	return func(start, end int64) []int64 {
		out := slices.Clone(rec[start:end])
		slices.Sort(out)
		return out
	}
}

// hashedSet is the 64-bit instantiation of hashSet, the one a column of more
// than 2^32 rows builds with; the unit tests and the fuzz target drive it,
// the build differentials the 32-bit one.
type hashedSet = hashSet[int64]

// buildApproxReference is the member-at-a-time construction BuildApprox used
// before the level pass: per (level, j, member) sort the positions, hash,
// sort and compact again, encode one gamma.WriteK at a time at the order
// hashedOrder derives where that is shorter than gamma, else in gamma
// (oracleOrder), and place each set with its own AllocStream. It stores
// every set, reachable by a query or not, as builds did before
// hashedReachable: the oracle for approximate answers and their reads.
func buildApproxReference(d *iomodel.Disk, col workload.Column, opts ApproxOptions) (*Approx, error) {
	return buildApproxReferenceK(d, col, opts, maxJ, 0)
}

// legacyMaxJ is maxJ as it was before it followed the paper: the least k >= 1
// with 2^(2^k) >= n, capped at 5 — for n <= 2^32 always one level more than
// maxJ. The oracle for what older files store.
func legacyMaxJ(n int64) int {
	lgn := max(bits.Len64(uint64(n-1)), 1)
	k := 1
	for 1<<uint(k) < lgn && k < 5 {
		k++
	}
	return k
}

// buildApproxReferenceK is buildApproxReference with the level count chosen
// by kOf(n): with legacyMaxJ it lays down what a build before the cap did,
// surplus level included, selectable by queries. It stores the sets a build
// of the given payload revision stored: at 0 every set; at 1 and 2 only
// those hashedReachable keeps, recording the others empty; at 3 (the oracle
// for the device image) only those that are also shorter than their
// members' exact sets, pricing the ones that are not.
func buildApproxReferenceK(d *iomodel.Disk, col workload.Column, opts ApproxOptions, kOf func(n int64) int, revision int) (*Approx, error) {
	ox, err := BuildOptimal(d, col, opts.OptimalOptions)
	if err != nil {
		return nil, err
	}
	ax := &Approx{Optimal: ox, seed: opts.Seed}
	ax.k = kOf(ox.tree.n)
	rng := rand.New(rand.NewSource(opts.Seed))
	for j := 1; j <= ax.k; j++ {
		ax.hs = append(ax.hs, hashutil.NewSplitXOR(rng, 1<<uint(j)))
	}
	positions := ox.tree.positionsRef(col.X)
	for _, lv := range ox.levels {
		hl := hashLevel{perJ: make([]hashArray, ax.k)}
		for j := 1; j <= ax.k; j++ {
			univ := int64(1) << uint(1<<uint(j))
			arr := &hl.perJ[j-1]
			arr.priced = make([]int64, len(lv.members))
			for mi, m := range lv.members {
				if revision > 0 && !hashedReachable(minRows(ox.tree.prefix, m), j) {
					arr.exts, arr.cards, arr.orders = append(arr.exts, iomodel.Extent{}), append(arr.cards, 0), append(arr.orders, 0)
					continue
				}
				pos := positions(m.start, m.end)
				hashed := make([]int64, 0, len(pos))
				for _, p := range pos {
					hashed = append(hashed, int64(ax.hs[j-1].Hash(uint64(p))))
				}
				hbm, err := cbitmap.FromUnsorted(univ, hashed)
				if err != nil {
					return nil, err
				}
				k := oracleOrder(hbm.Positions(), hashedOrder(1<<uint(j), hbm.Card(), uint(m.k)))
				w := encodeAtOrder(hbm.Positions(), k)
				if revision >= 3 && int64(w.Len()) >= m.ext.Bits {
					arr.exts, arr.cards, arr.orders = append(arr.exts, iomodel.Extent{}), append(arr.cards, 0), append(arr.orders, 0)
					arr.priced[mi] = int64(w.Len())
					continue
				}
				arr.exts = append(arr.exts, d.AllocStream(w))
				arr.cards = append(arr.cards, hbm.Card())
				arr.orders = append(arr.orders, uint8(k))
			}
		}
		ax.hmaps = append(ax.hmaps, hl)
	}
	d.ResetStats()
	return ax, nil
}

// heavyColumn puts frac of the rows on one character in the middle of the
// alphabet and spreads the rest uniformly: the heavy character's records
// straddle several members at the shallow levels and end under a pruned leaf
// the deeper levels do not cover.
func heavyColumn(n, sigma int, frac float64, seed int64) workload.Column {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint32, n)
	for i := range x {
		if rng.Float64() < frac {
			x[i] = uint32(sigma / 2)
		} else {
			x[i] = uint32(rng.Intn(sigma))
		}
	}
	return workload.Column{X: x, Sigma: sigma}
}

// requireSameApprox fails unless the two builds left identical device images
// and identical exact and hashed directories, priced lengths included.
func requireSameApprox(t *testing.T, name string, gd, wd *iomodel.Disk, got, want *Approx) {
	t.Helper()
	gt, gb := gd.Image()
	wt, wb := wd.Image()
	if gt != wt || !bytes.Equal(gb, wb) {
		t.Fatalf("%s: device image differs (%d vs %d bits)", name, gt, wt)
	}
	if got.k != want.k || len(got.hmaps) != len(want.hmaps) {
		t.Fatalf("%s: k %d/%d, hashed levels %d/%d", name, got.k, want.k, len(got.hmaps), len(want.hmaps))
	}
	for li := range want.levels {
		if !slices.Equal(got.levels[li].members, want.levels[li].members) {
			t.Fatalf("%s: exact level %d members differ", name, li)
		}
		for j := range want.hmaps[li].perJ {
			g, w := got.hmaps[li].perJ[j], want.hmaps[li].perJ[j]
			if !slices.Equal(g.exts, w.exts) || !slices.Equal(g.cards, w.cards) || !slices.Equal(g.priced, w.priced) {
				t.Fatalf("%s: level %d j=%d hashed extents, cardinalities or priced lengths differ", name, li, j+1)
			}
		}
	}
}

// TestBuildApproxDifferential pins the sort-free hashed-level build to the
// member-at-a-time reference that omits the sets no query selects: same
// device bytes, extents and cardinalities.
func TestBuildApproxDifferential(t *testing.T) {
	type tc struct {
		name   string
		col    workload.Column
		stride int
	}
	var cases []tc
	add := func(name string, col workload.Column) {
		for _, stride := range []int{1, 2} {
			cases = append(cases, tc{fmt.Sprintf("%s/n=%d/sigma=%d/stride=%d", name, col.Len(), col.Sigma, stride), col, stride})
		}
	}
	for _, n := range []int{1, 2, 63} {
		for _, sigma := range []int{1, 2, 37, 1024} {
			add("uniform", workload.Uniform(n, sigma, int64(n+sigma)))
			add("zipf", workload.Zipf(n, sigma, 1.1, int64(n+sigma)))
			add("runs", workload.Runs(n, sigma, 8, int64(n+sigma)))
			add("sorted", workload.Sorted(n, sigma))
		}
	}
	// 65 537 is the first n with the 2^16 hashed universe (k = 4); 300 000
	// adds members of 2^16+ rows, where every value of that universe is hit.
	const mid = 65537
	add("single", workload.Uniform(mid, 1, 3))
	add("uniform", workload.Uniform(mid, 2, 4))
	add("uniform", workload.Uniform(mid, 1024, 5))
	add("zipf", workload.Zipf(mid, 37, 1.1, 6))
	add("runs", workload.Runs(mid, 37, 50, 8))
	add("sorted", workload.Sorted(mid, 1024))
	add("heavy", heavyColumn(mid, 1024, 0.4, 9))
	if !testing.Short() {
		add("zipf", workload.Zipf(300000, 1024, 1.1, 7))
		add("heavy", heavyColumn(300000, 37, 0.4, 10))
	}
	for _, c := range cases {
		opts := ApproxOptions{OptimalOptions: OptimalOptions{Stride: c.stride}, Seed: 42}
		gd := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
		wd := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
		got, err := BuildApprox(gd, c.col, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := buildApproxReferenceK(wd, c.col, opts, maxJ, StaticRevision)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		requireSameApprox(t, c.name, gd, wd, got, want)
	}
}

// TestBuildApproxHeavyColumnShape checks that the heavy column of the
// differential test really has the two shapes scatter's cursor exists for.
func TestBuildApproxHeavyColumnShape(t *testing.T) {
	col := heavyColumn(65537, 1024, 0.4, 9)
	ox, err := BuildOptimalDefault(iomodel.NewDisk(iomodel.Config{BlockBits: 2048}), col)
	if err != nil {
		t.Fatal(err)
	}
	heavy := uint32(col.Sigma / 2)
	hlo, hhi := ox.tree.RecordRange(heavy, heavy)
	split, uncovered := false, false
	for _, lv := range ox.levels {
		var covered int64
		inside := 0
		for _, m := range lv.members {
			covered += m.end - m.start
			if m.start < hhi && m.end > hlo {
				inside++
			}
		}
		split = split || inside > 1
		uncovered = uncovered || covered < ox.tree.n
	}
	if !split || !uncovered {
		t.Fatalf("heavy column: character split across members = %v, level with uncovered records = %v; want both", split, uncovered)
	}
}

// TestScatterRejectsBadMembers checks the level pass's self-check: a member
// list that claims a record span the column cannot fill is a typed error.
func TestScatterRejectsBadMembers(t *testing.T) {
	col := workload.Uniform(500, 8, 1)
	tr, err := BuildTree(col, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	hb := newLevelScratch[int64](tr.prefix, col.X)
	if err := hb.scatter([]member{{start: 0, end: 100}, {start: 50, end: 200}}); !errors.Is(err, ErrBuildInvariant) {
		t.Fatalf("overlapping members: err = %v, want ErrBuildInvariant", err)
	}
	if err := hb.scatter([]member{{start: 0, end: 100}, {start: 100, end: 500}}); err != nil {
		t.Fatalf("tiling members: %v", err)
	}
	for _, m := range []member{{start: 0, end: 100}, {start: 100, end: 500}} {
		if !slices.Equal(hb.slab[m.start:m.end], tr.positionsRef(col.X)(m.start, m.end)) {
			t.Fatalf("member [%d,%d): slab differs from sorted positions", m.start, m.end)
		}
	}
}

// TestHashedSetRejectsWideUniverse: a hash wider than 16 bits does not fit
// the bitset and must be refused, not truncated.
func TestHashedSetRejectsWideUniverse(t *testing.T) {
	var hs hashedSet
	var enc cbitmap.StreamEncoder
	enc.Init(bitio.NewWriter(0))
	h := hashutil.NewSplitXOR(rand.New(rand.NewSource(1)), 32)
	if _, err := hs.encode(&enc, h, []int64{1, 2, 3}, 0); !errors.Is(err, ErrBuildInvariant) {
		t.Fatalf("err = %v, want ErrBuildInvariant", err)
	}
}

// hashedSetOracle is sort + Compact on the hashed values, checked against
// the universe by FromPositions and coded by encodeAtOrder at oracleOrder's
// choice for a member at order memberK; it returns that order too.
func hashedSetOracle(t testing.TB, h hashutil.SplitXOR, pos []int64, memberK uint) ([]byte, int, int64, uint) {
	hashed := make([]int64, len(pos))
	for i, p := range pos {
		hashed[i] = int64(h.Hash(uint64(p)))
	}
	slices.Sort(hashed)
	set := slices.Compact(hashed)
	if _, err := cbitmap.FromPositions(h.Range(), set); err != nil {
		t.Fatal(err)
	}
	k := oracleOrder(set, hashedOrder(h.LowBits, int64(len(set)), memberK))
	w := encodeAtOrder(set, k)
	return w.Bytes(), w.Len(), int64(len(set)), k
}

// FuzzHashedSetEncode drives every path of hashedSet — bitset, small-sort and
// the dispatcher — on arbitrary position multisets and requires the oracle's
// bytes and cardinality from each.
func FuzzHashedSetEncode(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 1, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, uint16(1))
	f.Add(int64(42), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(300))
	f.Add(int64(7), []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte, repeat uint16) {
		// Positions: 4-byte words of raw (duplicates welcome), then `repeat`
		// pseudo-random ones (its low 11 bits) so the fuzzer reaches sizes
		// above the cutover without a corpus entry of that many bytes; the
		// member's order is repeat's high 5 bits.
		var pos []int64
		for ; len(raw) >= 4; raw = raw[4:] {
			pos = append(pos, int64(raw[0])<<24|int64(raw[1])<<16|int64(raw[2])<<8|int64(raw[3]))
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(repeat%2048); i++ {
			pos = append(pos, rng.Int63n(1<<22))
		}
		var hs hashedSet
		for j := 1; j <= maxHashedJ; j++ {
			h := hashutil.NewSplitXOR(rng, 1<<uint(j))
			memberK := uint(repeat >> 11)
			wantBytes, wantBits, wantCard, wantK := hashedSetOracle(t, h, pos, memberK)
			paths := map[string]func(*cbitmap.StreamEncoder, hashutil.SplitXOR, []int64, uint) (uint, error){
				"dispatch": hs.encode,
				"small":    hs.encodeSmall,
				"bitset":   hs.encodeBitset,
			}
			for name, encode := range paths {
				w := bitio.NewWriter(0)
				var enc cbitmap.StreamEncoder
				enc.Init(w)
				k, err := encode(&enc, h, pos, memberK)
				if err != nil {
					t.Fatalf("j=%d %s: %v", j, name, err)
				}
				if enc.Card() != wantCard || w.Len() != wantBits || k != wantK || !bytes.Equal(w.Bytes(), wantBytes) {
					t.Fatalf("j=%d %s: %d rows → card %d in %d bits at order %d, oracle card %d in %d bits at %d (or bytes differ)",
						j, name, len(pos), enc.Card(), w.Len(), k, wantCard, wantBits, wantK)
				}
			}
		}
	})
}

// TestBuildApproxAllocs gates the build's allocation count at a tenth of the
// member-at-a-time reference's (which allocated per member and per sort).
func TestBuildApproxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	col := workload.Zipf(1<<16, 1024, 1.1, 42)
	opts := ApproxOptions{Seed: 42}
	build := func(fn func(*iomodel.Disk, workload.Column, ApproxOptions) (*Approx, error)) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := fn(iomodel.NewDisk(iomodel.Config{BlockBits: 2048}), col, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	got, ref := build(BuildApprox), build(buildApproxReference)
	t.Logf("allocs/op at n = 65536: BuildApprox %.0f, reference %.0f", got, ref)
	if got > ref/10 {
		t.Fatalf("BuildApprox allocates %.0f/op, want <= 10%% of the reference's %.0f/op", got, ref)
	}
}

var hashedSeed = flag.Int64("hashed.seed", 42, "seed of the hypotheses/sortfree-build sweeps' columns and members")

// BenchmarkHashedSetPaths forces each hashedSet path on members of a fixed
// size drawn from a 2^19-row universe — the sweep behind bitsetMinRows
// (j = 4: bitset against small-sort); see hypotheses/sortfree-build.
func BenchmarkHashedSetPaths(b *testing.B) {
	const n, perIter, j = 1 << 19, 1 << 14, maxHashedJ
	rng := rand.New(rand.NewSource(*hashedSeed))
	var hs hashedSet
	h := hashutil.NewSplitXOR(rng, 1<<uint(j))
	paths := []struct {
		name   string
		encode func(*cbitmap.StreamEncoder, hashutil.SplitXOR, []int64, uint) (uint, error)
	}{{"small", hs.encodeSmall}, {"bitset", hs.encodeBitset}}
	for _, rows := range []int{2, 4, 8, 16, 24, 32, 48, 64, 80, 96, 128, 160, 192, 256, 512, 1024} {
		members := make([][]int64, perIter/rows)
		for i := range members {
			set := map[int64]struct{}{}
			for len(set) < rows {
				set[rng.Int63n(n)] = struct{}{}
			}
			for p := range set {
				members[i] = append(members[i], p)
			}
			slices.Sort(members[i])
		}
		for _, p := range paths {
			b.Run(fmt.Sprintf("j=%d/rows=%d/%s", j, rows, p.name), func(b *testing.B) {
				w := bitio.NewWriter(1 << 20)
				var enc cbitmap.StreamEncoder
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.Reset()
					for _, m := range members {
						enc.Init(w)
						// The members are spread: the spread order applies.
						if _, err := p.encode(&enc, h, m, gamma.MaxOrder); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(members)*rows), "ns/row")
			})
		}
	}
}

// BenchmarkBuildApproxPaths builds the same zipf column through the sort-free
// BuildApprox and through the member-at-a-time reference, n = 2^14 … 2^21
// (sweep 1 of hypotheses/sortfree-build: ns/row against n, both arms).
func BenchmarkBuildApproxPaths(b *testing.B) {
	builds := []struct {
		name string
		fn   func(*iomodel.Disk, workload.Column, ApproxOptions) (*Approx, error)
	}{{"reference", buildApproxReference}, {"sortfree", BuildApprox}}
	for lg := 14; lg <= 21; lg++ {
		n := 1 << uint(lg)
		col := workload.Zipf(n, 1024, 1.1, *hashedSeed)
		for _, bl := range builds {
			b.Run(fmt.Sprintf("n=2^%d/%s", lg, bl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bl.fn(iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), col, ApproxOptions{Seed: 42}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
			})
		}
	}
}

// oracleOrder is k if the order-k code of pos is shorter than its gamma code,
// else 0: the choice every hashed set makes.
func oracleOrder(pos []int64, k uint) uint {
	if encodeAtOrder(pos, k).Len() < encodeAtOrder(pos, 0).Len() {
		return k
	}
	return 0
}

// encodeAtOrder codes the strictly increasing positions pos as a gap stream
// at exp-Golomb order k, one gamma.WriteK at a time: the encoders' oracle.
func encodeAtOrder(pos []int64, k uint) *bitio.Writer {
	w := bitio.NewWriter(0)
	prev := int64(-1)
	for _, p := range pos {
		gamma.WriteK(w, uint64(p-prev), k)
		prev = p
	}
	return w
}
