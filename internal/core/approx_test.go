package core

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

func TestApproxNoFalseNegatives(t *testing.T) {
	col := workload.Uniform(1<<14, 256, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.RandomRanges(10, 256, 4, 2) {
		res, _, err := ax.ApproxQuery(index.Range{Lo: q.Lo, Hi: q.Hi}, 1.0/64)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range workload.BruteForce(col, q) {
			if !res.Contains(p) {
				t.Fatalf("[%d,%d]: false negative at %d", q.Lo, q.Hi, p)
			}
		}
	}
}

func TestApproxFalsePositiveRate(t *testing.T) {
	// z ≈ 64 and ε = 1/128 need the 2^16 universe, which an index keeps
	// only above 2^16 rows (maxJ). One character's frontier is pruned leaves,
	// gamma-coded like the hashed sets, so the hashed level reads fewer bits;
	// ranges wider than that reach internal members, whose exp-Golomb orders
	// make the exact frontier the smaller one.
	const sigma = 2048
	col := workload.Uniform(1<<17, sigma, 3)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0 / 128
	var fp, nonMembers int64
	for _, q := range workload.RandomRanges(5, sigma, 1, 4) {
		res, _, err := ax.ApproxQuery(index.Range{Lo: q.Lo, Hi: q.Hi}, eps)
		if err != nil {
			t.Fatal(err)
		}
		if res.IsExact() {
			continue // small z can force exactness; no FPs there
		}
		truth := map[int64]bool{}
		for _, p := range workload.BruteForce(col, q) {
			truth[p] = true
		}
		member := res.memberFn()
		for i := int64(0); i < int64(col.Len()); i++ {
			if truth[i] {
				continue
			}
			nonMembers++
			if member(i) {
				fp++
			}
		}
	}
	if nonMembers == 0 {
		t.Fatal("all queries fell back to exact")
	}
	rate := float64(fp) / float64(nonMembers)
	// Multiply-shift is 2-approximately universal; allow 4x + noise.
	if rate > 6*eps {
		t.Fatalf("false positive rate %v >> eps %v", rate, eps)
	}
}

func TestApproxReadsFewerBitsThanExact(t *testing.T) {
	// Theorem 3: O(z lg 1/eps) vs O(z lg(n/z)) bits. The saving appears
	// when an intermediate hashed level fits, i.e. z/eps <= 2^(2^j) with
	// 2^(2^j) well below n: here z ~ n*2/sigma = 32, eps = 1/4 gives
	// z/eps = 128 < 256 = 2^(2^3), against an exact cost of z*lg(n/z) ~
	// z*10 bits.
	col := workload.Uniform(1<<15, 2048, 5)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r := index.Range{Lo: 8, Hi: 9} // z ~ 32
	exact, exactStats, err := ax.Query(r)
	if err != nil {
		t.Fatal(err)
	}
	res, approxStats, err := ax.ApproxQuery(r, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.IsExact() {
		t.Fatal("expected a hashed result for large z and eps=0.25")
	}
	if approxStats.BitsRead >= exactStats.BitsRead {
		t.Fatalf("approx read %d bits, exact %d", approxStats.BitsRead, exactStats.BitsRead)
	}
	// And it must still contain all true members.
	it := exact.Iter()
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		if !res.Contains(p) {
			t.Fatalf("false negative at %d", p)
		}
	}
}

func TestApproxTinyEpsFallsBackToExact(t *testing.T) {
	col := workload.Uniform(1<<12, 64, 6)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ax.ApproxQuery(index.Range{Lo: 0, Hi: 31}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsExact() {
		t.Fatal("eps=1e-9 should force the exact path")
	}
	want := workload.BruteForce(col, workload.RangeQuery{Lo: 0, Hi: 31})
	if res.Exact.Card() != int64(len(want)) {
		t.Fatalf("exact fallback wrong: %d vs %d", res.Exact.Card(), len(want))
	}
}

func TestApproxCandidates(t *testing.T) {
	col := workload.Uniform(1<<12, 256, 8)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	q := workload.RangeQuery{Lo: 10, Hi: 12}
	res, _, err := ax.ApproxQuery(index.Range{Lo: q.Lo, Hi: q.Hi}, 0.125)
	if err != nil {
		t.Fatal(err)
	}
	cand, err := res.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if cand.Card() != res.CandidateCount() {
		t.Fatalf("CandidateCount %d != materialised %d", res.CandidateCount(), cand.Card())
	}
	truth := workload.BruteForce(col, q)
	for _, p := range truth {
		if !cand.Contains(p) {
			t.Fatalf("candidate set misses true member %d", p)
		}
	}
	// Superset size must be bounded: z + ~eps*n (slack 6x).
	zn := float64(len(truth)) + 6*0.125*float64(col.Len())
	if float64(cand.Card()) > zn {
		t.Fatalf("candidate count %d above bound %f", cand.Card(), zn)
	}
}

func TestIntersectSameJ(t *testing.T) {
	// Two columns over the same rows, same hash seed: intersection of
	// results has no false negatives for rows matching both.
	n := 1 << 13
	colA := workload.Uniform(n, 64, 20)
	colB := workload.Uniform(n, 64, 21)
	dA := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	dB := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	axA, err := BuildApprox(dA, colA, ApproxOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	axB, err := BuildApprox(dB, colB, ApproxOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	qA := workload.RangeQuery{Lo: 0, Hi: 15}
	qB := workload.RangeQuery{Lo: 16, Hi: 31}
	resA, _, err := axA.ApproxQuery(index.Range{Lo: qA.Lo, Hi: qA.Hi}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	resB, _, err := axB.ApproxQuery(index.Range{Lo: qB.Lo, Hi: qB.Hi}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	both, err := Intersect(resA, resB)
	if err != nil {
		t.Fatal(err)
	}
	truthA := map[int64]bool{}
	for _, p := range workload.BruteForce(colA, qA) {
		truthA[p] = true
	}
	var inBoth int64
	for _, p := range workload.BruteForce(colB, qB) {
		if truthA[p] {
			inBoth++
			if !both.Contains(p) {
				t.Fatalf("intersection misses true member %d", p)
			}
		}
	}
	// FPR of the intersection should be ~eps^2 per element: candidate count
	// near the truth.
	if cc := both.CandidateCount(); float64(cc) > float64(inBoth)+6*0.25*0.25*float64(n)+16 {
		t.Fatalf("intersection candidates %d, true %d", cc, inBoth)
	}
}

func TestIntersectMixedExactAndApprox(t *testing.T) {
	// z ≈ 512 at ε = 1/4 fits the 2^16 universe, kept only above 2^16 rows;
	// one character's frontier is gamma-coded leaves, which the hashed sets
	// undercut (a wider range reaches internal members, whose exp-Golomb
	// orders undercut the hashed sets instead).
	n := 1 << 17
	colA := workload.Uniform(n, 256, 30)
	colB := workload.Uniform(n, 256, 31)
	dA := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	dB := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	axA, err := BuildApprox(dA, colA, ApproxOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	axB, err := BuildApprox(dB, colB, ApproxOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	exactRes, _, err := axA.ApproxQuery(index.Range{Lo: 0, Hi: 7}, 1e-9) // exact
	if err != nil {
		t.Fatal(err)
	}
	hashRes, _, err := axB.ApproxQuery(index.Range{Lo: 0, Hi: 0}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if exactRes.IsExact() == hashRes.IsExact() {
		t.Fatal("expected one exact and one hashed result")
	}
	both, err := Intersect(exactRes, hashRes)
	if err != nil {
		t.Fatal(err)
	}
	truthB := map[int64]bool{}
	for _, p := range workload.BruteForce(colB, workload.RangeQuery{Lo: 0, Hi: 0}) {
		truthB[p] = true
	}
	for _, p := range workload.BruteForce(colA, workload.RangeQuery{Lo: 0, Hi: 7}) {
		if truthB[p] && !both.Contains(p) {
			t.Fatalf("mixed intersection misses %d", p)
		}
	}
}

func TestIntersectErrors(t *testing.T) {
	if _, err := Intersect(); err == nil {
		t.Fatal("empty intersect accepted")
	}
	a := &Result{N: 10}
	b := &Result{N: 20}
	if _, err := Intersect(a, b); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

func TestApproxInvalidEps(t *testing.T) {
	col := workload.Uniform(256, 8, 40)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ax, err := BuildApprox(d, col, ApproxOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, 1, -0.5, 2, math.NaN()} {
		if _, _, err := ax.ApproxQuery(index.Range{Lo: 0, Hi: 3}, eps); err == nil {
			t.Fatalf("eps=%v accepted", eps)
		}
	}
}

// TestMaxJ pins k = ⌊lg lg n⌋: the greatest j <= 4 with 2^(2^j) < n. Rewritten
// for ISSUE 16 (before it, maxJ was the least k with 2^(2^k) >= n: 2^20 -> 5,
// 2^15 -> 4).
func TestMaxJ(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want int
	}{
		{1 << 20, 4}, // 2^16 < 2^20; the 2^32 universe exceeds [n]
		{1 << 16, 3}, // the 2^16 universe equals [n]: nothing to save
		{1<<16 + 1, 4},
		{1 << 17, 4},
		{1 << 15, 3},
		{257, 3},
		{256, 2},
		{17, 2},
		{16, 1},
		{5, 1},
		// n <= 4: no universe is below n, the index is exact-only.
		{4, 0},
		{1, 0},
		// Capped: level 5 would need n > 2^32 and the encoder stops at 2^16.
		{1 << 33, maxHashedJ},
		{1 << 40, maxHashedJ},
	} {
		if k := maxJ(tc.n); k != tc.want {
			t.Errorf("maxJ(%d) = %d, want %d", tc.n, k, tc.want)
		}
		if k := maxJ(tc.n); k > 0 && int64(1)<<(1<<uint(k)) >= tc.n {
			t.Errorf("maxJ(%d) = %d keeps a universe >= n", tc.n, k)
		}
	}
}

// TestApproxNeverReadsUselessLevel sweeps n, z and ε: a hashed answer always
// comes from a universe below n, and it never reads more bits than the exact
// answer to the same range — the property the level-5 (and, below 2^16 rows,
// level-4) sets that maxJ used to keep violated (E5 printed 1.03x).
func TestApproxNeverReadsUselessLevel(t *testing.T) {
	lgs := []uint{8, 10, 12, 14, 15, 16, 17, 18}
	if !testing.Short() {
		lgs = append(lgs, 20)
	}
	for _, lg := range lgs {
		n := 1 << lg
		sigma := min(1024, n/8)
		for ci, col := range []workload.Column{
			workload.Uniform(n, sigma, int64(lg)),
			workload.Zipf(n, sigma, 1.0, int64(lg)),
		} {
			ax, err := BuildApprox(iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), col, ApproxOptions{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if univ := int64(1) << (1 << uint(ax.K())); univ >= int64(n) {
				t.Fatalf("n=2^%d: K() = %d stores universe %d >= n", lg, ax.K(), univ)
			}
			hashed := 0
			for _, length := range []int{1, 2, 8, 64} {
				for _, q := range workload.RandomRanges(6, sigma, length, int64(ci)+7) {
					r := index.Range{Lo: q.Lo, Hi: q.Hi}
					exact, est, err := ax.Query(r)
					if err != nil {
						t.Fatal(err)
					}
					for _, eps := range []float64{0.5, 0.25, 1.0 / 16, 1.0 / 256, 1.0 / 65536, 1e-9} {
						res, st, err := ax.ApproxQuery(r, eps)
						if err != nil {
							t.Fatal(err)
						}
						if st.BitsRead > est.BitsRead {
							t.Errorf("n=2^%d col %d [%d,%d] z=%d eps=%g: j=%d read %d bits, exact reads %d",
								lg, ci, q.Lo, q.Hi, exact.Card(), eps, res.J, st.BitsRead, est.BitsRead)
						}
						if res.IsExact() {
							// The fallback runs in the query's own session: it
							// costs exactly what Query does, block reads included.
							if st != est {
								t.Errorf("n=2^%d [%d,%d] eps=%g: exact fallback stats %+v, Query's %+v", lg, q.Lo, q.Hi, eps, st, est)
							}
							continue
						}
						hashed++
						if univ := res.Set.Universe(); res.J > ax.K() || univ >= int64(n) {
							t.Errorf("n=2^%d [%d,%d] eps=%g: answered from j=%d, universe %d >= n", lg, q.Lo, q.Hi, eps, res.J, univ)
						}
					}
				}
			}
			if hashed == 0 && ax.K() > 0 {
				t.Errorf("n=2^%d col %d: no query took a hashed level", lg, ci)
			}
		}
	}
}

var droppedSweep = flag.Bool("dropped.sweep", false, "run TestDroppedLevelSavesNothing over every n of hypotheses/useless-hashed-level")

// TestDroppedLevelSavesNothing is the devil's-advocate check behind maxJ: lay
// down the level maxJ no longer keeps (legacyMaxJ: the one whose universe is
// >= n) and price its frontier against the exact one, from the directory, for
// many ranges. In total it never reads fewer bits. Range by range it can when
// the universe equals n exactly (n = 2^8, 2^16): the hash is then position XOR
// a constant, a permutation of [n] that shortens some gap codes and lengthens
// others; the log lines carry the counts (hypotheses/useless-hashed-level).
func TestDroppedLevelSavesNothing(t *testing.T) {
	lgs := []uint{8, 15, 16}
	if *droppedSweep {
		lgs = []uint{8, 10, 12, 14, 15, 16, 17, 18, 19}
	}
	for _, lg := range lgs {
		n := 1 << lg
		sigma := min(1024, n/8)
		for _, c := range []struct {
			name string
			col  workload.Column
		}{
			{"uniform", workload.Uniform(n, sigma, int64(lg))},
			{"zipf", workload.Zipf(n, sigma, 1.0, int64(lg))},
			{"runs", workload.Runs(n, sigma, 20, int64(lg))},
		} {
			legacy, err := buildApproxReferenceK(iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), c.col, ApproxOptions{Seed: 42}, legacyMaxJ, 0)
			if err != nil {
				t.Fatal(err)
			}
			if *droppedSweep && c.name == "zipf" {
				logLedgerBeforeAfter(t, lg, legacy.SpaceLedger())
			}
			// The level below the dropped one is the deepest maxJ keeps: its
			// line shows how often the directory check in ApproxQueryContext
			// turns a query away from it (universe within a factor 2 of n).
			for _, j := range []int{legacy.k - 1, legacy.k} {
				var queries, fewer int
				var exact, hashed int64
				minRatio := math.Inf(1)
				for _, length := range []int{1, 2, 8, 64} {
					for _, q := range workload.RandomRanges(200, sigma, length, 7) {
						qlo, qhi := legacy.tree.RecordRange(q.Lo, q.Hi)
						if qlo >= qhi {
							continue
						}
						e, h, err := legacy.frontierBitsOf(qlo, qhi, j)
						if err != nil {
							t.Fatal(err)
						}
						queries++
						exact += e
						hashed += h
						if h < e {
							fewer++
						}
						minRatio = min(minRatio, float64(h)/float64(e))
					}
				}
				what := "kept   "
				if j == legacy.k {
					what = "dropped"
				}
				t.Logf("n=2^%d %-7s %s j=%d (universe 2^%d): %d of %d ranges read fewer bits than exact (least %.3fx), all together %.4fx",
					lg, c.name, what, j, 1<<uint(j), fewer, queries, minRatio, float64(hashed)/float64(exact))
				if j == legacy.k && hashed < exact {
					t.Errorf("n=2^%d %s: the dropped level reads %d bits over the sweep, exact %d", lg, c.name, hashed, exact)
				}
			}
		}
	}
}

// frontierBitsOf prices the frontiers of the record range [qlo,qhi) the way
// ApproxQueryContext does: plan its cover, then read the directory.
func (ax *Approx) frontierBitsOf(qlo, qhi int64, j int) (exact, hashed int64, err error) {
	var plan QueryPlan
	if err := ax.coverChunks(qlo, qhi, &plan); err != nil {
		return 0, 0, err
	}
	exact, hashed = ax.frontierBits(plan.Chunks, j)
	return exact, hashed, nil
}

// logLedgerBeforeAfter prints the space ledger of an index that still stores
// the dropped level, and what is left without it, in bits per row.
func logLedgerBeforeAfter(t *testing.T, lg uint, l SpaceLedger) {
	perRow := func(bits int64) float64 { return float64(bits) / float64(l.Rows) }
	var droppedBits int64
	for _, lv := range l.Levels {
		line := fmt.Sprintf("ledger n=2^%d depth %d (%d members): exact %.2f, hashed", lg, lv.Depth, lv.Members, perRow(lv.ExactBits))
		for _, b := range lv.HashedBits {
			line += fmt.Sprintf(" %.2f", perRow(b))
		}
		t.Log(line)
		droppedBits += lv.HashedBits[len(lv.HashedBits)-1]
	}
	exact, hashed := l.PayloadBits()
	t.Logf("ledger n=2^%d H0 %.2f: exact %.2f, hashed %.2f -> %.2f, A %.2f, padding %.2f, layout %.2f, image %.2f -> %.2f bits/row",
		lg, l.H0, perRow(exact), perRow(hashed), perRow(hashed-droppedBits), perRow(l.PrefixBits), perRow(l.PadBits),
		perRow(l.LayoutBits), perRow(l.ImageBits), perRow(l.ImageBits-droppedBits))
}
