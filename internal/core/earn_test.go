package core

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

var earnCensus = flag.Bool("core.earn", false, "print the dropped-set census behind hypotheses/hashed-earn")

// benchColumn is a zipf column relabelled as the benchmark lays its keys
// out (benchmark/gen.go, canonicalize): the k-th most frequent character
// becomes the k-th entry of one fixed permutation of the alphabet.
func benchColumn(n, sigma int, theta float64, seed int64) workload.Column {
	col := workload.Zipf(n, sigma, theta, seed)
	freq := make([]int, sigma)
	for _, v := range col.X {
		freq[v]++
	}
	order := make([]int, sigma)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return freq[order[a]] > freq[order[b]] })
	lay := rand.New(rand.NewSource(0x5ec1d8)).Perm(sigma)
	relabel := make([]uint32, sigma)
	for k, v := range order {
		relabel[v] = uint32(lay[k])
	}
	for i, v := range col.X {
		col.X[i] = relabel[v]
	}
	return col
}

// TestHashedEarnCensus prints, per column shape, what a build stores and
// drops at each j: the sets shorter than their exact members and their bits
// per row, and the sets that are not and their priced bits per row. Against
// the reference that stores every reachable set (revision 2's image), it
// asks ranges of 1 to 256 characters at ε = 1/2, 1/16 and 1/256 and prints,
// per ε, how many answers are hashed, how many of those have a dropped set
// in their cover, and the bits all answers read, before and after. Every
// answer must be the reference's, reading no more bits. It also counts the
// exact answers a frontier that priced each dropped set at its exact
// member, what a query reads for it, would have turned hashed, and the bits
// that would have saved. Skipped without -core.earn.
func TestHashedEarnCensus(t *testing.T) {
	if !*earnCensus {
		t.Skip("census: run with -core.earn")
	}
	shapes := []struct {
		name string
		col  workload.Column
		bb   int
	}{
		{"point-pread", benchColumn(1<<19, 1024, 1.0, 3101), 32768},
		{"zipf-1.1", workload.Zipf(66000, 256, 1.1, 50), 2048},
		{"uniform-2^16", workload.Uniform(1<<16, 256, 42), 32768},
		{"uniform-2^17", workload.Uniform(1<<17, 256, 42), 32768},
		{"uniform-2^20", workload.Uniform(1<<20, 256, 42), 32768},
		{"runs-64", workload.Runs(1<<17, 256, 64, 42), 32768},
	}
	for _, sh := range shapes {
		opts := ApproxOptions{}
		ax, err := BuildApprox(iomodel.NewDisk(iomodel.Config{BlockBits: sh.bb}), sh.col, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := buildApproxReferenceK(iomodel.NewDisk(iomodel.Config{BlockBits: sh.bb}), sh.col, opts, maxJ, 2)
		if err != nil {
			t.Fatal(err)
		}
		for li := range ref.hmaps {
			for j := range ref.hmaps[li].perJ {
				ref.hmaps[li].perJ[j].priced = nil // its directory as revision 2 codes it
			}
		}
		n := float64(sh.col.Len())
		line := fmt.Sprintf("earn shape=%s n=%d sigma=%d k=%d", sh.name, sh.col.Len(), sh.col.Sigma, ax.k)
		for j := range ax.k {
			var stored, dropped int
			var storedBits, pricedBits int64
			for li := range ax.hmaps {
				arr := &ax.hmaps[li].perJ[j]
				for i := range arr.cards {
					switch {
					case arr.stored(i):
						stored++
						storedBits += arr.exts[i].Bits
					case arr.dropped(i):
						dropped++
						pricedBits += arr.priced[i]
					}
				}
			}
			line += fmt.Sprintf(" h_%d=%d:%.2f/%d:%.2f", j+1, stored, float64(storedBits)/n, dropped, float64(pricedBits)/n)
		}
		fmt.Printf("%s size_before=%.2f size=%.2f\n", line, float64(ref.SizeBits())/n, float64(ax.SizeBits())/n)
		for _, eps := range []float64{1.0 / 2, 1.0 / 16, 1.0 / 256} {
			var answers, hashed, withDropped, flips int
			var before, after, flipSaved int64
			for _, length := range []int{1, 4, 16, 64, 256} {
				for _, q := range workload.RandomRanges(64, sh.col.Sigma, length, int64(length)) {
					r := index.Range{Lo: q.Lo, Hi: q.Hi}
					got, gst, err := ax.ApproxQuery(r, eps)
					if err != nil {
						t.Fatal(err)
					}
					want, wst, err := ref.ApproxQuery(r, eps)
					if err != nil {
						t.Fatal(err)
					}
					if err := sameApproxAnswer(got, want); err != nil || gst.BitsRead > wst.BitsRead {
						t.Fatalf("%s [%d,%d] eps=%g: %v; %d bits read, reference %d", sh.name, q.Lo, q.Hi, eps, err, gst.BitsRead, wst.BitsRead)
					}
					answers++
					before += wst.BitsRead
					after += gst.BitsRead
					if got.IsExact() {
						if saved := flipSaving(t, ax, r, eps); saved > 0 {
							flips++
							flipSaved += saved
						}
						continue
					}
					hashed++
					if _, dropped := coverSets(t, ax, r, got.J); dropped > 0 {
						withDropped++
					}
				}
			}
			fmt.Printf("earn shape=%s eps=%g answers=%d hashed=%d dropped_in_cover=%d bits_before=%d bits_after=%d (%+.3f%%) flips_if_priced_exact=%d saving %.3f%%\n",
				sh.name, eps, answers, hashed, withDropped, before, after, 100*float64(after-before)/float64(before), flips, 100*float64(flipSaved)/float64(after))
		}
	}
}

// coverSets counts the sets at j that ax stores and drops among the members
// of r's cover.
func coverSets(t *testing.T, ax *Approx, r index.Range, j int) (stored, dropped int) {
	t.Helper()
	var plan QueryPlan
	qlo, qhi := ax.tree.RecordRange(r.Lo, r.Hi)
	if err := ax.planCover(qlo, qhi, &plan); err != nil {
		t.Fatal(err)
	}
	for _, c := range plan.Chunks {
		arr := &ax.hmaps[c.Level].perJ[j-1]
		for i := c.I; i < c.J; i++ {
			if arr.dropped(i) {
				dropped++
			} else if arr.stored(i) {
				stored++
			}
		}
	}
	return stored, dropped
}

// flipSaving returns, for an exact answer to r at eps, the bits a hashed
// answer would have saved had the frontier priced each dropped set at its
// exact member, when that pricing makes the hashed frontier the shorter one;
// else 0.
func flipSaving(t *testing.T, ax *Approx, r index.Range, eps float64) int64 {
	t.Helper()
	qlo, qhi := ax.tree.RecordRange(r.Lo, r.Hi)
	j := 0
	for jj := 1; jj <= ax.k && qhi > qlo; jj++ {
		if math.Exp2(float64(int64(1)<<uint(jj))) > float64(qhi-qlo)/eps {
			j = jj
			break
		}
	}
	if j == 0 {
		return 0
	}
	var plan QueryPlan
	if err := ax.planCover(qlo, qhi, &plan); err != nil {
		t.Fatal(err)
	}
	exact, _ := ax.frontierBits(plan.Chunks, j)
	var read int64
	for _, c := range plan.Chunks {
		arr := &ax.hmaps[c.Level].perJ[j-1]
		for i := c.I; i < c.J; i++ {
			if arr.dropped(i) {
				read += ax.levels[c.Level].members[i].ext.Bits
			} else {
				read += arr.exts[i].Bits
			}
		}
	}
	return max(exact-read, 0)
}
