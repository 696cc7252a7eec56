package core

import (
	"flag"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

var dynSessionCensus = flag.Bool("core.dynsession", false, "print the dynamic-query block census behind hypotheses/dynamic-one-session")

// TestDynamicSessionCensus prints, for the queries of the root package's
// BenchmarkIndexQuery/dynamic (9-key ranges over 2^14 rows after 4 096
// appends, changes and deletes), the blocks charged per query by one session
// per bin (the per-bin point queries Dynamic.Query ran before it read in one
// session), by the reference point queries sharing one session (the
// prediction: the session dedup alone), and by Query itself, beside the
// structure's stated cost summed over the query's runs of bins: for each run,
// the buffers on one root-to-leaf path, plus the run's leaf blocks. The means
// are over the benchmark's 2 000 iterations. Single-key ranges are the
// vanishing point: one bin per run, nothing shared. That Query charges the
// prediction is TestDynamicQueryStreamDifferential's check; the census fails
// on a query that does not.
func TestDynamicSessionCensus(t *testing.T) {
	if !*dynSessionCensus {
		t.Skip("needs -core.dynsession; see hypotheses/dynamic-one-session/run.sh")
	}
	n := 1 << 16
	rng := rand.New(rand.NewSource(23))
	col := make([]uint32, n)
	for i := range col {
		col[i] = uint32(rng.Intn(512))
	}
	queries := make([]uint32, 256)
	for i := range queries {
		queries[i] = uint32(rng.Intn(500))
	}
	d := iomodel.NewDisk(iomodel.Config{})
	dx, err := BuildDynamic(d, workload.Column{X: col[:n/4], Sigma: 512}, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		switch i % 3 {
		case 0:
			_, err = dx.Append(queries[i%7])
		case 1:
			_, err = dx.Change(int64(i), queries[i%7])
		case 2:
			_, err = dx.Delete(int64(i))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	const iters = 2000
	for _, width := range []uint32{8, 0} { // the benchmark's ranges, then single keys
		var perBin, predicted, observed, bound, runs, bins, leafBlocks int
		for i := 0; i < iters; i++ {
			lo := queries[i%len(queries)]
			r := index.Range{Lo: lo, Hi: lo + width}
			_, st, err := dx.Query(r)
			if err != nil {
				t.Fatal(err)
			}
			_, ost, err := dx.QueryUnfused(r)
			if err != nil {
				t.Fatal(err)
			}
			if st.Reads != ost.Reads {
				t.Fatalf("query %d %v: %d blocks, the shared-session oracle %d", i, r, st.Reads, ost.Reads)
			}
			observed += st.Reads
			predicted += ost.Reads
			for _, run := range dx.censusRuns(r) {
				px := dx.points[run.level]
				runs++
				path, leaves := 0, 0
				for k := run.i; k < run.j; k++ {
					bins++
					tc := d.NewTouch()
					if _, err := px.pointQueryRef(tc, uint32(k), new(index.QueryStats)); err != nil {
						t.Fatal(err)
					}
					perBin += tc.Reads()
					tc.Close()
					p, l := px.pathAndLeaves(uint32(k))
					path, leaves = max(path, p), leaves+l
				}
				bound += path + leaves
				leafBlocks += leaves
			}
		}
		f := func(v int) float64 { return float64(v) / iters }
		t.Logf("dynsession keys %d iters %d runs/query %.2f bins/query %.2f leaves/query %.2f blocks/query per-bin-sessions %.2f predicted %.2f observed %.2f bound %.2f",
			width+1, iters, f(runs), f(bins), f(leafBlocks), f(perBin), f(predicted), f(observed), f(bound))
	}
}

// censusRun is one run of bins [i,j) of a level, as queryCharStreams groups
// the bins tiling a cover.
type censusRun struct{ level, i, j int }

// censusRuns lists the runs Query reads for r, both complement sides
// included.
func (dx *Dynamic) censusRuns(r index.Range) []censusRun {
	var z int64
	for a := r.Lo; a <= r.Hi; a++ {
		z += dx.counts[a]
	}
	var out []censusRun
	_ = collectSides(r, z > dx.n/2, uint32(dx.sigmaEff-1), func(lo, hi uint32) error {
		last := -1
		for _, u := range dx.cover(lo, hi, nil) {
			li := dx.levelForDepth(u.depth)
			i, j, err := tilesWithin(dx.members[li], li, u.lo, u.hi)
			if err != nil {
				return err
			}
			if li == last {
				out[len(out)-1].j = j
				continue
			}
			out, last = append(out, censusRun{li, i, j}), li
		}
		return nil
	})
	return out
}

// pathAndLeaves returns the buffers on the deepest root-to-leaf path the
// point query of ch walks, and the blocks of ch's leaves.
func (px *PointIndex) pathAndLeaves(ch uint32) (path, leaves int) {
	var walk func(nd *pnode, depth int)
	walk = func(nd *pnode, depth int) {
		if nd.leaf {
			if nd.ch == ch {
				leaves++
				path = max(path, depth)
			}
			return
		}
		for i := childFor(nd, pkey{ch, 0}); i <= childFor(nd, pkey{ch, pointUniverse - 1}); i++ {
			walk(nd.kids[i], depth+1)
		}
	}
	walk(px.root, 0)
	return path, leaves
}
