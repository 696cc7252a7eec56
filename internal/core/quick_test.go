package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// TestQuickOptimalMatchesBruteForce is the central property test: for
// arbitrary small columns and arbitrary ranges, the Theorem 2 structure and
// a linear scan agree exactly.
func TestQuickOptimalMatchesBruteForce(t *testing.T) {
	f := func(raw []uint8, sigmaSeed uint8, loSeed, hiSeed uint16) bool {
		if len(raw) == 0 {
			return true
		}
		sigma := int(sigmaSeed%100) + 2
		col := workload.Column{X: make([]uint32, len(raw)), Sigma: sigma}
		for i, v := range raw {
			col.X[i] = uint32(int(v) % sigma)
		}
		lo := uint32(int(loSeed) % sigma)
		hi := lo + uint32(int(hiSeed)%(sigma-int(lo)))
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
		ix, err := BuildOptimalDefault(d, col)
		if err != nil {
			return false
		}
		got, _, err := ix.Query(index.Range{Lo: lo, Hi: hi})
		if err != nil {
			return false
		}
		want := workload.BruteForce(col, workload.RangeQuery{Lo: lo, Hi: hi})
		gp := got.Positions()
		if len(gp) != len(want) {
			return false
		}
		for i := range want {
			if gp[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTreeInvariants: BuildTree's structural invariants hold for
// arbitrary columns.
func TestQuickTreeInvariants(t *testing.T) {
	f := func(raw []uint8, sigmaSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sigma := int(sigmaSeed%60) + 1
		col := workload.Column{X: make([]uint32, len(raw)), Sigma: sigma}
		for i, v := range raw {
			col.X[i] = uint32(int(v) % sigma)
		}
		tr, err := BuildTree(col, DefaultBranching)
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickApproxNeverFalseNegative: for arbitrary columns, ranges and
// epsilons, every true match is admitted by the approximate result.
func TestQuickApproxNeverFalseNegative(t *testing.T) {
	f := func(raw []uint8, epsSeed uint8, loSeed uint16) bool {
		if len(raw) < 4 {
			return true
		}
		sigma := 64
		col := workload.Column{X: make([]uint32, len(raw)), Sigma: sigma}
		for i, v := range raw {
			col.X[i] = uint32(int(v) % sigma)
		}
		eps := 1.0 / float64(2+int(epsSeed)%250)
		lo := uint32(int(loSeed) % (sigma - 2))
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
		ax, err := BuildApprox(d, col, ApproxOptions{Seed: int64(epsSeed)})
		if err != nil {
			return false
		}
		res, _, err := ax.ApproxQuery(index.Range{Lo: lo, Hi: lo + 2}, eps)
		if err != nil {
			return false
		}
		for _, p := range workload.BruteForce(col, workload.RangeQuery{Lo: lo, Hi: lo + 2}) {
			if !res.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicEquivalentToRebuild: after an arbitrary update sequence the
// Dynamic structure answers exactly like a fresh structure built from the
// final string.
func TestDynamicEquivalentToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		n := 200 + rng.Intn(800)
		sigma := 4 + rng.Intn(24)
		col := workload.Uniform(n, sigma, int64(trial))
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		dx, err := BuildDynamic(d, col, DynamicOptions{})
		if err != nil {
			t.Fatal(err)
		}
		x := append([]uint32(nil), col.X...)
		for step := 0; step < n/4; step++ {
			i := rng.Int63n(int64(len(x)))
			ch := uint32(rng.Intn(sigma))
			if x[i] == uint32(sigma) { // deleted marker in the mirror
				continue
			}
			if rng.Intn(5) == 0 {
				dx.Delete(i)
				x[i] = uint32(sigma)
			} else {
				dx.Change(i, ch)
				x[i] = ch
			}
		}
		// Fresh structure from the surviving rows (deleted rows become the
		// mirror's sentinel; build over sigma+1 alphabet to hold them, then
		// query only [0,sigma-1]).
		freshCol := workload.Column{X: x, Sigma: sigma + 1}
		d2 := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		fresh, err := BuildOptimalDefault(d2, freshCol)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			lo := uint32(rng.Intn(sigma))
			hi := lo + uint32(rng.Intn(sigma-int(lo)))
			a, _, err := dx.Query(index.Range{Lo: lo, Hi: hi})
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := fresh.Query(index.Range{Lo: lo, Hi: hi})
			if err != nil {
				t.Fatal(err)
			}
			ap, bp := a.Positions(), b.Positions()
			if len(ap) != len(bp) {
				t.Fatalf("trial %d [%d,%d]: %d vs %d results", trial, lo, hi, len(ap), len(bp))
			}
			for i := range ap {
				if ap[i] != bp[i] {
					t.Fatalf("trial %d [%d,%d]: mismatch at %d", trial, lo, hi, i)
				}
			}
		}
	}
}

// TestQuickWarmupEqualsOptimal: the two static structures always agree.
func TestQuickWarmupEqualsOptimal(t *testing.T) {
	f := func(raw []uint8, loSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sigma := 32
		col := workload.Column{X: make([]uint32, len(raw)), Sigma: sigma}
		for i, v := range raw {
			col.X[i] = uint32(int(v) % sigma)
		}
		lo := uint32(loSeed) % 30
		d1 := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
		d2 := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
		wx, err1 := BuildWarmup(d1, col)
		ox, err2 := BuildOptimalDefault(d2, col)
		if err1 != nil || err2 != nil {
			return false
		}
		r := index.Range{Lo: lo, Hi: lo + 2}
		a, _, err1 := wx.Query(r)
		b, _, err2 := ox.Query(r)
		if err1 != nil || err2 != nil {
			return false
		}
		ap, bp := a.Positions(), b.Positions()
		if len(ap) != len(bp) {
			return false
		}
		for i := range ap {
			if ap[i] != bp[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
