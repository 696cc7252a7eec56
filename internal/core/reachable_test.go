package core

import (
	"flag"
	"fmt"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// TestHashedSetsReachable: a build lists exactly the hashed sets
// hashedReachable keeps, storing those shorter than their exact members, and
// every approximate answer is the one the reference that stores every set
// gives — same form, level, function and set, and the same bits read, or
// fewer for a hashed answer whose cover holds a dropped set — built and
// reopened, on columns with common characters (zipf, uniform), clustered
// ones (runs of 64) and rare ones (σ = 4096, where sets at j = 1 and 2 stay
// reachable).
func TestHashedSetsReachable(t *testing.T) {
	n := 1 << 17 // k = 4: every hashed level
	if testing.Short() {
		n = 1 << 14
	}
	cols := []struct {
		name string
		col  workload.Column
	}{
		{"zipf", workload.Zipf(n, 1024, 1.0, 47)},
		{"uniform", workload.Uniform(n, 256, 48)},
		{"runs-64", workload.Runs(n, 1024, 64, 49)},
		{"sigma-4096", workload.Zipf(n, 4096, 1.0, 50)},
	}
	opts := ApproxOptions{Seed: 42}
	for _, c := range cols {
		t.Run(c.name, func(t *testing.T) {
			d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
			ax, err := BuildApprox(d, c.col, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := buildApproxReference(iomodel.NewDisk(iomodel.Config{BlockBits: 2048}), c.col, opts)
			if err != nil {
				t.Fatal(err)
			}
			var omitted, kept int
			for li, lv := range ax.levels {
				for j := range ax.hmaps[li].perJ {
					arr := &ax.hmaps[li].perJ[j]
					for i, m := range lv.members {
						reach := hashedReachable(minRows(ax.tree.prefix, m), j+1)
						listed := arr.stored(i) || arr.dropped(i)
						if listed != reach || arr.stored(i) && arr.dropped(i) || !ref.hmaps[li].perJ[j].stored(i) {
							t.Fatalf("level %d h_%d set %d: stored %v, dropped %v, reachable %v", li, j+1, i, arr.stored(i), arr.dropped(i), reach)
						}
						if reach {
							kept++
						} else {
							omitted++
						}
					}
				}
			}
			if omitted == 0 || kept == 0 {
				t.Fatalf("%d sets kept, %d omitted: want some of each", kept, omitted)
			}
			got, err := reopen(t, d, ax, opts)
			if err != nil {
				t.Fatal(err)
			}
			var hashed, queries, mixed, droppedOnly int
			for length := 1; length <= 256; length *= 2 {
				for _, q := range workload.RandomRanges(24, c.col.Sigma, length, int64(length)) {
					r := index.Range{Lo: q.Lo, Hi: q.Hi}
					for _, eps := range []float64{0.999, 1.0 / 2, 1.0 / 16, 1.0 / 256} {
						want, wst, err := ref.ApproxQuery(r, eps)
						if err != nil {
							t.Fatal(err)
						}
						for _, a := range []*Approx{ax, got} {
							res, st, err := a.ApproxQuery(r, eps)
							if err != nil {
								t.Fatal(err)
							}
							if err := sameApproxAnswer(res, want); err != nil || st.BitsRead > wst.BitsRead || st.BitsRead < wst.BitsRead && want.IsExact() {
								t.Fatalf("[%d,%d] eps=%g: %v; %d bits read, reference %d", q.Lo, q.Hi, eps, err, st.BitsRead, wst.BitsRead)
							}
						}
						queries++
						if !want.IsExact() {
							hashed++
							switch stored, dropped := coverSets(t, ax, r, want.J); {
							case dropped > 0 && stored > 0:
								mixed++
							case dropped > 0:
								droppedOnly++
							}
						}
					}
				}
			}
			t.Logf("%d sets kept, %d omitted; %d of %d answers hashed, %d with stored and dropped sets, %d with dropped ones only",
				kept, omitted, hashed, queries, mixed, droppedOnly)
			if hashed == 0 {
				t.Fatal("no answer came from a hashed level")
			}
			// A dropped set is priced no shorter than its exact member, so a
			// cover of dropped sets only prices its hashed frontier at or
			// above its exact one and is answered exact.
			if mixed == 0 || droppedOnly > 0 {
				t.Fatalf("%d hashed answers read stored and dropped sets, %d dropped ones only: want some, and none", mixed, droppedOnly)
			}
		})
	}
}

// sameApproxAnswer reports how got differs from want in form, level, function
// or set, or nil.
func sameApproxAnswer(got, want *Result) error {
	if got.IsExact() != want.IsExact() || got.J != want.J || got.H != want.H {
		return fmt.Errorf("exact=%v at j=%d, reference exact=%v at j=%d", got.IsExact(), got.J, want.IsExact(), want.J)
	}
	g, w := got.Set, want.Set
	if got.IsExact() {
		g, w = got.Exact, want.Exact
	}
	if !slices.Equal(g.Positions(), w.Positions()) {
		return fmt.Errorf("sets differ (%d vs %d elements)", g.Card(), w.Card())
	}
	return nil
}

// TestHashedDirectoryFollowsRule: the hashed directory carries no flag saying
// which sets it lists, so a payload whose directory lists one set the rule
// omits, or omits one it keeps, must fail to open rather than be read from
// shifted fields; so must a payload that omits sets read as revision 0,
// which lists every set, and one that stores every set read as revision 2.
func TestHashedDirectoryFollowsRule(t *testing.T) {
	opts := ApproxOptions{Seed: 42}
	col := workload.Zipf(20000, 64, 1.0, 9)
	build := func() (*iomodel.Disk, *Approx) {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
		ax, err := BuildApprox(d, col, opts)
		if err != nil {
			t.Fatal(err)
		}
		return d, ax
	}
	// find returns the first set, by level, j and member, for which f holds.
	find := func(ax *Approx, f func(arr *hashArray, i int) bool) (*hashArray, int) {
		for li := range ax.hmaps {
			for j := range ax.hmaps[li].perJ {
				arr := &ax.hmaps[li].perJ[j]
				for i := range arr.cards {
					if f(arr, i) {
						return arr, i
					}
				}
			}
		}
		t.Fatal("no such set")
		return nil, 0
	}

	d, ax := build()
	if _, err := reopen(t, d, ax, opts); err != nil {
		t.Fatalf("as built: %v", err)
	}
	// A set of a group that stores none, listed as an empty set of one value.
	arr, i := find(ax, func(arr *hashArray, _ int) bool {
		return !slices.ContainsFunc(arr.cards, func(c int64) bool { return c > 0 })
	})
	arr.exts[i].Bits, arr.cards[i] = 1, 1
	if _, err := reopenUnchecked(t, d, ax, opts); err == nil {
		t.Fatal("a directory listing a set the rule omits opened")
	}

	d, ax = build()
	// The last stored set of a group, dropped: the group stays contiguous.
	arr, i = find(ax, func(arr *hashArray, i int) bool {
		return arr.stored(i) && !slices.ContainsFunc(arr.cards[i+1:], func(c int64) bool { return c > 0 })
	})
	arr.exts[i], arr.cards[i], arr.orders[i] = iomodel.Extent{}, 0, 0
	if _, err := reopenUnchecked(t, d, ax, opts); err == nil {
		t.Fatal("a directory omitting a set the rule keeps opened")
	}

	_, ax = build()
	d, ax = withLayout(t, ax) // a payload of revision 1, which omits sets
	if _, err := reopenAt(t, d, ax, opts, 0); err == nil {
		t.Fatal("a payload omitting sets opened as revision 0")
	}
	d = iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	every, err := buildApproxReference(d, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reopen(t, d, every, opts); err == nil {
		t.Fatal("a payload listing every set opened as revision 1")
	}
	d, every = withLayout(t, every)
	if _, err := reopenAt(t, d, every, opts, 0); err != nil {
		t.Fatalf("every set, revision 0: %v", err)
	}
}

var reachableCensus = flag.Bool("core.reachable", false, "print the omitted-set census behind hypotheses/reachable-hashed")

// TestReachableCensus prints, per column shape, the hashed sets a build
// stores and omits at each j and what the omitted ones cost when stored
// (buildApproxReference keeps them): their image bits and the directory
// varints they take, per row. Skipped without -core.reachable.
func TestReachableCensus(t *testing.T) {
	if !*reachableCensus {
		t.Skip("census: run with -core.reachable")
	}
	opts := ApproxOptions{Seed: 42}
	for _, sh := range buildShapes {
		col := sh.col()
		ax, err := BuildApprox(iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), col, opts)
		if err != nil {
			t.Fatal(err)
		}
		every, err := buildApproxReference(iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), col, opts)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(col.Len())
		line := fmt.Sprintf("reachable shape=%s n=%d sigma=%d k=%d", sh.name, col.Len(), col.Sigma, ax.k)
		for j := 0; j < ax.k; j++ {
			var kept, omitted int
			var omittedBits int64
			for li := range ax.hmaps {
				arr, all := &ax.hmaps[li].perJ[j], &every.hmaps[li].perJ[j]
				for i := range arr.cards {
					if arr.stored(i) {
						kept++
					} else {
						omitted++
						omittedBits += all.exts[i].Bits
					}
				}
			}
			line += fmt.Sprintf(" h_%d=%d/%d:%.2f", j+1, kept, omitted, float64(omittedBits)/n)
		}
		image := every.disk.AllocatedBits() - ax.disk.AllocatedBits()
		dir := every.hashedDirBits() - ax.hashedDirBits()
		line += fmt.Sprintf(" omitted_image=%.2f omitted_dir=%.2f size_every=%.2f size=%.2f",
			float64(image)/n, float64(dir)/n, float64(every.SizeBits())/n, float64(ax.SizeBits())/n)
		fmt.Println(line)
	}
}
