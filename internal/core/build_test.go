package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/hashutil"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// hashesFor draws h_1 … h_k as BuildApprox does for n rows and seed.
func hashesFor(n, seed int64) []hashutil.SplitXOR {
	rng := rand.New(rand.NewSource(seed))
	var hs []hashutil.SplitXOR
	for j := 1; j <= maxJ(n); j++ {
		hs = append(hs, hashutil.NewSplitXOR(rng, 1<<uint(j)))
	}
	return hs
}

// builtImage is what a build leaves behind, as far as anything written from
// it can tell: the device bytes, SizeBits and the space ledger.
type builtImage struct {
	bits   int64
	data   []byte
	size   int64
	ledger SpaceLedger
}

// TestBuildParallelDeterministic: BuildOptimal and BuildApprox leave the same
// device image, SizeBits and ledger whatever the worker budget — sequential,
// two workers, more workers than levels — at both strides, and the 64-bit
// slab a column of more than 2^32 rows would take encodes the same streams.
func TestBuildParallelDeterministic(t *testing.T) {
	col := heavyColumn(70000, 1024, 0.3, 5) // k = 4: every hashSet path runs
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, stride := range []int{1, 2} {
		opts := ApproxOptions{OptimalOptions: OptimalOptions{Stride: stride}, Seed: 42}
		var want map[string]builtImage
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := map[string]builtImage{}
			od := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
			ox, err := BuildOptimal(od, col, opts.OptimalOptions)
			if err != nil {
				t.Fatal(err)
			}
			bits, data := od.Image()
			got["BuildOptimal"] = builtImage{bits: bits, data: data, size: ox.SizeBits()}
			ad := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
			ax, err := BuildApprox(ad, col, opts)
			if err != nil {
				t.Fatal(err)
			}
			bits, data = ad.Image()
			got["BuildApprox"] = builtImage{bits: bits, data: data, size: ax.SizeBits(), ledger: ax.SpaceLedger()}
			if want == nil {
				want = got
				continue
			}
			for name, g := range got {
				w := want[name]
				if g.bits != w.bits || !bytes.Equal(g.data, w.data) {
					t.Errorf("stride %d %s: GOMAXPROCS=%d image differs from GOMAXPROCS=1 (%d vs %d bits)", stride, name, procs, g.bits, w.bits)
				}
				if g.size != w.size || !reflect.DeepEqual(g.ledger, w.ledger) {
					t.Errorf("stride %d %s: GOMAXPROCS=%d SizeBits %d / ledger differ from GOMAXPROCS=1's %d", stride, name, procs, g.size, w.size)
				}
			}
		}
	}

	tr, err := BuildTree(col, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	hs := hashesFor(tr.n, 42)
	narrow, wide := newLevelTasks(tr, 2), newLevelTasks(tr, 2)
	runLevels[uint32](NewWorkers(2), narrow, tr, col.X, hs)
	runLevels[int64](NewWorkers(2), wide, tr, col.X, hs)
	for i := range narrow {
		a, b := &narrow[i], &wide[i]
		if a.err != nil || b.err != nil {
			t.Fatalf("depth %d: %v / %v", a.depth, a.err, b.err)
		}
		if !bytes.Equal(a.exact.Bytes(), b.exact.Bytes()) || !bytes.Equal(a.hashed.Bytes(), b.hashed.Bytes()) || !reflect.DeepEqual(a.members, b.members) || !reflect.DeepEqual(a.perJ, b.perJ) {
			t.Fatalf("depth %d: 64-bit slab encodes other streams than the 32-bit one", a.depth)
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to want: a helper
// that has signalled its WaitGroup may still be on its way out.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the build", runtime.NumGoroutine(), want)
		}
	}
}

// TestBuildLevelFailure: a self-check that fails inside a level task comes
// back as the wrapped ErrBuildInvariant a sequential build reports — the
// failing level that comes first in level order, whichever failed first in
// time — after every worker has stopped and given its slot back.
func TestBuildLevelFailure(t *testing.T) {
	col := heavyColumn(70000, 1024, 0.3, 5)
	tr, err := BuildTree(col, DefaultBranching)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	// One level's members claim a span the column cannot fill; the others
	// are sound and must still be encoded.
	ws := NewWorkers(4)
	tasks := newLevelTasks(tr, 1)
	bad := len(tasks) / 2
	tasks[bad].members[0].end++
	runLevels[uint32](ws, tasks, tr, col.X, nil)
	waitGoroutines(t, before)
	for i := range tasks {
		switch err := tasks[i].err; {
		case i == bad && (!errors.Is(err, ErrBuildInvariant) || err.Error()[:len("core: depth ")] != "core: depth "):
			t.Fatalf("level %d: err = %v, want a wrapped ErrBuildInvariant naming the depth", i, err)
		case i != bad && (err != nil || tasks[i].exact == nil):
			t.Fatalf("level %d: err = %v after level %d failed", i, err, bad)
		}
	}
	if len(ws) != 0 {
		t.Fatalf("%d worker slots still held", len(ws))
	}

	// A hash too wide for the bitset fails the first set of every level; the
	// build reports level 0's, as a build of one level after another did.
	wideHash := []hashutil.SplitXOR{hashutil.NewSplitXOR(rand.New(rand.NewSource(1)), 32)}
	first := newLevelTasks(tr, 2)[0]
	want := fmt.Sprintf("core: depth %d hashed level j=1 member [%d,%d): %v: hashed universe 2^32 above 2^16",
		first.depth, first.members[0].start, first.members[0].end, ErrBuildInvariant)
	for _, slots := range []int{1, 4} {
		ws := NewWorkers(slots)
		_, _, err := buildLevels(ws, iomodel.NewDisk(iomodel.Config{BlockBits: 2048}), col, OptimalOptions{}, wideHash)
		waitGoroutines(t, before)
		if !errors.Is(err, ErrBuildInvariant) || err.Error() != want {
			t.Fatalf("%d slots: err = %v, want %q", slots, err, want)
		}
		if len(ws) != 0 {
			t.Fatalf("%d slots: %d still held after a failed build", slots, len(ws))
		}
	}
}

// BenchmarkBuildPhases splits one sequential BuildApprox into its phases by
// running them apart on one goroutine (hypotheses/parallel-build): the tree,
// then per level the scatter and the encoders; rest is a whole one-worker
// build less those — placement, the slab's allocation, collector work.
// longest-level is the share of the level time its slowest task takes: the
// floor of the parallel part on any worker count.
func BenchmarkBuildPhases(b *testing.B) {
	for lg := 16; lg <= 20; lg++ {
		n := 1 << uint(lg)
		col := workload.Zipf(n, 1024, 1.1, *hashedSeed)
		b.Run(fmt.Sprintf("n=2^%d", lg), func(b *testing.B) {
			var tree, scatter, levels, whole time.Duration
			var perLevel []time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				tr, err := BuildTree(col, DefaultBranching)
				if err != nil {
					b.Fatal(err)
				}
				tasks := newLevelTasks(tr, 2)
				tree += time.Since(t0)
				hs := hashesFor(tr.n, 42)
				sc := newLevelScratch[uint32](tr, col.X)
				perLevel = append(perLevel[:0], make([]time.Duration, len(tasks))...)
				for ti := range tasks {
					t0 = time.Now()
					if err := sc.scatter(tasks[ti].members); err != nil {
						b.Fatal(err)
					}
					scatter += time.Since(t0)
					t0 = time.Now()
					if err := runLevel(&tasks[ti], sc, hs); err != nil {
						b.Fatal(err)
					}
					levels += time.Since(t0)
					perLevel[ti] += time.Since(t0)
				}
				t0 = time.Now()
				if _, err := BuildApproxOn(NewWorkers(1), iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), col, ApproxOptions{Seed: 42}); err != nil {
					b.Fatal(err)
				}
				whole += time.Since(t0)
			}
			perRow := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) / float64(n) }
			b.ReportMetric(perRow(tree), "tree-ns/row")
			b.ReportMetric(perRow(scatter), "scatter-ns/row")
			b.ReportMetric(perRow(levels-scatter), "encode-ns/row")
			b.ReportMetric(perRow(whole-tree-levels), "rest-ns/row")
			b.ReportMetric(perRow(whole), "build-ns/row")
			b.ReportMetric(float64(slices.Max(perLevel))/float64(levels)*float64(b.N), "longest-level")
		})
	}
}

// BenchmarkBuildIndependent is the devil's-advocate arm of
// hypotheses/parallel-build: `builds` whole one-worker builds of the same
// column side by side, sharing nothing but the machine. ns/row is wall time
// over the rows of one build: if two cost more per build than one, the cores
// do not scale on this work whatever a build serialises.
func BenchmarkBuildIndependent(b *testing.B) {
	const n = 1 << 19
	col := workload.Zipf(n, 1024, 1.1, *hashedSeed)
	for _, builds := range []int{1, 2} {
		b.Run(fmt.Sprintf("builds=%d", builds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for g := 0; g < builds; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := BuildApproxOn(NewWorkers(1), iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), col, ApproxOptions{Seed: 42}); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
		})
	}
}
