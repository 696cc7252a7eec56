package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/shard"
	"repro/internal/workload"
)

// fileBacked reopens ax, built on the in-memory device d, over a file holding
// d's image and served in the given mode.
func fileBacked(t *testing.T, d *iomodel.Disk, ax *core.Approx, opts core.ApproxOptions, mode iomodel.FileMode) *core.Approx {
	t.Helper()
	tail, data := d.Image()
	path := filepath.Join(t.TempDir(), "image.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	fd, err := iomodel.OpenFileDisk(f, iomodel.Config{BlockBits: d.BlockBits()}, iomodel.FileBackingConfig{TailBits: tail, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fd.Close() })
	var e container.Encoder
	if err := ax.EncodeMeta(&e); err != nil {
		t.Fatal(err)
	}
	dec := container.NewDecoder(e.Bytes())
	got, err := core.OpenApprox(fd.Disk, ax.Sigma(), core.StaticRevision, opts, dec)
	if err == nil {
		err = dec.Finish()
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func encoded(bm *cbitmap.Bitmap) []byte {
	w := bitio.NewWriter(bm.SizeBits())
	bm.EncodeTo(w)
	return w.Bytes()
}

// TestPointQueryConcatDifferential: every key of uniform and zipf columns,
// asked of an index in memory, in a pread file, in an mmap file and in four
// shards, is answered with the set the general merge makes of the same
// streams — which are workload.BruteForce's rows — at the same QueryStats,
// in the same bits where both answers carry one order (the concatenation
// keeps its first member's, the general merge of several members is gamma);
// the plan is ordered exactly when the key occurs and does not hold more
// than half the rows; and a member whose bits break the order fails the
// query with ErrCorrupt.
func TestPointQueryConcatDifferential(t *testing.T) {
	sizes := []int{1, 2, 37, 1000, 1 << 13, 1 << 17}
	if testing.Short() {
		sizes = sizes[:5]
	}
	opts := core.ApproxOptions{Seed: 11}
	cfg := iomodel.Config{BlockBits: 2048}
	var ordered, oneMember, absent, complemented int
	for _, n := range sizes {
		for _, sigma := range []int{1, 4, 256, 1024} {
			cols := map[string]workload.Column{
				"uniform":  workload.Uniform(n, sigma, int64(n+sigma)),
				"zipf-1.0": workload.Zipf(n, sigma, 1.0, int64(n+sigma)),
				"zipf-2.0": workload.Zipf(n, sigma, 2.0, int64(n+sigma)), // one key above n/2
			}
			for dist, col := range cols {
				d := iomodel.NewDisk(cfg)
				mem, err := core.BuildApprox(d, col, opts)
				if err != nil {
					t.Fatal(err)
				}
				handles := []struct {
					name string
					ax   *core.Approx
				}{
					{"memory", mem},
					{"pread", fileBacked(t, d, mem, opts, iomodel.ModePread)},
					{"mmap", fileBacked(t, d, mem, opts, iomodel.ModeMmap)},
				}
				sharded, err := shard.Build(col.X, sigma, shard.Options{Shards: 4, BlockBits: cfg.BlockBits})
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < sigma; c++ {
					what := fmt.Sprintf("n=%d sigma=%d %s key %d", n, sigma, dist, c)
					r := index.Range{Lo: uint32(c), Hi: uint32(c)}
					rows := workload.BruteForce(col, workload.RangeQuery{Lo: r.Lo, Hi: r.Hi})
					plan, _, err := mem.PlanQuery(r)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					z := len(rows)
					if want := z > 0 && z <= n/2; plan.Ordered != want || plan.Complement != (z > n/2) {
						t.Fatalf("%s: %d rows of %d planned ordered=%v complement=%v", what, z, n, plan.Ordered, plan.Complement)
					}
					switch members := len(mem.ExactMembers(plan)); {
					case plan.Complement && members > 0:
						complemented++
					case z == 0:
						absent++
					case members == 1:
						oneMember++
					default:
						ordered++
					}
					var want []byte
					var wantStats index.QueryStats
					for hi, h := range handles {
						got, st, err := h.ax.Query(r)
						if err != nil {
							t.Fatalf("%s %s: %v", what, h.name, err)
						}
						general, gst, err := h.ax.QueryGeneralMerge(r)
						if err != nil {
							t.Fatalf("%s %s: general merge: %v", what, h.name, err)
						}
						if !bytes.Equal(encoded(got), encoded(general)) || got.Card() != general.Card() ||
							(got.Order() == general.Order() && got.SizeBits() != general.SizeBits()) {
							t.Fatalf("%s %s: answer differs from the general merge of the same streams", what, h.name)
						}
						if st != gst {
							t.Fatalf("%s %s: stats %+v, general merge %+v", what, h.name, st, gst)
						}
						if hi == 0 {
							if !slices.Equal(got.Positions(), rows) && (z > 0 || got.Card() > 0) {
								t.Fatalf("%s: answer differs from BruteForce (%d rows, want %d)", what, got.Card(), z)
							}
							want, wantStats = encoded(got), st
						} else if !bytes.Equal(encoded(got), want) || st != wantStats {
							t.Fatalf("%s %s: answer or stats %+v differ from memory's %+v", what, h.name, st, wantStats)
						}
					}
					got, _, _, err := sharded.QueryExec(context.Background(), r, shard.ExecOptions{})
					if err != nil {
						t.Fatalf("%s sharded: %v", what, err)
					}
					if !bytes.Equal(encoded(got), want) || got.Card() != int64(z) {
						t.Fatalf("%s: sharded answer differs (%d rows, want %d)", what, got.Card(), z)
					}
				}
			}
		}
	}
	if ordered == 0 || oneMember == 0 || absent == 0 || complemented == 0 {
		t.Fatalf("keys seen: %d ordered over several members, %d over one, %d absent, %d complemented: a case is missing",
			ordered, oneMember, absent, complemented)
	}

	// Break the order inside one ordered cover: the middle member's first gap
	// becomes the code of 1, so it starts at row 0, below its predecessor's
	// rows. The general merge would have taken whatever the rest decodes to.
	col := workload.Zipf(1<<15, 64, 1.0, 5)
	d := iomodel.NewDisk(cfg)
	ax, err := core.BuildApprox(d, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < col.Sigma; c++ {
		r := index.Range{Lo: uint32(c), Hi: uint32(c)}
		plan, _, err := ax.PlanQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		exts := ax.ExactMembers(plan)
		if !plan.Ordered || len(exts) < 3 {
			continue
		}
		tc := d.NewTouch()
		err = tc.WriteBits(exts[len(exts)/2].Off, 1, 1)
		tc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ax.Query(r); !errors.Is(err, cbitmap.ErrCorrupt) {
			t.Fatalf("key %d, member %d of %d starting at row 0: err %v, want ErrCorrupt", c, len(exts)/2, len(exts), err)
		}
		batch := []index.Range{r, {Lo: 0, Hi: uint32(col.Sigma - 1)}}
		if _, err := ax.Answer(context.Background(), batch, make([]*cbitmap.Bitmap, len(batch)), true); !errors.Is(err, cbitmap.ErrCorrupt) {
			t.Fatalf("key %d in a batch: err %v, want ErrCorrupt", c, err)
		}
		return
	}
	t.Fatal("no key with an ordered cover of three members; test lost its teeth")
}
