package secidx

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// The pr15_* containers under testdata/ were written at commit 49b23fb, the
// last one whose builds stored a hashed level with a universe >= n: both
// declare k = 5 where k = 4 is useful. They cannot be regenerated from this
// tree — Build no longer writes that level — so they are checked in; each is
// Build/BuildSharded over compatColumn with compatOpts, then WriteFile.
var compatOpts = Options{BlockBits: 2048, Seed: 16}

// compatColumn is the fixtures' column: the lower half of the alphabet in runs
// of mean length 128 (compressible, so the fixtures stay small), and every
// sixteenth row a character of the upper half drawn geometrically — 2000 rows
// of the commonest down to a handful of the rarest, so the sweep is answered
// from every hashed level as well as exactly.
func compatColumn(n, sigma int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]uint32, n)
	cur := uint32(0)
	half := sigma / 2
	for i := range x {
		if rng.Intn(128) == 0 {
			cur = uint32(rng.Intn(rng.Intn(half) + 1))
		}
		x[i] = cur
		if rng.Intn(16) == 0 {
			x[i] = uint32(half + min(bits.TrailingZeros32(rng.Uint32()), half-1))
		}
	}
	return x
}

var compatEps = []float64{0.5, 0.25, 1.0 / 16, 1.0 / 256, 1.0 / 65536, 1e-9}

// compatRanges is the sweep's ranges: every start, every power-of-two length.
func compatRanges(sigma uint32) (rs []Range) {
	for lo := uint32(0); lo < sigma; lo++ {
		for length := uint32(1); lo+length <= sigma; length *= 2 {
			rs = append(rs, Range{Lo: lo, Hi: lo + length - 1})
		}
	}
	return rs
}

// requireStoredLevels checks that l is the ledger of an index with k useful
// hashed levels out of stored on the device.
func requireStoredLevels(t *testing.T, what string, l SpaceLedger, k, stored int) {
	t.Helper()
	if l.UsefulK != k {
		t.Fatalf("%s: %d useful hashed levels, want %d", what, l.UsefulK, k)
	}
	for _, lv := range l.Levels {
		if len(lv.HashedBits) != stored {
			t.Fatalf("%s: depth %d stores %d hashed levels, want %d", what, lv.Depth, len(lv.HashedBits), stored)
		}
	}
	if l.ResidentBits() != l.ImageBits {
		t.Fatalf("%s: ledger parts sum to %d bits, image holds %d", what, l.ResidentBits(), l.ImageBits)
	}
}

// requireSameApprox asks old and fresh the same approximate queries over
// compatRanges and every ε: same form, same level (never the surplus one),
// same set, same bits read. It returns how many answers were hashed.
func requireSameApprox(t *testing.T, what string, sigma uint32, old, fresh *core.Approx) (hashed int) {
	t.Helper()
	for _, r := range compatRanges(sigma) {
		lo, hi := r.Lo, r.Hi
		for _, eps := range compatEps {
			got, gst, err := old.ApproxQuery(r, eps)
			if err != nil {
				t.Fatalf("%s [%d,%d] eps=%g: %v", what, lo, hi, eps, err)
			}
			want, wst, err := fresh.ApproxQuery(r, eps)
			if err != nil {
				t.Fatal(err)
			}
			if got.IsExact() != want.IsExact() || got.J != want.J || got.H != want.H || got.J > fresh.K() {
				t.Fatalf("%s [%d,%d] eps=%g: old file answers exact=%v at j=%d, fresh build exact=%v at j=%d of %d",
					what, lo, hi, eps, got.IsExact(), got.J, want.IsExact(), want.J, fresh.K())
			}
			g, w := got.Set, want.Set
			if got.IsExact() {
				g, w = got.Exact, want.Exact
			} else {
				hashed++
			}
			if !slices.Equal(g.Positions(), w.Positions()) || gst.BitsRead != wst.BitsRead {
				t.Fatalf("%s [%d,%d] eps=%g: answers differ (%d vs %d elements, %d vs %d bits read)",
					what, lo, hi, eps, g.Card(), w.Card(), gst.BitsRead, wst.BitsRead)
			}
		}
	}
	return hashed
}

// TestReadCompatPR15 opens containers written before hashed levels were
// capped at the useful ones and requires the answers of a fresh build.
func TestReadCompatPR15(t *testing.T) {
	const sigma = 32
	t.Run("static", func(t *testing.T) {
		o, err := OpenFile("testdata/pr15_static.secidx", OpenOptions{VerifyImages: true})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		col := compatColumn(70000, sigma, 161)
		fresh, err := Build(col, sigma, compatOpts)
		if err != nil {
			t.Fatal(err)
		}
		requireStoredLevels(t, "old file", o.Static.SpaceLedger(), 4, 5)
		requireStoredLevels(t, "fresh build", fresh.SpaceLedger(), 4, 4)
		for _, r := range compatRanges(sigma) {
			lo, hi := r.Lo, r.Hi
			got, _, err := o.Static.Query(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Rows(), bruteRange(col, lo, hi)) {
				t.Fatalf("Query [%d,%d]: old file differs from the column", lo, hi)
			}
		}
		if hashed := requireSameApprox(t, "static", sigma, o.Static.ax, fresh.ax); hashed < 50 {
			t.Fatalf("only %d hashed answers in the sweep", hashed)
		}

		// An old-file result intersects a new-build result through the shared
		// hash function (same seed, same draw order): every pair of overlapping
		// ranges both answered from one hashed level.
		pairs := 0
		for c := uint32(sigma / 2); c+2 < sigma; c++ {
			a, _, err := o.Static.ApproxQuery(c, c+1, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := fresh.ApproxQuery(c+1, c+2, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if a.IsExact() || b.IsExact() || a.res.J != b.res.J {
				continue
			}
			pairs++
			both, err := IntersectApprox(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if both.IsExact() {
				t.Fatalf("[%d,%d] ∩ [%d,%d]: same-level intersection left the hashed fast path", c, c+1, c+1, c+2)
			}
			for _, row := range bruteRange(col, c+1, c+1) {
				if !both.Contains(row) {
					t.Fatalf("[%d,%d] ∩ [%d,%d] misses row %d", c, c+1, c+1, c+2, row)
				}
			}
		}
		if pairs == 0 {
			t.Fatal("no pair of overlapping ranges was answered from one hashed level")
		}
	})
	t.Run("sharded", func(t *testing.T) {
		fresh, err := BuildSharded(compatColumn(132000, sigma, 162), sigma, ShardOptions{Options: compatOpts, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range fresh.SpaceLedger() {
			requireStoredLevels(t, "fresh shard", l, 0, 0)
		}
		requireShardedFixture(t, "testdata/pr15_sharded.secidx", sigma, 5)
	})
	// pr35_sharded.secidx was written at commit e6961fb, the last whose shards
	// built hashed levels (the four useful ones): BuildSharded over the column
	// of pr15_sharded.secidx, then WriteFile.
	t.Run("sharded-k4", func(t *testing.T) {
		requireShardedFixture(t, "testdata/pr35_sharded.secidx", sigma, 4)
	})
}

// requireShardedFixture opens a two-shard container over compatColumn(132000,
// sigma, 162) whose shards store hashed levels: every exact answer must be the
// column's, and every shard must hold stored levels, four of them useful,
// answering approximate queries like BuildApprox over the shard's rows.
func requireShardedFixture(t *testing.T, path string, sigma uint32, stored int) {
	t.Helper()
	o, err := OpenFile(path, OpenOptions{VerifyImages: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	col := compatColumn(132000, int(sigma), 162)
	for _, r := range compatRanges(sigma) {
		lo, hi := r.Lo, r.Hi
		got, _, err := o.Sharded.Query(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Rows(), bruteRange(col, lo, hi)) {
			t.Fatalf("Query [%d,%d]: old file differs from the column", lo, hi)
		}
	}
	for i, p := range o.Sharded.sx.Parts() {
		requireStoredLevels(t, "old shard", p.Ax.SpaceLedger(), 4, stored)
		ref, err := core.BuildApprox(iomodel.NewDisk(iomodel.Config{BlockBits: compatOpts.BlockBits}),
			workload.Column{X: col[p.Start:p.End], Sigma: int(sigma)}, compatOpts.approx())
		if err != nil {
			t.Fatal(err)
		}
		requireSameApprox(t, fmt.Sprintf("shard %d", i), sigma, p.Ax, ref)
	}
}

// writeOneShard writes st's one shard as a container of the given kind by
// hand, field by field, with reserved in the manifest slot after BlockBits
// (once the advisory memory size, which every build writes as 0).
func writeOneShard(path string, kind uint64, st *static, reserved uint64) error {
	part := st.sx.Parts()[0]
	return writeContainer(path, kind, func(cw *container.Writer) error {
		var e container.Encoder
		e.U(uint64(st.Len()))
		e.U(uint64(st.Sigma()))
		e.U(uint64(st.opts.BlockBits))
		e.U(reserved)
		e.U(uint64(st.opts.Branching))
		e.U(uint64(st.opts.Stride))
		e.I(st.opts.Seed)
		e.U(0) // Buffered
		e.U(1) // shards
		if err := cw.Add(container.TypeManifest, 0, e.Bytes(), 1); err != nil {
			return err
		}
		var m container.Encoder
		if err := part.Ax.EncodeMeta(&m); err != nil {
			return err
		}
		if err := cw.Add(container.TypeStaticMeta, 0, m.Bytes(), 1); err != nil {
			return err
		}
		return addImage(cw, 0, part.Disk)
	})
}

// TestManifestReservedSlotIgnored opens a container whose reserved manifest
// slot holds a nonzero value: it must report the same Len and Sigma and
// answer every range exactly as the same index written with 0. Written with
// 0, the hand-made container must equal WriteFile's byte for byte, so the
// slot sits where the encoder puts it.
func TestManifestReservedSlotIgnored(t *testing.T) {
	const sigma = 24
	data := randColumn(6000, sigma, 32)
	ix, err := Build(data, sigma, Options{BlockBits: 2048, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written, byHand, reserved := filepath.Join(dir, "w.secidx"), filepath.Join(dir, "h.secidx"), filepath.Join(dir, "r.secidx")
	if err := ix.WriteFile(written); err != nil {
		t.Fatal(err)
	}
	if err := writeOneShard(byHand, container.KindStatic, &ix.static, 0); err != nil {
		t.Fatal(err)
	}
	if err := writeOneShard(reserved, container.KindStatic, &ix.static, 1<<20); err != nil {
		t.Fatal(err)
	}
	wb, err := os.ReadFile(written)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := os.ReadFile(byHand)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, hb) {
		t.Fatal("hand-written container with slot 0 differs from WriteFile's")
	}
	open := func(path string) *Index {
		op, err := OpenFile(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { op.Close() })
		return op.Static
	}
	want, got := open(written), open(reserved)
	if got.Len() != want.Len() || got.Sigma() != want.Sigma() {
		t.Fatalf("reserved slot: Len/Sigma %d/%d, want %d/%d", got.Len(), got.Sigma(), want.Len(), want.Sigma())
	}
	for lo := uint32(0); lo < sigma; lo++ {
		for hi := lo; hi < sigma; hi++ {
			wr, wst, err := want.Query(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			gr, gst, err := got.Query(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gr.Rows(), wr.Rows()) || gst != wst {
				t.Fatalf("[%d,%d]: reserved slot answers %d rows (%+v), want %d (%+v)", lo, hi, gr.Card(), gst, wr.Card(), wst)
			}
		}
	}
}

// TestOpenExactOnlyShard: a shard may store no hashed levels, a static index
// over more than 4 rows may not. A one-shard BuildSharded's metadata, written
// by hand as a sharded container, opens and answers like the built index; the
// same sections under the static kind fail with ErrCorrupt.
func TestOpenExactOnlyShard(t *testing.T) {
	const sigma = 24
	data := randColumn(6000, sigma, 33)
	sx, err := BuildSharded(data, sigma, ShardOptions{Options: Options{BlockBits: 2048, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written, sharded, static := filepath.Join(dir, "w.secidx"), filepath.Join(dir, "h.secidx"), filepath.Join(dir, "s.secidx")
	if err := sx.WriteFile(written); err != nil {
		t.Fatal(err)
	}
	if err := writeOneShard(sharded, container.KindSharded, &sx.static, 0); err != nil {
		t.Fatal(err)
	}
	if err := writeOneShard(static, container.KindStatic, &sx.static, 0); err != nil {
		t.Fatal(err)
	}
	wb, err := os.ReadFile(written)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := os.ReadFile(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, hb) {
		t.Fatal("hand-written sharded container differs from WriteFile's")
	}
	if op, err := OpenFile(static, OpenOptions{}); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			op.Close()
		}
		t.Fatalf("static container with no hashed levels over %d rows: error %v, want ErrCorrupt", len(data), err)
	}
	op, err := OpenFile(sharded, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	for lo := uint32(0); lo < sigma; lo++ {
		for hi := lo; hi < sigma; hi++ {
			wr, wst, err := sx.Query(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			gr, gst, err := op.Sharded.Query(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gr.Rows(), wr.Rows()) || gst != wst {
				t.Fatalf("[%d,%d]: reopened shard answers %d rows (%+v), built %d (%+v)", lo, hi, gr.Card(), gst, wr.Card(), wst)
			}
		}
	}
}
