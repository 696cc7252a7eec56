package secidx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
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

// The bits the sweeps read from the fixtures, as commit a620bd0 read them:
// the compatColumn(70000, 32, 161) static files (pr15_static.secidx and
// pr40_static.secidx, whose surplus hashed level no query reads), and the
// two shards of the sharded ones.
var (
	staticSweepPin  = bitsPin{15198551, 0x2884b51677e0e34b}
	shardedSweepPin = []bitsPin{{14364058, 0xa568f3fa550ab43}, {13919009, 0x86897744f0346421}}
)

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

// bitsPin folds the bits read by every query of a sweep, in sweep order:
// their total and their FNV-1a hash.
type bitsPin struct {
	total int64
	hash  uint64
}

// requireSameApprox asks old and fresh the same approximate queries over
// compatRanges and every ε: same form, same level (never the surplus one),
// same set. A fresh build's internal members are exp-Golomb-coded where the
// old file's are gamma-coded, so it may read fewer bits than the old file,
// never more; and where its exact frontier is no longer than the hashed one
// the old file reads, it answers exactly instead, with a subset of the old
// file's hashed answer. The old file reads what it read when it was current,
// which pin holds: the sweep's bits as the old file read them before members
// had orders. It returns how many answers both hashed.
func requireSameApprox(t *testing.T, what string, sigma uint32, old, fresh *core.Approx, pin bitsPin) (hashed int) {
	t.Helper()
	h := fnv.New64a()
	var sweep bitsPin
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
			if wst.BitsRead > gst.BitsRead {
				t.Fatalf("%s [%d,%d] eps=%g: fresh build reads %d bits, old file %d", what, lo, hi, eps, wst.BitsRead, gst.BitsRead)
			}
			if !got.IsExact() && want.IsExact() {
				for _, p := range want.Exact.Positions() {
					if !got.Contains(p) {
						t.Fatalf("%s [%d,%d] eps=%g: old file's hashed answer misses row %d", what, lo, hi, eps, p)
					}
				}
			} else if got.IsExact() != want.IsExact() || got.J != want.J || got.H != want.H || got.J > fresh.K() {
				t.Fatalf("%s [%d,%d] eps=%g: old file answers exact=%v at j=%d, fresh build exact=%v at j=%d of %d",
					what, lo, hi, eps, got.IsExact(), got.J, want.IsExact(), want.J, fresh.K())
			} else {
				g, w := got.Set, want.Set
				if got.IsExact() {
					g, w = got.Exact, want.Exact
				} else {
					hashed++
				}
				if !slices.Equal(g.Positions(), w.Positions()) {
					t.Fatalf("%s [%d,%d] eps=%g: answers differ (%d vs %d elements)", what, lo, hi, eps, g.Card(), w.Card())
				}
			}
			binary.Write(h, binary.LittleEndian, gst.BitsRead)
			sweep.total += gst.BitsRead
		}
	}
	if sweep.hash = h.Sum64(); sweep != pin {
		t.Fatalf("%s: old file's sweep read %d bits (hash %#x), pinned %d (%#x)", what, sweep.total, sweep.hash, pin.total, pin.hash)
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
		if hashed := requireSameApprox(t, "static", sigma, o.Static.ax, fresh.ax, staticSweepPin); hashed < 50 {
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
		requireShardedFixture(t, "testdata/pr15_sharded.secidx", sigma, 5, shardedSweepPin)
	})
	// pr35_sharded.secidx was written at commit e6961fb, the last whose shards
	// built hashed levels (the four useful ones): BuildSharded over the column
	// of pr15_sharded.secidx, then WriteFile.
	t.Run("sharded-k4", func(t *testing.T) {
		requireShardedFixture(t, "testdata/pr35_sharded.secidx", sigma, 4, shardedSweepPin)
	})
}

// TestReadCompatGammaMembers opens testdata/pr40_static.secidx, written at
// commit a620bd0, the last whose builds gamma-coded every member: Build over
// the column of pr15_static.secidx with compatOpts, then WriteFile. Its
// metadata has no member orders, so every member reads as order 0; it must
// answer like a fresh build, which codes its internal members at their
// exp-Golomb orders and so holds fewer bits.
func TestReadCompatGammaMembers(t *testing.T) {
	const sigma = 32
	o, err := OpenFile("testdata/pr40_static.secidx", OpenOptions{VerifyImages: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	col := compatColumn(70000, sigma, 161)
	fresh, err := Build(col, sigma, compatOpts)
	if err != nil {
		t.Fatal(err)
	}
	old := o.Static.SpaceLedger()
	requireStoredLevels(t, "old file", old, 4, 4)
	oldExact, _ := old.PayloadBits()
	freshExact, _ := fresh.SpaceLedger().PayloadBits()
	if freshExact >= oldExact {
		t.Fatalf("fresh build's exact sets hold %d bits, the gamma-coded file's %d", freshExact, oldExact)
	}
	for _, r := range compatRanges(sigma) {
		got, _, err := o.Static.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Rows(), bruteRange(col, r.Lo, r.Hi)) {
			t.Fatalf("Query [%d,%d]: old file differs from the column", r.Lo, r.Hi)
		}
	}
	requireSameApprox(t, "gamma-coded static", sigma, o.Static.ax, fresh.ax, staticSweepPin)
}

// requireShardedFixture opens a two-shard container over compatColumn(132000,
// sigma, 162) whose shards store hashed levels: every exact answer must be the
// column's, and every shard must hold stored levels, four of them useful,
// answering approximate queries like BuildApprox over the shard's rows and
// reading what pins holds for it (requireSameApprox).
func requireShardedFixture(t *testing.T, path string, sigma uint32, stored int, pins []bitsPin) {
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
		requireSameApprox(t, fmt.Sprintf("shard %d", i), sigma, p.Ax, ref, pins[i])
	}
}

// writeOneShard writes st's one shard as a container of the given kind by
// hand, field by field, with revision in the manifest slot after BlockBits.
func writeOneShard(path string, kind uint64, st *static, revision uint64) error {
	part := st.sx.Parts()[0]
	return writeContainer(path, kind, func(cw *container.Writer) error {
		var e container.Encoder
		e.U(uint64(st.Len()))
		e.U(uint64(st.Sigma()))
		e.U(uint64(st.opts.BlockBits))
		e.U(revision)
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

// TestManifestRevision: the manifest slot after BlockBits holds the static
// payload's revision. Written by hand with core.StaticRevision there, a
// container equals WriteFile's byte for byte. The same sections under a
// revision this package does not know, or under revision 0, whose hashed
// directory lists every set where this one omits those no query selects,
// fail with ErrCorrupt.
func TestManifestRevision(t *testing.T) {
	const sigma = 24
	data := randColumn(6000, sigma, 32)
	ix, err := Build(data, sigma, Options{BlockBits: 2048, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	written, byHand := filepath.Join(dir, "w.secidx"), filepath.Join(dir, "h.secidx")
	if err := ix.WriteFile(written); err != nil {
		t.Fatal(err)
	}
	if err := writeOneShard(byHand, container.KindStatic, &ix.static, core.StaticRevision); err != nil {
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
		t.Fatalf("hand-written container with revision %d differs from WriteFile's", core.StaticRevision)
	}
	for _, rev := range []uint64{0, core.StaticRevision + 1} {
		path := filepath.Join(dir, fmt.Sprintf("r%d.secidx", rev))
		if err := writeOneShard(path, container.KindStatic, &ix.static, rev); err != nil {
			t.Fatal(err)
		}
		if op, err := OpenFile(path, OpenOptions{}); !errors.Is(err, ErrCorrupt) {
			if err == nil {
				op.Close()
			}
			t.Fatalf("revision %d: error %v, want ErrCorrupt", rev, err)
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
	if err := writeOneShard(sharded, container.KindSharded, &sx.static, core.StaticRevision); err != nil {
		t.Fatal(err)
	}
	if err := writeOneShard(static, container.KindStatic, &sx.static, core.StaticRevision); err != nil {
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

// legacyHeightPin folds what the sweep of TestReadCompatLegacyHeight reads
// from testdata/legacy_height_static.secidx: every row and every stat of
// every answer. The rows and the bits read are as commit 3392b46 (which wrote
// it) read them; the hash moved once, from 0x242f9fb952c5f9f4, when planning
// stopped reading A and the structure blocks, so Reads counts member extents
// alone.
var legacyHeightPin = bitsPin{4165209, 0x10551d294b10a1fa}

// TestReadCompatLegacyHeight opens testdata/legacy_height_static.secidx,
// written at commit 3392b46, the last whose static images held 128-bit node
// records and kept the member directory in the metadata (lengths, every
// node's block, the internal members' orders trailing): Build over
// compatColumn(16807, 32, 175) with compatOpts and Branching 7, then
// WriteFile. At n = 7^5 the height rule of that build read one level too
// tall, so the file's tree — its root split in two, not seven — is one a
// fresh build no longer makes; it must reopen with that tree and answer
// exactly as it did, every row and every stat.
func TestReadCompatLegacyHeight(t *testing.T) {
	const sigma = 32
	o, err := OpenFile("testdata/legacy_height_static.secidx", OpenOptions{VerifyImages: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if l := o.Static.SpaceLedger(); l.RecordBits != 128 || l.ResidentBits() != l.ImageBits {
		t.Fatalf("old file: %d-bit node records, ledger parts sum to %d of %d bits", l.RecordBits, l.ResidentBits(), l.ImageBits)
	}
	if root := o.Static.ax.Tree().Root; len(root.Children) != 2 {
		t.Fatalf("old file's root has %d children, its build made 2", len(root.Children))
	}
	col := compatColumn(16807, sigma, 175)
	h := fnv.New64a()
	var sweep bitsPin
	for _, r := range compatRanges(sigma) {
		got, st, err := o.Static.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		rows := got.Rows()
		if !slices.Equal(rows, bruteRange(col, r.Lo, r.Hi)) {
			t.Fatalf("Query [%d,%d]: old file differs from the column", r.Lo, r.Hi)
		}
		binary.Write(h, binary.LittleEndian, rows)
		fmt.Fprintf(h, "%+v", st)
		sweep.total += st.BitsRead
		for _, eps := range compatEps {
			a, st, err := o.Static.ApproxQuery(r.Lo, r.Hi, eps)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := a.Rows()
			if err != nil {
				t.Fatal(err)
			}
			binary.Write(h, binary.LittleEndian, rows)
			fmt.Fprintf(h, "%v %d %+v", a.IsExact(), a.CandidateCount(), st)
			sweep.total += st.BitsRead
		}
	}
	if sweep.hash = h.Sum64(); sweep != legacyHeightPin {
		t.Fatalf("old file's sweep read %d bits (hash %#x), pinned %d (%#x)", sweep.total, sweep.hash, legacyHeightPin.total, legacyHeightPin.hash)
	}
}

// requirePinnedSweep asks every range of compatRanges(sigma) of q, and at
// every ε of ax when it is not nil, and requires every exact answer to be the
// column's, and the rows and form of every answer, with SizeBits size, to fold
// into want.
func requirePinnedSweep(t *testing.T, name string, sigma uint32, col []uint32, size int64, q func(lo, hi uint32) (*Result, Stats, error), ax approxer, want filePin) {
	t.Helper()
	h := fnv.New64a()
	var got bitsPin
	for _, r := range compatRanges(sigma) {
		res, _, err := q(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Rows()
		if !slices.Equal(rows, bruteRange(col, r.Lo, r.Hi)) {
			t.Fatalf("%s: Query [%d,%d]: old file differs from the column", name, r.Lo, r.Hi)
		}
		binary.Write(h, binary.LittleEndian, rows)
		got.total += int64(len(rows))
		if ax == nil {
			continue
		}
		for _, eps := range compatEps {
			a, _, err := ax.ApproxQuery(r.Lo, r.Hi, eps)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := a.Rows()
			if err != nil {
				t.Fatal(err)
			}
			binary.Write(h, binary.LittleEndian, rows)
			fmt.Fprintf(h, "%v %d", a.IsExact(), a.CandidateCount())
			got.total += int64(len(rows))
		}
	}
	got.hash = h.Sum64()
	if got != want.rows || size != want.sizeBits {
		t.Fatalf("%s: sweep answered %d rows (hash %#x), SizeBits %d; pinned %d (%#x), %d",
			name, got.total, got.hash, size, want.rows.total, want.rows.hash, want.sizeBits)
	}
}

// approxer is the approximate query of a static handle.
type approxer interface {
	ApproxQuery(lo, hi uint32, eps float64) (*ApproxResult, Stats, error)
}

// filePin is what a fixture's writer answered from it: SizeBits, and the rows
// of every exact and approximate answer of the sweep folded into a bitsPin
// (their count and FNV-1a hash, with each approximate answer's form).
type filePin struct {
	sizeBits int64
	rows     bitsPin
}

// The pr45_* containers under testdata/ were written at commit b1cad5d, the
// last whose leaves and hashed sets were all gamma-coded and whose images
// carried the prefix array A, by cmd/secidx:
//
//	secidx -n 40000 -sigma 64 -dist zipf -theta 1.1 -block 2048 -seed 45 -write testdata/pr45_static.secidx
//	secidx -n 60000 -sigma 64 -dist zipf -theta 1.1 -block 2048 -seed 46 -shards 2 -write testdata/pr45_sharded.secidx
//
// pr45Pins holds what that commit answered from them.
var pr45Pins = map[string]filePin{
	"static":  {839184, bitsPin{12891518, 0x78bb8e7776c150f3}},
	"sharded": {1057241, bitsPin{3002697, 0xd866a1c7010b9fdb}},
}

// TestReadCompatPR45 opens the pr45 fixtures and requires every answer of the
// sweep to be the one their writer gave, every exact one the column's, and
// SizeBits unchanged.
func TestReadCompatPR45(t *testing.T) {
	const sigma = 64
	t.Run("static", func(t *testing.T) {
		o, err := OpenFile("testdata/pr45_static.secidx", OpenOptions{VerifyImages: true})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		col := workload.Zipf(40000, sigma, 1.1, 45).X
		requirePinnedSweep(t, "static", sigma, col, o.Static.SizeBits(), o.Static.Query, o.Static, pr45Pins["static"])
	})
	t.Run("sharded", func(t *testing.T) {
		o, err := OpenFile("testdata/pr45_sharded.secidx", OpenOptions{VerifyImages: true})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		col := workload.Zipf(60000, sigma, 1.1, 46).X
		requirePinnedSweep(t, "sharded", sigma, col, o.Sharded.SizeBits(), o.Sharded.Query, nil, pr45Pins["sharded"])
	})
}

// testdata/pr46_static.secidx was written at commit c9a31f3, the last whose
// static payload lists every hashed set, reachable by a query or not
// (manifest revision 0), with leaves at their orders and hashed sets at their
// derived orders or in gamma, by cmd/secidx:
//
//	secidx -n 66000 -sigma 64 -dist zipf -theta 1.1 -block 2048 -seed 47 -write testdata/pr46_static.secidx
//
// At 66 000 rows it stores every hashed level, j = 1 … 4. pr46Pin holds what
// that commit answered from it.
var pr46Pin = filePin{2001119, bitsPin{21531132, 0x811a9be63dd77e05}}

// TestReadCompatPR46 opens testdata/pr46_static.secidx and requires every
// answer of the sweep to be the one its writer gave, every exact one the
// column's, and SizeBits unchanged.
func TestReadCompatPR46(t *testing.T) {
	const sigma = 64
	o, err := OpenFile("testdata/pr46_static.secidx", OpenOptions{VerifyImages: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	col := workload.Zipf(66000, sigma, 1.1, 47).X
	requirePinnedSweep(t, "pr46 static", sigma, col, o.Static.SizeBits(), o.Static.Query, o.Static, pr46Pin)
}

// The pr50_* containers under testdata/ were written at commit 163de37, the
// last whose static images lead with the blocked tree layout, its node
// records the exact directory, and whose metadata lists the hashed sets'
// lengths and cardWords as varints (manifest revision 1), by cmd/secidx:
//
//	secidx -n 66000 -sigma 256 -dist zipf -theta 1.1 -block 2048 -seed 50 -write testdata/pr50_static.secidx
//	secidx -n 60000 -sigma 256 -dist zipf -theta 1.1 -block 2048 -seed 51 -shards 2 -write testdata/pr50_sharded.secidx
//
// The static file's layout is 45 blocks of 22-bit records. pr50Pins holds
// what that commit answered from them.
var pr50Pins = map[string]filePin{
	"static":  {2586607, bitsPin{89558087, 0xdd8588658086cae0}},
	"sharded": {1190913, bitsPin{10636642, 0x96934162819fb161}},
}

// TestReadCompatPR50 opens the pr50 fixtures and requires every answer of the
// sweep to be the one their writer gave, every exact one the column's, and
// SizeBits unchanged.
func TestReadCompatPR50(t *testing.T) {
	const sigma = 256
	t.Run("static", func(t *testing.T) {
		o, err := OpenFile("testdata/pr50_static.secidx", OpenOptions{VerifyImages: true})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		col := workload.Zipf(66000, sigma, 1.1, 50).X
		requirePinnedSweep(t, "pr50 static", sigma, col, o.Static.SizeBits(), o.Static.Query, o.Static, pr50Pins["static"])
	})
	t.Run("sharded", func(t *testing.T) {
		o, err := OpenFile("testdata/pr50_sharded.secidx", OpenOptions{VerifyImages: true})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		col := workload.Zipf(60000, sigma, 1.1, 51).X
		requirePinnedSweep(t, "pr50 sharded", sigma, col, o.Sharded.SizeBits(), o.Sharded.Query, nil, pr50Pins["sharded"])
	})
}

// testdata/pr52_static.secidx was written at commit 34737c4, the last whose
// static payload (manifest revision 2) stores every hashed set a query can
// select, shorter than its member's exact set or not, by cmd/secidx:
//
//	secidx -n 66000 -sigma 256 -dist zipf -theta 1.1 -block 2048 -seed 52 -write testdata/pr52_static.secidx
//
// Many of its sets at j = 4 are no shorter than their exact members. pr52Pin
// holds what that commit answered from it.
var pr52Pin = filePin{2465978, bitsPin{100452226, 0x65bf013f97024d27}}

// TestReadCompatPR52 opens testdata/pr52_static.secidx and requires every
// answer of the sweep to be the one its writer gave, every exact one the
// column's, and SizeBits unchanged.
func TestReadCompatPR52(t *testing.T) {
	const sigma = 256
	o, err := OpenFile("testdata/pr52_static.secidx", OpenOptions{VerifyImages: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	col := workload.Zipf(66000, sigma, 1.1, 52).X
	requirePinnedSweep(t, "pr52 static", sigma, col, o.Static.SizeBits(), o.Static.Query, o.Static, pr52Pin)
}
