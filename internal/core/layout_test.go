package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/container"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// nodeRecords returns every node's record as revisions 0 and 1 wrote it, by
// node ID — its member's length and order from levels (members in
// eachMember order), 0 for a node that is no member — and the field widths
// that hold them all.
func nodeRecords(t *Tree, depths []int, levels [][]member) (recs []uint64, lenBits, kBits int) {
	var maxLen int64
	var maxK uint8
	for _, ms := range levels {
		for _, m := range ms {
			maxLen, maxK = max(maxLen, m.ext.Bits), max(maxK, m.k)
		}
	}
	lenBits, kBits = max(bits.Len64(uint64(maxLen)), 1), bits.Len8(maxK)
	recs = make([]uint64, len(t.Nodes))
	eachMember(t, depths, func(v *Node, li, mi int) {
		m := &levels[li][mi]
		recs[v.ID] = uint64(m.ext.Bits)<<kBits | uint64(m.k)
	})
	return recs, lenBits, kBits
}

// newTreeLayout places the records recs (by node ID, lenBits+kBits wide) on
// d, from the next block boundary, as whole blocks.
func newTreeLayout(d *iomodel.Disk, t *Tree, recs []uint64, lenBits, kBits int) *treeLayout {
	d.AlignToBlock()
	start := d.AllocatedBits()
	w := bitio.NewWriter(0)
	l := placeLayout(d, t, iomodel.BlockID(start/int64(d.BlockBits())), lenBits, kBits, func(v *Node, pos int64) {
		for pad := int(pos-start) - w.Len(); pad > 0; pad -= 64 {
			w.WriteBits(0, min(pad, 64)) // to the next block's first record
		}
		w.WriteBits(recs[v.ID], lenBits+kBits)
	})
	w.Align(d.BlockBits())
	d.AllocStream(w)
	return l
}

// withLayout returns ax on a copy of its device laid out as revisions 0 and
// 1 wrote it: the node records in their blocked placement from block 0, then
// ax's streams, every offset moved up by the layout's whole blocks. Its
// metadata is encodeRecordsMeta's.
func withLayout(t testing.TB, ax *Approx) (*iomodel.Disk, *Approx) {
	t.Helper()
	src := ax.disk
	d := iomodel.NewDisk(iomodel.Config{BlockBits: src.BlockBits()})
	recs, lenBits, kBits := nodeRecords(ax.tree, materialDepths(ax.tree.Height, ax.opts.Stride), levelMembers(ax.Optimal))
	l := newTreeLayout(d, ax.tree, recs, lenBits, kBits)
	tail, img := src.Image()
	w := bitio.NewWriter(int(tail))
	if err := w.CopyBits(bitio.NewReader(img, int(tail)), int(tail)); err != nil {
		t.Fatal(err)
	}
	shift := d.AllocStream(w).Off
	if shift != l.sizeBits() {
		t.Fatalf("streams moved by %d bits, the layout takes %d", shift, l.sizeBits())
	}
	ox := newOptimal(d, ax.tree, ax.opts)
	ox.layout = l
	for _, lv := range ax.levels {
		members := slices.Clone(lv.members)
		for i := range members {
			members[i].ext.Off += shift
		}
		ox.levels = append(ox.levels, newMatLevel(lv.depth, members))
	}
	out := &Approx{Optimal: ox, seed: ax.seed, k: ax.k, hs: ax.hs}
	for _, hl := range ax.hmaps {
		perJ := slices.Clone(hl.perJ)
		for j := range perJ {
			perJ[j].exts = slices.Clone(perJ[j].exts)
			for i := range perJ[j].exts {
				if perJ[j].stored(i) {
					perJ[j].exts[i].Off += shift
				}
			}
		}
		out.hmaps = append(out.hmaps, hashLevel{perJ: perJ})
	}
	return d, out
}

// encodeRecordsMeta writes ax's metadata as revision 1 did, whose node
// records (withLayout) are the exact directory: counts, 0, the records'
// widths, per level its depth, member count and base, A's offset, k and the
// hashed directory as varints.
func encodeRecordsMeta(t testing.TB, ax *Approx) []byte {
	t.Helper()
	tr, l := ax.tree, ax.layout
	if l == nil || l.lenBits == 0 {
		t.Fatal("revision 1 metadata needs node records")
	}
	var e container.Encoder
	for a := 0; a < tr.sigma; a++ {
		e.U(uint64(tr.prefix[a+1] - tr.prefix[a]))
	}
	e.U(0)
	e.U(uint64(l.lenBits))
	e.U(uint64(l.kBits))
	e.U(uint64(len(ax.levels)))
	for _, lv := range ax.levels {
		e.U(uint64(lv.depth))
		e.U(uint64(len(lv.members)))
		e.U(uint64(lv.members[0].ext.Off))
	}
	e.U(uint64(ax.aExt.Off))
	e.U(uint64(ax.k))
	ax.encodeHashedGroups(&e, ax.k)
	return e.Bytes()
}

// recordPos returns the bit position of every node's record on ox's device,
// by node ID, replaying the layout's placement from the first block after A
// (block 0 on an image without A).
func recordPos(ox *Optimal) []int64 {
	l := ox.layout
	bb := int64(ox.disk.BlockBits())
	first := iomodel.BlockID((ox.aExt.End() + bb - 1) / bb)
	pos := make([]int64, len(ox.tree.Nodes))
	placeLayout(ox.disk, ox.tree, first, l.lenBits, l.kBits, func(v *Node, p int64) { pos[v.ID] = p })
	return pos
}

// TestLayoutRecords: the node records are the exact directory of a file of
// revision 1 (withLayout lays a build out as those files were). Over block
// sizes and alphabets, a reopen rebuilds from them the extents, orders and
// record placement the writer made; a record whose length runs past the image
// and a record on a node that is no member are rejected at open, and a leaf
// record with an order only under the rule of files whose leaves were all
// gamma-coded; every node's record reads back as its member's entry; and
// planning a query reads none of them.
func TestLayoutRecords(t *testing.T) {
	opts := ApproxOptions{Seed: 3}
	for _, bb := range []int{512, 2048, 32768} {
		for _, sigma := range []int{2, 256, 4096} {
			t.Run(fmt.Sprintf("B=%d/sigma=%d", bb, sigma), func(t *testing.T) {
				col := workload.Zipf(3*sigma+5000, sigma, 1.0, int64(bb+sigma))
				built, err := buildApproxReferenceK(iomodel.NewDisk(iomodel.Config{BlockBits: bb}), col, opts, maxJ, 1)
				if err != nil {
					t.Fatal(err)
				}
				d, ax := withLayout(t, built)
				got, err := reopen(t, d, ax, opts)
				if err != nil {
					t.Fatal(err)
				}
				for li, lv := range ax.levels {
					if !slices.Equal(got.levels[li].members, lv.members) {
						t.Fatalf("level %d: reopened members differ from the build's", li)
					}
				}
				gl, wl := got.layout, ax.layout
				gp, wp := recordPos(got.Optimal), recordPos(ax.Optimal)
				if !slices.Equal(gp, wp) || gl.nblocks != wl.nblocks || gl.lenBits != wl.lenBits || gl.kBits != wl.kBits {
					t.Fatalf("reopened layout: %d blocks of %d+%d-bit records, built %d of %d+%d; placements equal: %v",
						gl.nblocks, gl.lenBits, gl.kBits, wl.nblocks, wl.lenBits, wl.kBits, slices.Equal(gp, wp))
				}
				if got.SizeBits() != ax.SizeBits() || got.SpaceLedger().ResidentBits() != d.AllocatedBits() {
					t.Fatalf("reopened SizeBits %d, built %d", got.SizeBits(), ax.SizeBits())
				}
				requireRecordsHoldMembers(t, ax)
				requirePlanningReadsNothing(t, got, col)
			})
		}
	}

	// No hashed sets follow the layout of an exact-only image, so a record's
	// length can run past it.
	col := workload.Zipf(20000, 16, 1.0, 11)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ax, err := BuildExactOn(NewWorkers(1), d, col, opts.OptimalOptions)
	if err != nil {
		t.Fatal(err)
	}
	d, ax = withLayout(t, ax)
	pos := recordPos(ax.Optimal)
	l := ax.layout
	width := l.recordBits()
	// craft overwrites node v's record with rec, reopens, runs then on the
	// reopened index if the reopen succeeded, and restores the record.
	craft := func(v *Node, rec uint64, then func(*Approx) error) error {
		tc := d.NewTouch()
		defer tc.Close()
		old, err := tc.ReadBits(pos[v.ID], width)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.WriteBits(pos[v.ID], rec, width); err != nil {
			t.Fatal(err)
		}
		got, openErr := reopen(t, d, ax, opts)
		if openErr == nil && then != nil {
			openErr = then(got)
		}
		if err := tc.WriteBits(pos[v.ID], old, width); err != nil {
			t.Fatal(err)
		}
		return openErr
	}
	// The member placed last on the image: a length of all ones runs past it.
	var last *Node
	var lastOff int64
	var leaf, none *Node
	eachMember(ax.tree, materialDepths(ax.tree.Height, 2), func(v *Node, li, mi int) {
		if off := ax.levels[li].members[mi].ext.Off; off >= lastOff {
			last, lastOff = v, off
		}
		if v.IsLeaf() {
			leaf = v
		}
	})
	for _, v := range ax.tree.Nodes {
		if memberLevel(materialDepths(ax.tree.Height, 2), v) < 0 {
			none = v
		}
	}
	if none == nil || l.kBits == 0 {
		t.Fatalf("fixture has no non-member node (%v) or no order field (%d bits)", none == nil, l.kBits)
	}
	long := uint64(1)<<l.lenBits - 1
	if int64(long) <= d.AllocatedBits()-lastOff {
		t.Fatalf("a %d-bit length cannot run past the image from bit %d of %d", l.lenBits, lastOff, d.AllocatedBits())
	}
	depths := materialDepths(ax.tree.Height, 2)
	gammaLeaves := func(got *Approx) error { return got.openLayout(depths, l.lenBits, l.kBits, false) }
	for _, tc := range []struct {
		what string
		v    *Node
		rec  uint64
		then func(*Approx) error
		want string
	}{
		{"a member extent past the image", last, long << l.kBits, nil, "exceeds image"},
		{"a leaf record at order 1 under gamma leaves", leaf, 1<<l.kBits | 1, gammaLeaves, "(leaf true) at order"},
		{"a record on a node that is no member", none, 1 << l.kBits, nil, "is no member"},
	} {
		if err := craft(tc.v, tc.rec, tc.then); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: open error %v, want %q", tc.what, err, tc.want)
		}
	}
	if err := craft(leaf, 1<<l.kBits|1, nil); err != nil {
		t.Fatalf("a leaf record at order 1: open error %v", err)
	}
	if _, err := reopen(t, d, ax, opts); err != nil {
		t.Fatalf("restored records: %v", err)
	}
}

// requireRecordsHoldMembers reads every node's record off ax's device and
// holds it to its member's directory entry (0 for a node that is no member).
func requireRecordsHoldMembers(t *testing.T, ax *Approx) {
	t.Helper()
	ox := ax.Optimal
	width := ox.layout.recordBits()
	recs, _, _ := nodeRecords(ox.tree, materialDepths(ox.tree.Height, 2), levelMembers(ox))
	tc := ox.disk.NewTouch()
	defer tc.Close()
	for id, p := range recordPos(ox) {
		rec, err := tc.ReadBits(p, width)
		if err != nil {
			t.Fatal(err)
		}
		if rec != recs[id] {
			t.Fatalf("node %d's record reads %#x, its member is %#x", id, rec, recs[id])
		}
	}
}

// requirePlanningReadsNothing plans ranges over ax, exact and complemented,
// through planQuiet: z and the cover come from memory, so a query's reads are
// its member extents alone.
func requirePlanningReadsNothing(t *testing.T, ax *Approx, col workload.Column) {
	t.Helper()
	for _, length := range []int{1, max(1, col.Sigma/8), col.Sigma} {
		for _, q := range workload.RandomRanges(10, col.Sigma, length, int64(col.Sigma+length)) {
			r := index.Range{Lo: q.Lo, Hi: q.Hi}
			plan := planQuiet(t, ax.Optimal, r)
			if z := ax.tree.Count(r.Lo, r.Hi); z > 0 && !plan.Complement && len(plan.Chunks) == 0 {
				t.Fatalf("%v: no chunks for %d rows", r, z)
			}
		}
	}
}

// levelMembers returns ox's members, level by level.
func levelMembers(ox *Optimal) [][]member {
	out := make([][]member, len(ox.levels))
	for li := range ox.levels {
		out[li] = ox.levels[li].members
	}
	return out
}
