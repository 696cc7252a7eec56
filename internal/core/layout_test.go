package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// recordPos returns the bit position of every node's record on ox's device,
// by node ID, replaying the layout's placement.
func recordPos(ox *Optimal) []int64 {
	l := ox.layout
	pos := make([]int64, len(ox.tree.Nodes))
	placeLayout(ox.disk, ox.tree, l.blockOf[ox.tree.Root.ID], l.lenBits, l.kBits, func(v *Node, p int64) { pos[v.ID] = p })
	return pos
}

// recordingSession is a query session that remembers where it read.
type recordingSession struct {
	tc  *iomodel.Touch
	pos []int64
}

func (s *recordingSession) ReadBits(pos int64, n int) (uint64, error) {
	s.pos = append(s.pos, pos)
	return s.tc.ReadBits(pos, n)
}

// TestLayoutRecords: the node records are the exact directory. Over block
// sizes and alphabets, a reopen rebuilds from them the extents, orders and
// block assignment the build made; a record whose length runs past the image,
// a leaf record with an order and a record on a node that is no member are
// rejected at open; and every structure block a query charges holds the
// record of a node the query visited.
func TestLayoutRecords(t *testing.T) {
	opts := ApproxOptions{Seed: 3}
	for _, bb := range []int{512, 2048, 32768} {
		for _, sigma := range []int{2, 256, 4096} {
			t.Run(fmt.Sprintf("B=%d/sigma=%d", bb, sigma), func(t *testing.T) {
				col := workload.Zipf(3*sigma+5000, sigma, 1.0, int64(bb+sigma))
				d := iomodel.NewDisk(iomodel.Config{BlockBits: bb})
				ax, err := BuildApprox(d, col, opts)
				if err != nil {
					t.Fatal(err)
				}
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
				if !slices.Equal(gl.blockOf, wl.blockOf) || gl.nblocks != wl.nblocks || gl.lenBits != wl.lenBits || gl.kBits != wl.kBits {
					t.Fatalf("reopened layout: %d blocks of %d+%d-bit records, built %d of %d+%d; blocks equal: %v",
						gl.nblocks, gl.lenBits, gl.kBits, wl.nblocks, wl.lenBits, wl.kBits, slices.Equal(gl.blockOf, wl.blockOf))
				}
				if got.SizeBits() != ax.SizeBits() || got.SpaceLedger().ResidentBits() != d.AllocatedBits() {
					t.Fatalf("reopened SizeBits %d, built %d", got.SizeBits(), ax.SizeBits())
				}
				requireChargesVisitedRecords(t, ax, col)
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
	pos := recordPos(ax.Optimal)
	l := ax.layout
	width := l.recordBits()
	// craft overwrites node v's record with rec, reopens, and restores it.
	craft := func(v *Node, rec uint64) error {
		tc := d.NewTouch()
		defer tc.Close()
		old, err := tc.ReadBits(pos[v.ID], width)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.WriteBits(pos[v.ID], rec, width); err != nil {
			t.Fatal(err)
		}
		_, openErr := reopen(t, d, ax, opts)
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
	for _, tc := range []struct {
		what string
		v    *Node
		rec  uint64
		want string
	}{
		{"a member extent past the image", last, long << l.kBits, "exceeds image"},
		{"a leaf record at order 1", leaf, 1<<l.kBits | 1, "at order 1"},
		{"a record on a node that is no member", none, 1 << l.kBits, "is no member"},
	} {
		if err := craft(tc.v, tc.rec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: open error %v, want %q", tc.what, err, tc.want)
		}
	}
	if _, err := reopen(t, d, ax, opts); err != nil {
		t.Fatalf("restored records: %v", err)
	}
}

// requireChargesVisitedRecords plans ranges over ax and holds every
// structure block the cover charges to the records of the nodes it visited:
// each charged block is one of theirs and holds one of their records, which
// reads back as that node's member entry.
func requireChargesVisitedRecords(t *testing.T, ax *Approx, col workload.Column) {
	t.Helper()
	ox := ax.Optimal
	pos := recordPos(ox)
	bb := int64(ox.disk.BlockBits())
	width := ox.layout.recordBits()
	recs, _, _ := nodeRecords(ox.tree, materialDepths(ox.tree.Height, 2), levelMembers(ox))
	for _, q := range workload.RandomRanges(30, col.Sigma, max(1, col.Sigma/8), int64(col.Sigma)) {
		r := index.Range{Lo: q.Lo, Hi: q.Hi}
		qlo, qhi := ox.tree.RecordRange(r.Lo, r.Hi)
		visited := make(map[iomodel.BlockID][]*Node)
		note := func(v *Node) { visited[ox.layout.blockOf[v.ID]] = append(visited[ox.layout.blockOf[v.ID]], v) }
		for _, v := range ox.tree.Cover(qlo, qhi, note) {
			note(v)
		}
		tc := ox.disk.NewTouch()
		ses := &recordingSession{tc: tc}
		var plan QueryPlan
		if err := ox.coverChunks(ses, qlo, qhi, &plan); err != nil {
			t.Fatal(err)
		}
		charged := make(map[iomodel.BlockID]bool)
		for _, p := range ses.pos {
			blk := iomodel.BlockID(p / bb)
			charged[blk] = true
			holds := false
			for _, v := range visited[blk] {
				if pos[v.ID]/bb != int64(blk) {
					continue
				}
				rec, err := tc.ReadBits(pos[v.ID], width)
				if err != nil {
					t.Fatal(err)
				}
				if rec != recs[v.ID] {
					t.Fatalf("%v: node %d's record reads %#x, its member is %#x", r, v.ID, rec, recs[v.ID])
				}
				holds = true
			}
			if !holds {
				t.Fatalf("%v: charged block %d holds no record of a visited node", r, blk)
			}
		}
		tc.Close()
		if len(charged) != len(visited) {
			t.Fatalf("%v: %d structure blocks charged, the visited nodes lie in %d", r, len(charged), len(visited))
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
