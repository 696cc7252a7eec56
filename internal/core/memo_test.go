package core

import (
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// warmReadOnly builds an index on a writable disk and reopens it over a Freeze
// view of that disk, a read-only device whose sessions are stable, then runs
// every point query on the reopened index.
func warmReadOnly(t *testing.T, col workload.Column) (built, ro *Approx) {
	t.Helper()
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	opts := ApproxOptions{Seed: 7}
	built, err := BuildApprox(d, col, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ro, err = reopen(t, d.Freeze(), built, opts); err != nil {
		t.Fatal(err)
	}
	for c := range col.Sigma {
		if _, _, err := ro.Query(index.Range{Lo: uint32(c), Hi: uint32(c)}); err != nil {
			t.Fatal(err)
		}
	}
	return built, ro
}

// memberRef names one member of a materialised level.
type memberRef struct {
	lv *matLevel
	k  int
}

// readMembers returns the members r's plan reads, in record order.
func readMembers(t *testing.T, ox *Optimal, r index.Range) []memberRef {
	t.Helper()
	plan, _, err := ox.PlanQuery(r)
	if err != nil {
		t.Fatal(err)
	}
	var out []memberRef
	for _, c := range plan.Chunks {
		for k := c.I; k < c.J; k++ {
			out = append(out, memberRef{&ox.levels[c.Level], k})
		}
	}
	return out
}

// TestValidationMemoRecordsLasts: after one pass over every key on a
// read-only device, every key's member remembers its true largest position,
// no member remembers a wrong one, and a second pass — exact and batched —
// answers with the bytes and the reads of the index built on a writable disk,
// whose memo stays empty.
func TestValidationMemoRecordsLasts(t *testing.T) {
	col := workload.Uniform(6000, 40, 3)
	built, ro := warmReadOnly(t, col)
	ref := ro.tree.positionsRef(col.X)
	for li := range ro.levels {
		lv := &ro.levels[li]
		for k, m := range lv.members {
			if v := lv.memo[k].Load(); v != 0 && v-1 != ref(m.start, m.end)[m.card-1] {
				t.Fatalf("level %d member %d: memo holds last %d, want %d", li, k, v-1, ref(m.start, m.end)[m.card-1])
			}
		}
	}
	var rs []index.Range
	for c := range col.Sigma {
		for _, m := range readMembers(t, ro.Optimal, index.Range{Lo: uint32(c), Hi: uint32(c)}) {
			if m.lv.memo[m.k].Load() == 0 {
				t.Fatalf("key %d: member %d of depth %d not remembered after its query", c, m.k, m.lv.depth)
			}
		}
		rs = append(rs, index.Range{Lo: uint32(c), Hi: uint32(c)}, index.Range{Lo: uint32(c), Hi: uint32(min(c+3, col.Sigma-1))})
	}
	for _, r := range rs {
		got, gst, err := ro.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		want, wst, err := built.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		if !cbitmap.Equal(got, want) || gst != wst {
			t.Fatalf("%v: warm read-only answer or stats differ from the built index's", r)
		}
	}
	rs = distinctRanges(rs)
	got, gst, err := answerBatch(ro.Optimal, rs)
	if err != nil {
		t.Fatal(err)
	}
	want, wst, err := answerBatch(built.Optimal, rs)
	if err != nil {
		t.Fatal(err)
	}
	if gst != wst {
		t.Fatalf("batch stats %+v, built index %+v", gst, wst)
	}
	for i := range rs {
		if !cbitmap.Equal(got[i], want[i]) {
			t.Fatalf("batch answer %v differs from the built index's", rs[i])
		}
	}
	for li, lv := range built.levels {
		for k := range lv.memo {
			if lv.memo[k].Load() != 0 {
				t.Fatalf("level %d member %d: memo written on a writable disk", li, k)
			}
		}
	}
}

// TestValidationMemoReplays pins that a remembered member is taken on faith:
// with a last planted past every row for a point query's first member, the
// ordered concatenation finds the next member's head below it and fails,
// through Query and Answer alike, where validating the member would have
// answered.
func TestValidationMemoReplays(t *testing.T) {
	col := workload.Uniform(6000, 40, 4)
	_, ro := warmReadOnly(t, col)
	r := index.Range{Lo: 17, Hi: 17}
	ms := readMembers(t, ro.Optimal, r)
	if len(ms) < 2 {
		t.Fatalf("key %d reads %d members; the test needs two", r.Lo, len(ms))
	}
	ms[0].lv.memo[ms[0].k].Store(ro.tree.n) // remembers last n-1
	if _, _, err := ro.Query(r); err == nil {
		t.Fatal("Query re-validated a member the memo vouches for")
	}
	if _, _, err := answerBatch(ro.Optimal, []index.Range{r, {Lo: 16, Hi: 17}}); err == nil {
		t.Fatal("Answer re-validated a member the memo vouches for")
	}
}

// TestValidationMemoOffOnWritableDisk: a writable device never takes an
// earlier validation on faith. After every key has been queried, the tail of
// a member is zeroed behind the index's back (the head stays decodable, so
// only a validating scan can notice); the query reading it must still fail.
func TestValidationMemoOffOnWritableDisk(t *testing.T) {
	col := workload.Uniform(6000, 32, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	for c := range 32 {
		if _, _, err := ix.Query(index.Range{Lo: uint32(c), Hi: uint32(c)}); err != nil {
			t.Fatal(err)
		}
	}
	const c = 9
	var m member
	for _, ref := range readMembers(t, ix, index.Range{Lo: c, Hi: c}) {
		if mm := ref.lv.members[ref.k]; mm.ext.Bits > m.ext.Bits {
			m = mm
		}
	}
	if m.ext.Bits < 128 {
		t.Fatalf("largest member of %d bits is too short to keep its head intact", m.ext.Bits)
	}
	tc := d.NewTouch()
	if err := tc.WriteBits(m.ext.End()-64, 0, 64); err != nil {
		t.Fatal(err)
	}
	tc.Close()
	if _, _, err := ix.Query(index.Range{Lo: c, Hi: c}); err == nil {
		t.Fatal("zeroed member tail served after the member was queried once")
	}
}
