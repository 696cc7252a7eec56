package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// planBlocks returns the distinct device blocks query r touches, computed by
// hand from the index's directory: the extent of every cover chunk in the
// plan, and nothing else — planning reads neither A nor the tree layout.
// This is the per-query-session cost reference the shared-scan accounting is
// checked against, built without going through the batch execution path.
func planBlocks(ox *Optimal, plan QueryPlan) map[int64]struct{} {
	bb := int64(ox.disk.BlockBits())
	set := make(map[int64]struct{})
	for _, c := range plan.Chunks {
		lv := &ox.levels[c.Level]
		off, end := lv.members[c.I].ext.Off, lv.members[c.J-1].ext.End()
		if end == off {
			continue
		}
		for b := off / bb; b <= (end-1)/bb; b++ {
			set[b] = struct{}{}
		}
	}
	return set
}

// answerBatch answers rs through Answer, the package's batch entry, into
// slots of its own.
func answerBatch(ox *Optimal, rs []index.Range) ([]*cbitmap.Bitmap, index.QueryStats, error) {
	out := make([]*cbitmap.Bitmap, len(rs))
	st, err := ox.Answer(context.Background(), rs, out, true)
	return out, st, err
}

// distinctRanges returns rs without its repeats, first occurrences in order:
// Answer's callers deduplicate, so the tests hand it distinct ranges too.
func distinctRanges(rs []index.Range) []index.Range {
	var out []index.Range
	for _, r := range rs {
		if !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// runBatchOracle answers the distinct ranges of rs as one batch through
// Answer and through looped Query calls, asserting bit-identical answers and
// the exact shared-scan accounting: batch Reads must equal the blocks of the
// union of the queries' hand-computed plans, and Reads + SharedSaved must
// equal the sum of the per-query session costs (which the looped standalone
// queries also report).
func runBatchOracle(t *testing.T, ox *Optimal, rs []index.Range) index.QueryStats {
	t.Helper()
	rs = distinctRanges(rs)
	got, stats, err := answerBatch(ox, rs)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	union := make(map[int64]struct{})
	perQuerySum, standaloneSum := 0, 0
	for i, r := range rs {
		want, st, err := ox.Query(r)
		if err != nil {
			t.Fatalf("Query %v: %v", r, err)
		}
		if !cbitmap.Equal(got[i], want) {
			t.Fatalf("range %d %v: batch answer differs from single query", i, r)
		}
		// Query runs the batch executor too: the decode-then-union oracle is
		// the independent reference both answers are held to.
		ref, _, err := ox.QueryUnfused(r)
		if err != nil {
			t.Fatalf("QueryUnfused %v: %v", r, err)
		}
		if !cbitmap.Equal(got[i], ref) || !cbitmap.Equal(want, ref) {
			t.Fatalf("range %d %v: answer differs from the decode-then-union oracle", i, r)
		}
		plan, pst, err := ox.PlanQuery(r)
		if err != nil {
			t.Fatalf("PlanQuery %v: %v", r, err)
		}
		if pst != (index.QueryStats{}) {
			t.Fatalf("PlanQuery %v: planning reported %+v", r, pst)
		}
		blocks := planBlocks(ox, plan)
		if len(blocks) != st.Reads {
			t.Fatalf("range %v: hand-computed plan covers %d blocks, standalone query read %d",
				r, len(blocks), st.Reads)
		}
		perQuerySum += len(blocks)
		standaloneSum += st.Reads
		for b := range blocks {
			union[b] = struct{}{}
		}
	}
	if len(rs) > 1 {
		if stats.Reads != len(union) {
			t.Fatalf("batch read %d blocks, union of hand-computed plans covers %d", stats.Reads, len(union))
		}
		if stats.Reads+stats.SharedSaved != perQuerySum {
			t.Fatalf("Reads %d + SharedSaved %d != per-query-session cost %d",
				stats.Reads, stats.SharedSaved, perQuerySum)
		}
		if standaloneSum != perQuerySum {
			t.Fatalf("standalone queries read %d blocks, hand-computed plans cover %d", standaloneSum, perQuerySum)
		}
	}
	return stats
}

// TestQueryBatchDifferential is the planner's differential oracle on random
// columns: batches of overlapping and dense (complement-path) ranges must
// answer bit-identically to looped Query and satisfy the exact shared-read
// accounting.
func TestQueryBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cols := []workload.Column{
		workload.Uniform(6000, 128, 42),
		workload.Zipf(5000, 64, 1.3, 43),
		workload.Sorted(3000, 40),
	}
	for ci, col := range cols {
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
		ox, err := BuildOptimalDefault(d, col)
		if err != nil {
			t.Fatal(err)
		}
		sigma := col.Sigma
		for trial := 0; trial < 4; trial++ {
			var rs []index.Range
			for q := 0; q < 10; q++ {
				lo := uint32(rng.Intn(sigma))
				hi := lo + uint32(rng.Intn(sigma-int(lo)))
				rs = append(rs, index.Range{Lo: lo, Hi: hi})
			}
			rs = append(rs, index.Range{Lo: 0, Hi: uint32(sigma) - 1}) // densest: complement path
			runBatchOracle(t, ox, rs)
		}
		_ = ci
	}
}

// TestQueryBatchSharingWin pins the acceptance target on an overlap-heavy
// 32-range batch: the shared scan must read at most half the blocks the same
// batch pays through per-query sessions. I/O counts on the simulated device
// are deterministic, so the factor is asserted, not just benchmarked.
func TestQueryBatchSharingWin(t *testing.T) {
	col := workload.Uniform(1<<15, 256, 7)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	ox, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	rs := make([]index.Range, 32)
	for i := range rs {
		// Clustered ranges of width 24 over a 64-character window: every
		// query shares most of its cover frontier with several others.
		lo := uint32(rng.Intn(64))
		rs[i] = index.Range{Lo: lo, Hi: lo + 24}
	}
	stats := runBatchOracle(t, ox, rs)
	if stats.SharedSaved < stats.Reads {
		t.Fatalf("overlap-heavy batch: Reads=%d SharedSaved=%d, want >=2x sharing win",
			stats.Reads, stats.SharedSaved)
	}
}

// TestQueryBatchSharedCorruptMember guards the batch path for a member that
// several plans share: every merge that reads it validates it, as no shared
// pass does ahead of them. On a writable disk, where no query's validation is
// remembered, the batch answers as looped queries do; after a bit is flipped
// in a member two overlapping ranges share, the batch fails with a
// cbitmap.ErrCorrupt.
func TestQueryBatchSharedCorruptMember(t *testing.T) {
	col := workload.Uniform(6000, 40, 12)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ox, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	rs := []index.Range{{Lo: 4, Hi: 15}, {Lo: 4, Hi: 19}}
	runBatchOracle(t, ox, rs)

	var m member
	second := readMembers(t, ox, rs[1])
	for _, a := range readMembers(t, ox, rs[0]) {
		for _, b := range second {
			if a == b && a.lv.members[a.k].ext.Bits > m.ext.Bits {
				m = a.lv.members[a.k]
			}
		}
	}
	if m.ext.Bits == 0 {
		t.Fatalf("ranges %v share no member", rs)
	}
	tc := d.NewTouch()
	defer tc.Close()
	flip := func(pos int64) {
		v, err := tc.ReadBits(pos, 1)
		if err == nil {
			err = tc.WriteBits(pos, v^1, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// The first bit whose flip a validating decode of the member rejects.
	caught := false
	for pos := m.ext.Off; pos < m.ext.End() && !caught; pos++ {
		flip(pos)
		rd, err := tc.Reader(m.ext)
		if err != nil {
			t.Fatal(err)
		}
		var s cbitmap.Stream
		if err := s.InitDecode(rd, 0, int(m.ext.Bits), m.card, ox.tree.n, 0, uint(m.k)); err != nil {
			t.Fatal(err)
		}
		for s.Left() > 0 {
			if _, ok := s.Next(); !ok {
				break
			}
		}
		if caught = s.Err() != nil; !caught {
			flip(pos)
		}
	}
	if !caught {
		t.Fatal("no single bit flip in the shared member fails its validation")
	}
	if _, _, err := answerBatch(ox, rs); !errors.Is(err, cbitmap.ErrCorrupt) {
		t.Fatalf("batch over a corrupt shared member: error %v, want cbitmap.ErrCorrupt", err)
	}
}

// TestQueryBatchEdgeCases covers the degenerate shapes around the planner:
// empty batches, a batch of one range, a range handed over twice, and
// invalid ranges. Deduplication is the callers' (the shard and root batch
// entries, whose tests pin that repeats share one answer).
func TestQueryBatchEdgeCases(t *testing.T) {
	col := workload.Uniform(2000, 32, 9)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ox, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	if out, _, err := answerBatch(ox, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v len=%d", err, len(out))
	}
	r := index.Range{Lo: 3, Hi: 9}
	out, st, err := answerBatch(ox, []index.Range{r})
	if err != nil {
		t.Fatal(err)
	}
	if st.SharedSaved != 0 {
		t.Fatalf("single range reported SharedSaved=%d", st.SharedSaved)
	}
	want, wst, err := ox.Query(r)
	if err != nil {
		t.Fatal(err)
	}
	if !cbitmap.Equal(out[0], want) || st != wst {
		t.Fatal("single-range batch answer or stats differ from Query")
	}
	// A range handed over twice is planned and merged twice: equal answers,
	// its reads counted once and the second plan's as shared.
	twice, st, err := answerBatch(ox, []index.Range{r, r})
	if err != nil {
		t.Fatal(err)
	}
	if !cbitmap.Equal(twice[0], want) || !cbitmap.Equal(twice[1], want) {
		t.Fatal("a repeated range's answers differ from Query")
	}
	if st.Reads != wst.Reads || st.SharedSaved != wst.Reads {
		t.Fatalf("repeated range: Reads %d SharedSaved %d, want %d and %d", st.Reads, st.SharedSaved, wst.Reads, wst.Reads)
	}
	if _, _, err := answerBatch(ox, []index.Range{{Lo: 1, Hi: 2}, {Lo: 5, Hi: 99}}); err == nil {
		t.Fatal("out-of-alphabet range accepted")
	}
	if _, _, err := ox.PlanQuery(index.Range{Lo: 9, Hi: 3}); err == nil {
		t.Fatal("inverted range accepted by PlanQuery")
	}
}

// TestExecuteOverlayAlone: a plan with no chunks answers its overlay alone,
// the merge's lone stream, sorted and deduplicated, and fails a position
// outside the answer's universe as the merge fails a corrupt member.
func TestExecuteOverlayAlone(t *testing.T) {
	ox, err := BuildOptimalDefault(iomodel.NewDisk(iomodel.Config{BlockBits: 512}), workload.Uniform(2000, 32, 1))
	if err != nil {
		t.Fatal(err)
	}
	run := func(overlay ...int64) (*cbitmap.Bitmap, index.QueryStats, error) {
		tc := ox.disk.NewTouch()
		defer tc.Close()
		sc := getScratch()
		defer sc.release()
		sc.overlay = append(sc.overlay, overlay...)
		var stats index.QueryStats
		answers, err := sc.execute(context.Background(), tc, sc.growPlans(1), ox.exactDir, 64, &stats)
		if err != nil {
			return nil, stats, err
		}
		return answers[0], stats, nil
	}
	got, stats, err := run(9, 3, 9, 63, 0)
	if err != nil || !slices.Equal(got.Positions(), []int64{0, 3, 9, 63}) || got.Universe() != 64 || stats.BitsRead != 0 {
		t.Fatalf("overlay alone: %v, %+v, %v", got, stats, err)
	}
	if _, _, err := run(5, 64); !errors.Is(err, cbitmap.ErrCorrupt) {
		t.Fatalf("position outside the universe: %v, want ErrCorrupt", err)
	}
}

// TestPlanQueryShape sanity-checks the exposed plan: planning reads nothing,
// chunks land on materialised levels, member runs are non-empty and tile the
// query's record range (summed member weights equal z, or n-z on the
// complement path).
func TestPlanQueryShape(t *testing.T) {
	col := workload.Uniform(4000, 64, 10)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ox, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []index.Range{{Lo: 0, Hi: 5}, {Lo: 10, Hi: 40}, {Lo: 0, Hi: 63}} {
		plan, st, err := ox.PlanQuery(r)
		if err != nil {
			t.Fatal(err)
		}
		if st != (index.QueryStats{}) || d.Stats().Sessions != 0 {
			t.Fatalf("plan %v: planning reported %+v, opened %d sessions", r, st, d.Stats().Sessions)
		}
		var covered int64
		for _, c := range plan.Chunks {
			if c.Level < 0 || c.Level >= len(ox.levels) || c.I >= c.J {
				t.Fatalf("plan %v: bad chunk %+v", r, c)
			}
			lv := &ox.levels[c.Level]
			covered += lv.members[c.J-1].end - lv.members[c.I].start
		}
		z := ox.tree.prefix[r.Hi+1] - ox.tree.prefix[r.Lo]
		want := z
		if plan.Complement {
			want = ox.tree.n - z
		}
		if covered != want {
			t.Fatalf("plan %v: chunks cover %d records, want %d (complement=%v)",
				r, covered, want, plan.Complement)
		}
	}
}
