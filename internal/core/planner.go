// Shared-scan query executor.
//
// The paper's Theorem 2 query bound is per-query: a range reads its cover
// chunks, a few contiguous member runs per materialised level (coverChunks
// makes each run maximal). A batch of overlapping ranges shares most of its
// cover frontier, so the batch is planned at cover-chunk granularity first
// and executed in one shared pass: every query's plan is computed without
// executing it (PlanQuery), the requested member runs are coalesced per
// level, each coalesced extent is read exactly once in the batch's one Touch
// session, and every query then merges cardinality-bounded Stream views over
// the shared extent buffers. A member's bits are validated by the merges
// that read it until one stable session has validated them; the handle's
// memo then keeps its largest position and later merges replay it. In the
// Aggarwal–Vitter I/O model the batch therefore reads the blocks of the
// *union* of its cover extents, not the sum — the saved reads are reported
// in QueryStats.SharedSaved. A single query is the batch of one plan, whose
// sharing is zero: every static query — exact, point, approximate and Warmup
// — runs the one executor. Optimal has one batch entry, Answer, which writes
// into slots its caller owns and leaves deduplication to the caller (a
// sharded index's fan-out, which deduplicates once for all its shards), and
// one single-range form, Query, over a slot on its own stack. A hashed answer
// is its cover's plan run over the j-th hashed sets, whose sets dropped for
// being no shorter than their exact members are read exact and hashed into
// the overlay the executor merges as one more stream.
//
// Planning reads nothing. The paper's query bound assumes that internal
// memory holds (|Σ| lg n)^δ blocks, enough for the prefix counts A and the
// tree with its member directory, and every static handle keeps them in
// memory from its build or open (the directory from the metadata, or from a
// file of revision 1 or before from its tree layout's blocks). The tree costs
// no memory of its own: it is a split rule over A (tree.go). z and the cover
// come from there, so a query's block reads are exactly the member extents it
// decodes.
//
// Nor does planning repeat for a point query. Its plan depends only on its
// character, over a tree and levels that never change, so a handle plans
// Query(c, c) once, on the first ask (planPoint), and keeps the plan in c's
// slot: 8 bytes of RAM per character for the slots, like the prefix counts,
// and about 56 more per character asked (the plan and its usually one
// chunk). Ranges over several characters, and PlanQuery, plan afresh.

package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// PlanChunk identifies one maximal run of cover-frontier members a query
// reads: members [I,J) of materialised level Level, whose concatenated extent
// is a single contiguous read (matLevel members tile the level in record
// order). A run holds the frontiers of every consecutive cover node at one
// level, so the next chunk of a plan is at another level or starts past J.
type PlanChunk struct {
	Level int
	I, J  int
}

// QueryPlan is the cover plan of one range query: the maximal member runs
// whose extents the query reads, in record order — a point query's is
// usually one run — plus whether the dense-answer complement
// trick applies (in which case the chunks cover the two complementary record
// ranges and the merge inverts the union in the same pass) and, when it does
// not, whether the record range lies inside one character — records are
// ordered by character, then position (§2.2), so the exact members of such a
// plan hold disjoint position ranges that increase in chunk order, and
// execute concatenates them (cbitmap.Concat, which verifies it) in one
// exact-size pass, with no decode stream per member.
type QueryPlan struct {
	Complement bool
	Ordered    bool
	Chunks     []PlanChunk
}

// PlanQuery computes the cover plan of r without executing it. Planning
// reads nothing — z comes from the in-memory prefix counts (the paper's A)
// and the cover from the tree's split rule over them, as the file comment
// explains — so
// the returned stats are zero, and executing the plan is purely a matter of
// reading the chunk extents, which is what lets a batch coalesce the extents
// of many plans and read each one once.
func (ox *Optimal) PlanQuery(r index.Range) (plan QueryPlan, stats index.QueryStats, err error) {
	if err := r.Valid(ox.tree.sigma); err != nil {
		return QueryPlan{}, stats, err
	}
	if err := ox.planInto(r, &plan); err != nil {
		return QueryPlan{}, stats, err
	}
	return plan, stats, nil
}

// reset empties the plan, keeping its chunk storage.
func (p *QueryPlan) reset() {
	p.Complement, p.Ordered = false, false
	p.Chunks = p.Chunks[:0]
}

// planInto computes r's plan over the record range [qlo,qhi) it occupies in
// the sorted order, z = qhi-qlo.
func (ox *Optimal) planInto(r index.Range, plan *QueryPlan) error {
	qlo, qhi := ox.tree.RecordRange(r.Lo, r.Hi)
	return ox.planRecords(qlo, qhi, plan)
}

// planPoint sets plan to the plan of Query(c, c): planned by planInto on the
// first ask and kept in c's slot, then copied, since plan's chunk storage is
// the caller's to reuse. Queries that race to a cold slot each plan it; the
// plans are equal, and the last one stored is kept.
func (ox *Optimal) planPoint(c uint32, plan *QueryPlan) error {
	kept := ox.points[c].Load()
	if kept == nil {
		kept = new(QueryPlan)
		if err := ox.planInto(index.Range{Lo: c, Hi: c}, kept); err != nil {
			return err
		}
		ox.points[c].Store(kept)
	}
	plan.Complement, plan.Ordered = kept.Complement, kept.Ordered
	plan.Chunks = append(plan.Chunks[:0], kept.Chunks...)
	return nil
}

// planRecords plans the record range [qlo,qhi): its cover, or for a dense
// answer the covers of the two complementary ranges, whose union the merge
// inverts in the same pass (§2.1).
func (ox *Optimal) planRecords(qlo, qhi int64, plan *QueryPlan) error {
	n := ox.tree.n
	plan.Complement = qhi-qlo > n/2
	if plan.Complement {
		if err := coverPlanner(ox, 0, qlo, plan); err != nil {
			return err
		}
		return coverPlanner(ox, qhi, n, plan)
	}
	return ox.planCover(qlo, qhi, plan)
}

// planCover plans the record range [qlo,qhi) as its own cover, and notes
// whether one character holds all of it.
func (ox *Optimal) planCover(qlo, qhi int64, plan *QueryPlan) error {
	plan.Ordered = qlo < qhi && qhi <= ox.tree.prefix[ox.tree.charOf(qlo)+1]
	return coverPlanner(ox, qlo, qhi, plan)
}

// coverPlanner is the cover planner every plan goes through; the tests swap
// in the one-chunk-per-cover-node oracle to pin that runs change nothing
// downstream.
var coverPlanner = (*Optimal).coverChunks

// coverChunks appends the cover of the record range [qlo,qhi) to the plan as
// maximal member runs. The descent yields the cover in record order and a
// level's members lie in record order, so a cover node that starts where the
// last run at its level ends extends that run: only a run's first node
// searches the directory, and the level is looked up only when the cover
// depth changes.
func (ox *Optimal) coverChunks(qlo, qhi int64, plan *QueryPlan) error {
	depth, li := -1, 0
	return ox.tree.cover(qlo, qhi, func(v Node) error {
		if v.Depth != depth {
			depth, li = v.Depth, ox.levelFor(v.Depth)
		}
		lv := &ox.levels[li]
		if k := len(plan.Chunks) - 1; k >= 0 {
			if c := &plan.Chunks[k]; c.Level == li && c.J < len(lv.members) && lv.members[c.J].start == v.Start {
				j, err := lv.tileFrom(c.J, v.Start, v.End)
				if err != nil {
					return err
				}
				c.J = j
				return nil
			}
		}
		i, j, err := lv.chunk(v.Start, v.End)
		if err != nil {
			return err
		}
		plan.Chunks = append(plan.Chunks, PlanChunk{Level: li, I: i, J: j})
		return nil
	})
}

// lastUnknown marks a run member whose largest position no earlier stable
// session has found: every plan that reads it validates it while merging.
const lastUnknown = math.MinInt64

// planRun is one coalesced run of members [I,J) at a level: its extent is
// read once into cb, and in a stable session lasts holds each member's
// largest position from the level's memo (indexed k-I; a slice of the
// scratch's lasts), lastUnknown where no query has validated it yet.
type planRun struct {
	PlanChunk
	span  iomodel.Extent
	cb    *chunkBuf
	lasts []int64
}

// chunkReq is one plan chunk as execute coalesces it: the chunk, and its
// index among the chunks of all the plans, in plan order.
type chunkReq struct {
	PlanChunk
	at int
}

// Answer sets out[i] to the answer of rs[i] in one session: every range is
// planned in memory and then executed with the others as one batch, so
// ranges that overlap read each coalesced extent once. A single query is the
// batch of one range. The caller hands over distinct ranges — a duplicate
// would be planned, read and merged again, not shared — and owns out, which
// must hold len(rs) slots. Without sampled the answers carry no skip samples,
// for a caller that reads each answer once and whole (a sharded index's
// union). ctx is checked between planned ranges, between coalesced extent
// scans and between merges. The stats are batch-level: Reads counts each
// distinct block once for the whole batch, BitsRead each coalesced extent
// once, and SharedSaved the block reads sharing avoided, so Reads +
// SharedSaved is what the ranges would have paid alone on a cache-less
// device. They stand even on an error return (the session's failed read
// attempts included), so retry layers can account every attempt.
func (ox *Optimal) Answer(ctx context.Context, rs []index.Range, out []*cbitmap.Bitmap, sampled bool) (stats index.QueryStats, err error) {
	for _, r := range rs {
		if err := r.Valid(ox.tree.sigma); err != nil {
			return stats, err
		}
	}
	tc := ox.disk.NewTouch()
	defer tc.Close()
	defer sessionStats(tc, &stats)
	sc := getScratch()
	defer sc.release()
	sc.lazy = !sampled
	plans := sc.growPlans(len(rs))
	for qi, r := range rs {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		var err error
		if r.Lo == r.Hi {
			err = ox.planPoint(r.Lo, &plans[qi])
		} else {
			err = ox.planInto(r, &plans[qi])
		}
		if err != nil {
			return stats, err
		}
	}
	answers, err := sc.execute(ctx, tc, plans, ox.exactDir, ox.tree.n, &stats)
	if err != nil {
		return stats, err
	}
	copy(out, answers)
	return stats, nil
}

// sessionStats sets the I/O counters of stats from the query's session, the
// epilogue every query entry of the package defers.
func sessionStats(tc *iomodel.Touch, stats *index.QueryStats) {
	stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
	stats.SharedSaved = tc.SharedSaved()
	stats.FailedReads = tc.FailedReads()
}

// execute answers plans in the caller's session, each over [0,univ), against
// the member directories dirOf names by level: the exact sets, the j-th
// hashed ones or a Warmup's nodes. The requested member runs are coalesced
// per level — overlapping or adjacent runs merge into one, never across a
// gap, so the blocks read are exactly the blocks of the union of the planned
// extents — and each coalesced extent is read once, level by level. Every
// plan then gets one Stream view per member, positioned at the member's bit
// offset in the shared extent buffer, and merges them, with sc.overlay, which
// only the caller of a lone plan fills (a hashed answer's dropped sets), as
// one more stream. A member's view validates its bits during the merge unless
// a stable session validated them before, when the level's memo holds its
// largest position and the view replays it (exact levels only: no other
// directory keeps one); so k plans sharing a member no query has validated
// each validate it, once per handle. Only several plans share anything, so
// only then are the extents attributed to their consumers. An ordered plan's
// members go to the concatenation kernel instead (appendMembers,
// cbitmap.Concat), which validates a member the memo does not vouch for
// before it copies a bit of it; the memo then remembers it, as it remembers
// a validating stream. ctx is checked between extent scans and between
// merges; the answers, one per plan, are the scratch's until it is released.
func (sc *queryScratch) execute(ctx context.Context, tc *iomodel.Touch, plans []QueryPlan, dirOf func(level int) memberDir, univ int64, stats *index.QueryStats) ([]*cbitmap.Bitmap, error) {
	shares := len(plans) > 1
	reqs := sc.reqs[:0]
	for qi := range plans {
		for _, c := range plans[qi].Chunks {
			reqs = append(reqs, chunkReq{c, len(reqs)})
		}
	}
	slices.SortFunc(reqs, func(a, b chunkReq) int {
		if a.Level != b.Level {
			return a.Level - b.Level
		}
		return a.I - b.I
	})
	runs, runOf := sc.runs[:0], slices.Grow(sc.runOf[:0], len(reqs))[:len(reqs)]
	for _, rq := range reqs {
		if k := len(runs) - 1; k >= 0 && runs[k].Level == rq.Level && rq.I <= runs[k].J {
			runs[k].J = max(runs[k].J, rq.J)
		} else {
			runs = append(runs, planRun{PlanChunk: rq.PlanChunk})
		}
		runOf[rq.at] = len(runs) - 1
	}
	sc.reqs, sc.runs, sc.runOf = reqs, runs, runOf
	for ri := range runs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run := &runs[ri]
		dir := dirOf(run.Level)
		var err error
		if run.cb, run.span, err = sc.readSpan(tc, dir, run.I, run.J, stats); err != nil {
			return nil, err
		}
		if lv, exact := dir.(*matLevel); exact && tc.Stable() {
			from := len(sc.lasts)
			sc.lasts = lv.knownLasts(sc.lasts, run.I, run.J)
			run.lasts = sc.lasts[from:]
		}
	}

	sc.answers = sc.answers[:0]
	at := 0 // the chunk's index among all the plans' chunks
	for qi := range plans {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if shares {
			tc.StartConsumer(qi)
		}
		ordered := plans[qi].Ordered
		sc.streams, sc.members = sc.streams[:0], sc.members[:0]
		for _, c := range plans[qi].Chunks {
			dir := dirOf(c.Level)
			run := &runs[runOf[at]]
			at++
			if shares {
				tc.NoteExtent(spanOf(dir, c.I, c.J))
			}
			lasts := run.lasts
			if lasts != nil {
				lasts = lasts[c.I-run.I:]
			}
			var err error
			if ordered {
				err = sc.appendMembers(run.cb, run.span.Off, dir, c, lasts)
			} else {
				err = sc.appendStreams(run.cb, run.span.Off, dir, c, univ, lasts)
			}
			if err != nil {
				return nil, err
			}
		}
		var bm *cbitmap.Bitmap
		var err error
		if ordered {
			bm, err = cbitmap.Concat(univ, sc.members)
		} else if err = sc.addOverlay(univ); err == nil {
			bm, err = sc.merge(univ, plans[qi].Complement)
		}
		if err != nil {
			return nil, err
		}
		if tc.Stable() {
			if ordered {
				remember(dirOf, plans[qi].Chunks, func(i int) (int64, bool) { return sc.members[i].ValidatedLast() })
			} else {
				remember(dirOf, plans[qi].Chunks, func(i int) (int64, bool) { return sc.streams[i].ValidatedLast() })
			}
		}
		sc.answers = append(sc.answers, bm)
	}
	return sc.answers, nil
}
