// Shared-scan batch query planner.
//
// The paper's Theorem 2 query bound is per-query: a range reads its cover
// chunks, a few contiguous member runs per materialised level (coverChunks
// makes each run maximal). A batch of
// overlapping ranges shares most of its cover frontier, so the planner plans
// the whole batch at cover-chunk granularity first and executes it in one
// shared pass: every query's plan is computed without executing it
// (PlanQuery), the requested member runs are coalesced per level, each
// coalesced extent is read exactly once through a BatchTouch session, shared
// members are validated by a single Drain scan, and every subscribed query
// then merges cardinality-bounded Stream views over the shared extent
// buffers. In the Aggarwal–Vitter I/O model the batch therefore reads the
// blocks of the *union* of its cover extents, not the sum — the saved reads
// are reported in QueryStats.SharedSaved. Answers are bit-identical to
// looped single-range Query calls (pinned by differential and fuzz oracles).

package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

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
// plan hold disjoint position ranges that increase in chunk order, and the
// merge concatenates them (cbitmap.MergeStreamsOrdered, which verifies it).
type QueryPlan struct {
	Complement bool
	Ordered    bool
	Chunks     []PlanChunk
}

// PlanQuery computes the cover plan of r without executing it. Planning
// performs exactly the non-scan I/O of Query — the two prefix-array reads
// and the blocked tree descent — in its own session, so the returned stats
// are the plan-phase block reads. Executing the plan is then purely a matter
// of reading the chunk extents, which is what lets a batch coalesce the
// extents of many plans and read each one once.
func (ox *Optimal) PlanQuery(r index.Range) (plan QueryPlan, stats index.QueryStats, err error) {
	if err := r.Valid(ox.tree.sigma); err != nil {
		return QueryPlan{}, stats, err
	}
	tc := ox.disk.NewTouch()
	defer tc.Close()
	defer func() {
		stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
		stats.FailedReads = tc.FailedReads()
	}()
	if err := ox.planInto(tc, r, &plan); err != nil {
		return QueryPlan{}, stats, err
	}
	return plan, stats, nil
}

// reset empties the plan, keeping its chunk storage.
func (p *QueryPlan) reset() {
	p.Complement, p.Ordered = false, false
	p.Chunks = p.Chunks[:0]
}

// recordRange turns the character range r into the record range [qlo,qhi)
// it occupies in the sorted order — z = qhi-qlo — by reading A[lo] and
// A[hi+1] of the prefix array at aExt (O(1) I/Os), charged to ses.
func recordRange(ses ioSession, aExt iomodel.Extent, r index.Range) (qlo, qhi int64, err error) {
	aLo, err := ses.ReadBits(aExt.Off+int64(r.Lo)*64, 64)
	if err != nil {
		return 0, 0, err
	}
	aHi, err := ses.ReadBits(aExt.Off+int64(r.Hi+1)*64, 64)
	return int64(aLo), int64(aHi), err
}

// planInto computes r's plan, charging the prefix-array reads and tree
// descent to ses (a per-query Touch, or a BatchTouch attributing them to the
// current consumer).
func (ox *Optimal) planInto(ses ioSession, r index.Range, plan *QueryPlan) error {
	qlo, qhi, err := recordRange(ses, ox.aExt, r)
	if err != nil {
		return err
	}
	return ox.planRecords(ses, qlo, qhi, plan)
}

// planRecords plans the record range [qlo,qhi): its cover, or for a dense
// answer the covers of the two complementary ranges, whose union the merge
// inverts in the same pass (§2.1).
func (ox *Optimal) planRecords(ses ioSession, qlo, qhi int64, plan *QueryPlan) error {
	n := ox.tree.n
	plan.Complement = qhi-qlo > n/2 && !ox.opts.NoComplement
	if plan.Complement {
		if err := coverPlanner(ox, ses, 0, qlo, plan); err != nil {
			return err
		}
		return coverPlanner(ox, ses, qhi, n, plan)
	}
	return ox.planCover(ses, qlo, qhi, plan)
}

// planCover plans the record range [qlo,qhi) as its own cover, and notes
// whether one character holds all of it.
func (ox *Optimal) planCover(ses ioSession, qlo, qhi int64, plan *QueryPlan) error {
	plan.Ordered = qlo < qhi && qhi <= ox.tree.prefix[ox.tree.charOf(qlo)+1]
	return coverPlanner(ox, ses, qlo, qhi, plan)
}

// coverPlanner is the cover planner every plan goes through; the tests swap
// in the one-chunk-per-cover-node oracle to pin that runs change nothing
// downstream.
var coverPlanner = (*Optimal).coverChunks

// coverScratch pools the cover buffer planning reuses across the queries of
// a batch (and across batches).
var coverScratchPool = sync.Pool{New: func() any { return new([]*Node) }}

// coverChunks appends the cover of the record range [qlo,qhi) to the plan as
// maximal member runs, charging the tree descent to ses exactly as Query
// does. The cover arrives in record order and a level's members lie in
// record order, so a cover node that starts where the last run at its level
// ends extends that run: only a run's first node searches the directory, and
// the level is looked up only when the cover depth changes. A node whose
// structure block was just charged is not touched again: the session holds
// the block, so the touch would change no count.
func (ox *Optimal) coverChunks(ses ioSession, qlo, qhi int64, plan *QueryPlan) error {
	if qlo >= qhi {
		return nil
	}
	last := iomodel.BlockID(-1) // the block charged just before: ses holds it
	charge := func(v *Node) (err error) {
		if blk := ox.layout.blockOf[v.ID]; blk != last {
			if err = ox.layout.charge(ses, v); err == nil {
				last = blk
			}
		}
		return err
	}
	cp := coverScratchPool.Get().(*[]*Node)
	var chargeErr error
	cover := ox.tree.CoverAppend((*cp)[:0], qlo, qhi, func(v *Node) {
		if err := charge(v); err != nil && chargeErr == nil {
			chargeErr = err
		}
	})
	defer func() {
		clear(cover)
		*cp = cover[:0]
		coverScratchPool.Put(cp)
	}()
	if chargeErr != nil {
		return chargeErr
	}
	depth, li := -1, 0
	for _, v := range cover {
		if err := charge(v); err != nil {
			return err
		}
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
				continue
			}
		}
		i, j, err := lv.chunk(v.Start, v.End)
		if err != nil {
			return err
		}
		plan.Chunks = append(plan.Chunks, PlanChunk{Level: li, I: i, J: j})
	}
	return nil
}

// lastUnknown marks a run member whose largest position has not been found
// by a shared validation scan (single-subscriber members are never scanned
// up front; their consumer validates while merging, exactly as Query does).
const lastUnknown = math.MinInt64

// memberRun is one requested member index range [i,j) at a level.
type memberRun struct {
	i, j int
}

// planRun is one coalesced run of members [i,j) at a level: its extent is
// read once into cb, and members subscribed by more than one query carry
// their pre-scanned largest position in lasts (indexed k-i).
type planRun struct {
	i, j  int
	span  iomodel.Extent
	cb    *chunkBuf
	subs  []int32
	lasts []int64
}

// batchScratch pools the per-batch planner state: plans, per-level interval
// and run tables, and — the part it shares with a single query — the extent
// buffers and the stream slice each query's merge is fed from.
type batchScratch struct {
	queryScratch
	plans   []QueryPlan
	byLevel [][]memberRun
	runs    [][]planRun
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

// batchBufMaxBytes bounds the coalesced-extent buffers kept by a pooled
// scratch: a wide batch can coalesce near-whole-level extents, and pooling
// those would pin megabytes behind every later small batch (the same
// oversized-pooled-object hazard the Touch, chain-writer and decode-scratch
// pools guard against). Oversized buffers are dropped for the collector.
const batchBufMaxBytes = 1 << 20

func (bs *batchScratch) release() {
	// The run tables reference the chunk buffers like the stream views do: an
	// idle entry should retain only the buffers it owns.
	bs.reset()
	for i := range bs.runs {
		clear(bs.runs[i])
		bs.runs[i] = bs.runs[i][:0]
	}
	kept := bs.bufs[:0]
	for _, cb := range bs.bufs {
		if cap(cb.w.Bytes()) <= batchBufMaxBytes {
			kept = append(kept, cb)
		}
	}
	clear(bs.bufs[len(kept):])
	bs.bufs = kept
	batchScratchPool.Put(bs)
}

// growPlans returns k reset plans, reusing each plan's chunk storage.
func (bs *batchScratch) growPlans(k int) []QueryPlan {
	for len(bs.plans) < k {
		bs.plans = append(bs.plans, QueryPlan{})
	}
	plans := bs.plans[:k]
	for i := range plans {
		plans[i].reset()
	}
	return plans
}

// growLevels returns the per-level interval and run tables sized to k levels.
func (bs *batchScratch) growLevels(k int) ([][]memberRun, [][]planRun) {
	for len(bs.byLevel) < k {
		bs.byLevel = append(bs.byLevel, nil)
	}
	for len(bs.runs) < k {
		bs.runs = append(bs.runs, nil)
	}
	byLevel, runs := bs.byLevel[:k], bs.runs[:k]
	for i := range byLevel {
		byLevel[i] = byLevel[i][:0]
	}
	for i := range runs {
		runs[i] = runs[i][:0]
	}
	return byLevel, runs
}

// QueryBatch answers a batch of range queries through the shared-scan
// planner: duplicate ranges are deduplicated (they share one answer), every
// distinct query is planned without execution, the requested cover runs are
// coalesced per level, and each coalesced extent is read and validated once
// no matter how many queries subscribe to it. The i-th result corresponds to
// rs[i]; answers are bit-identical to looped Query calls.
//
// The returned stats are batch-level: Reads counts each distinct block once
// for the whole batch (the I/O-model cost of the shared scan), BitsRead
// counts each coalesced extent once, and SharedSaved reports the block reads
// avoided versus running each distinct query in its own session — so
// Reads + SharedSaved is the cost the same batch would have paid through
// looped Query calls on a cache-less device.
func (ox *Optimal) QueryBatch(rs []index.Range) ([]*cbitmap.Bitmap, index.QueryStats, error) {
	return ox.QueryBatchContext(context.Background(), rs)
}

// QueryBatchContext answers like QueryBatch, checking ctx for cancellation
// between planned queries, between coalesced extent scans, and between
// per-query merges — the three loops a wide batch spends its time in. The
// stats are populated even on an error return (including the batch session's
// failed read attempts), so retry layers can account every attempt.
func (ox *Optimal) QueryBatchContext(ctx context.Context, rs []index.Range) (out []*cbitmap.Bitmap, stats index.QueryStats, err error) {
	for _, r := range rs {
		if err := r.Valid(ox.tree.sigma); err != nil {
			return nil, stats, err
		}
	}
	out = make([]*cbitmap.Bitmap, len(rs))
	if len(rs) == 0 {
		return out, stats, nil
	}
	order := rs // one range — a fan-out's batch of one — is distinct as it stands
	var uniq map[index.Range]int
	if len(rs) > 1 {
		uniq = make(map[index.Range]int, len(rs))
		order = nil
		for _, r := range rs {
			if _, ok := uniq[r]; !ok {
				uniq[r] = len(order)
				order = append(order, r)
			}
		}
	}
	if len(order) == 1 {
		// A batch with one distinct range has nothing to share, and a Touch
		// is cheaper than a BatchTouch: the single-query pipeline answers it
		// without planner bookkeeping.
		bm, st, err := ox.QueryContext(ctx, order[0])
		if err != nil {
			return nil, st, err
		}
		for i := range out {
			out[i] = bm
		}
		return out, st, nil
	}
	n := ox.tree.n
	bt := ox.disk.NewBatchTouch()
	defer bt.Close()
	defer func() {
		stats.Reads, stats.Writes = bt.Reads(), bt.Writes()
		stats.SharedSaved = bt.SharedSaved()
		stats.FailedReads = bt.FailedReads()
	}()
	bs := getBatchScratch()
	defer bs.release()

	// Phase 1 — plan every distinct query: prefix-array reads plus tree
	// descent, attributed to the query so the sharing accounting is exact.
	plans := bs.growPlans(len(order))
	for qi, r := range order {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		bt.StartConsumer(qi)
		if err := ox.planInto(bt, r, &plans[qi]); err != nil {
			return nil, stats, err
		}
	}

	// Phase 2 — coalesce per level and scan: overlapping or adjacent member
	// runs merge into one (never across a gap, so the blocks read are exactly
	// the blocks of the union of the planned extents), each coalesced extent
	// is read once, and members with more than one subscriber are validated
	// by a single Drain scan whose recorded largest position every consumer
	// then reuses.
	byLevel, runs := bs.growLevels(len(ox.levels))
	for qi := range plans {
		for _, c := range plans[qi].Chunks {
			byLevel[c.Level] = append(byLevel[c.Level], memberRun{c.I, c.J})
		}
	}
	for li := range byLevel {
		reqs := byLevel[li]
		if len(reqs) == 0 {
			continue
		}
		sort.Slice(reqs, func(a, b int) bool {
			if reqs[a].i != reqs[b].i {
				return reqs[a].i < reqs[b].i
			}
			return reqs[a].j < reqs[b].j
		})
		cur := reqs[0]
		for _, rq := range reqs[1:] {
			if rq.i <= cur.j {
				if rq.j > cur.j {
					cur.j = rq.j
				}
				continue
			}
			runs[li] = append(runs[li], planRun{i: cur.i, j: cur.j})
			cur = rq
		}
		runs[li] = append(runs[li], planRun{i: cur.i, j: cur.j})

		lv := &ox.levels[li]
		ri := 0
		for _, rq := range reqs { // subscriber counts, interval difference form
			for rq.i >= runs[li][ri].j {
				ri++
			}
			run := &runs[li][ri]
			if run.subs == nil {
				run.subs = make([]int32, run.j-run.i+1)
			}
			run.subs[rq.i-run.i]++
			run.subs[rq.j-run.i]--
		}
		for ri := range runs[li] {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
			run := &runs[li][ri]
			if run.cb, run.span, err = bs.readSpan(bt.ReadExtent, lv, run.i, run.j, &stats); err != nil {
				return nil, stats, err
			}
			shared := false
			acc := int32(0)
			for k := run.i; k < run.j; k++ {
				acc += run.subs[k-run.i]
				run.subs[k-run.i] = acc
				if acc > 1 {
					shared = true
				}
			}
			if !shared {
				continue
			}
			run.lasts = make([]int64, run.j-run.i)
			var probe cbitmap.Stream
			for k := run.i; k < run.j; k++ {
				run.lasts[k-run.i] = lastUnknown
				if run.subs[k-run.i] < 2 {
					continue
				}
				m := &lv.members[k]
				if err := probe.InitDecode(&run.cb.r, int(m.ext.Off-run.span.Off), int(m.ext.Bits), m.card, n, 0); err != nil {
					return nil, stats, fmt.Errorf("core: level %d member %d (universe %d): %w", li, k, n, err)
				}
				last, err := probe.Drain()
				if err != nil {
					return nil, stats, fmt.Errorf("core: level %d member %d (universe %d): %w", li, k, n, err)
				}
				run.lasts[k-run.i] = last
			}
		}
	}

	// Phase 3 — scatter and merge: every query gets one Stream view per
	// member of its plan, positioned at the member's recorded bit offset in
	// the shared extent buffer, and merges them exactly as Query would.
	answers := make([]*cbitmap.Bitmap, len(order))
	for qi := range order {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		bt.StartConsumer(qi)
		bs.streams = bs.streams[:0]
		for _, c := range plans[qi].Chunks {
			lv := &ox.levels[c.Level]
			lruns := runs[c.Level]
			run := &lruns[sort.Search(len(lruns), func(x int) bool { return lruns[x].i > c.I })-1]
			bt.NoteExtent(spanOf(lv, c.I, c.J))
			lasts := run.lasts
			if lasts != nil {
				lasts = lasts[c.I-run.i:]
			}
			if err := bs.appendStreams(run.cb, run.span.Off, lv, c, n, lasts); err != nil {
				return nil, stats, err
			}
		}
		bm, err := bs.merge(n, plans[qi].Complement, plans[qi].Ordered)
		if err != nil {
			return nil, stats, err
		}
		answers[qi] = bm
	}
	for i, r := range rs {
		out[i] = answers[uniq[r]]
	}
	return out, stats, nil
}
