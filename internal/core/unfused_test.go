package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// The pre-streaming decode-then-merge queries of the static, warm-up and
// dynamic indexes, kept out of the production build as the differential
// oracles of fused_test.go and writepath_test.go: answers and charged reads
// must equal Query's.

// Cover is CoverAppend into a fresh slice, as the oracles and the tree tests
// take it.
func (t *Tree) Cover(qlo, qhi int64, visited func(*Node)) []*Node {
	return t.CoverAppend(nil, qlo, qhi, visited)
}

// readCoverChunk reads, in one contiguous scan, the frontier bitmaps of the
// cover subtree v and appends them to ms. It is the pre-streaming
// materialising path, retained for QueryUnfused.
func (ox *Optimal) readCoverChunk(tc *iomodel.Touch, v *Node, ms []*cbitmap.Bitmap, stats *index.QueryStats) ([]*cbitmap.Bitmap, error) {
	lv := &ox.levels[ox.levelFor(v.Depth)]
	i, j, err := lv.chunk(v.Start, v.End)
	if err != nil {
		return ms, err
	}
	span := iomodel.Extent{
		Off:  lv.members[i].ext.Off,
		Bits: lv.members[j-1].ext.End() - lv.members[i].ext.Off,
	}
	rd, err := tc.Reader(span)
	if err != nil {
		return ms, err
	}
	stats.BitsRead += span.Bits
	for k := i; k < j; k++ {
		bm, err := decodeMember(rd, span.Off, &lv.members[k], ox.tree.n)
		if err != nil {
			return ms, fmt.Errorf("core: depth %d member %d: %w", lv.depth, k, err)
		}
		ms = append(ms, bm)
	}
	return ms, nil
}

// decodeMember materialises member m over [0,n) from rd, which holds the
// device's bits from offset base on: gamma-coded members through
// cbitmap.Decode, the others position by position, re-encoded in gamma.
func decodeMember(rd *bitio.Reader, base int64, m *member, n int64) (*cbitmap.Bitmap, error) {
	if m.k == 0 {
		if err := rd.Seek(int(m.ext.Off - base)); err != nil {
			return nil, err
		}
		return cbitmap.Decode(rd, m.card, n)
	}
	var s cbitmap.Stream
	if err := s.InitDecode(rd, int(m.ext.Off-base), int(m.ext.Bits), m.card, n, 0, uint(m.k)); err != nil {
		return nil, err
	}
	var pos []int64
	for p, ok := s.Next(); ok; p, ok = s.Next() {
		pos = append(pos, p)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return cbitmap.FromPositions(n, pos)
}

// queryRecords answers a record-range query by materialising the cover
// frontier bitmaps (QueryUnfused's decode stage).
func (ox *Optimal) queryRecords(tc *iomodel.Touch, qlo, qhi int64, ms []*cbitmap.Bitmap, stats *index.QueryStats) ([]*cbitmap.Bitmap, error) {
	if qlo >= qhi {
		return ms, nil
	}
	var chargeErr error
	cover := ox.tree.Cover(qlo, qhi, func(v *Node) {
		if err := ox.layout.charge(tc, v); err != nil && chargeErr == nil {
			chargeErr = err
		}
	})
	if chargeErr != nil {
		return ms, chargeErr
	}
	for _, v := range cover {
		if err := ox.layout.charge(tc, v); err != nil {
			return ms, err
		}
		var err error
		ms, err = ox.readCoverChunk(tc, v, ms, stats)
		if err != nil {
			return ms, err
		}
	}
	return ms, nil
}

// QueryUnfused answers exactly like Query but through the pre-streaming
// decode-then-merge shape: every cover member is materialised as its own
// bitmap with cbitmap.Decode and the bitmaps are then unioned in a second
// pass. It is retained as the differential-testing oracle and the allocation
// baseline the fused pipeline is measured against; answers are bit-identical
// to Query's.
func (ox *Optimal) QueryUnfused(r index.Range) (out *cbitmap.Bitmap, stats index.QueryStats, err error) {
	if err = r.Valid(ox.tree.sigma); err != nil {
		return nil, stats, err
	}
	tc := ox.disk.NewTouch()
	defer tc.Close()
	defer func() {
		stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
		stats.FailedReads = tc.FailedReads()
	}()
	aLo, err := tc.ReadBits(ox.aExt.Off+int64(r.Lo)*64, 64)
	if err != nil {
		return nil, stats, err
	}
	aHi, err := tc.ReadBits(ox.aExt.Off+int64(r.Hi+1)*64, 64)
	if err != nil {
		return nil, stats, err
	}
	qlo, qhi := int64(aLo), int64(aHi)
	z := qhi - qlo
	n := ox.tree.n

	var ms []*cbitmap.Bitmap
	complement := z > n/2
	if complement {
		ms, err = ox.queryRecords(tc, 0, qlo, ms, &stats)
		if err == nil {
			ms, err = ox.queryRecords(tc, qhi, n, ms, &stats)
		}
	} else {
		ms, err = ox.queryRecords(tc, qlo, qhi, ms, &stats)
	}
	if err != nil {
		return nil, stats, err
	}
	out, err = cbitmap.UnionOver(n, ms...)
	if err != nil {
		return nil, stats, err
	}
	if complement {
		out = out.Complement()
	}
	return out, stats, nil
}

// queryChars unions the cover of character range [lo,hi] (inclusive,
// already validated and non-empty). It is the pre-streaming materialising
// path, retained as QueryUnfused's decode stage.
func (wx *Warmup) queryChars(tc *iomodel.Touch, lo, hi int64, ms []*cbitmap.Bitmap, stats *index.QueryStats) ([]*cbitmap.Bitmap, error) {
	var plan QueryPlan
	wx.cover(&plan, lo, hi)
	for _, cn := range plan.Chunks {
		lv := wx.levels[cn.Level]
		ext := lv.Exts[cn.I]
		rd, err := tc.Reader(ext)
		if err != nil {
			return ms, err
		}
		stats.BitsRead += ext.Bits
		bm, err := cbitmap.Decode(rd, lv.Cards[cn.I], wx.n)
		if err != nil {
			return ms, fmt.Errorf("core: warmup level %d node %d: %w", cn.Level, cn.I, err)
		}
		ms = append(ms, bm)
	}
	return ms, nil
}

// QueryUnfused answers exactly like Query but through the pre-streaming
// decode-then-union shape, retained as the differential oracle and
// allocation baseline; answers and I/O stats are bit-identical to Query's.
func (wx *Warmup) QueryUnfused(r index.Range) (out *cbitmap.Bitmap, stats index.QueryStats, err error) {
	if err = r.Valid(wx.sigma); err != nil {
		return nil, stats, err
	}
	tc := wx.disk.NewTouch()
	defer tc.Close()
	defer func() {
		stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
		stats.FailedReads = tc.FailedReads()
	}()
	aLo, err := tc.ReadBits(wx.aExt.Off+int64(r.Lo)*64, 64)
	if err != nil {
		return nil, stats, err
	}
	aHi, err := tc.ReadBits(wx.aExt.Off+int64(r.Hi+1)*64, 64)
	if err != nil {
		return nil, stats, err
	}
	z := int64(aHi) - int64(aLo)

	var ms []*cbitmap.Bitmap
	complement := z > wx.n/2
	if complement {
		if r.Lo > 0 {
			ms, err = wx.queryChars(tc, 0, int64(r.Lo)-1, ms, &stats)
		}
		if err == nil && int(r.Hi) < wx.sigma-1 {
			ms, err = wx.queryChars(tc, int64(r.Hi)+1, int64(wx.padded)-1, ms, &stats)
		}
	} else {
		ms, err = wx.queryChars(tc, int64(r.Lo), int64(r.Hi), ms, &stats)
	}
	if err != nil {
		return nil, stats, err
	}
	out, err = cbitmap.UnionOver(wx.n, ms...)
	if err != nil {
		return nil, stats, err
	}
	if complement {
		out = out.Complement()
	}
	return out, stats, nil
}

// queryChars unions the reference point queries (pointQueryRef) of every bin
// of the cover of [lo,hi], all in the session tc. It is the pre-streaming
// materialising path, retained as QueryUnfused's decode stage.
func (dx *Dynamic) queryChars(tc *iomodel.Touch, lo, hi uint32, ms []*cbitmap.Bitmap, stats *index.QueryStats) ([]*cbitmap.Bitmap, error) {
	if lo > hi {
		return ms, nil
	}
	for _, u := range dx.cover(lo, hi, nil) {
		li := dx.levelForDepth(u.depth)
		i, j, err := tilesWithin(dx.members[li], li, u.lo, u.hi)
		if err != nil {
			return ms, err
		}
		for k := i; k < j; k++ {
			bm, err := dx.points[li].pointQueryRef(tc, uint32(k), stats)
			if err != nil {
				return ms, err
			}
			// Re-base onto the current universe.
			reb, err := cbitmap.FromPositions(dx.n, bm.Positions())
			if err != nil {
				return ms, err
			}
			ms = append(ms, reb)
		}
	}
	return ms, nil
}

// QueryUnfused answers exactly like Query but through the pre-streaming
// materialise-rebase-union shape: one reference point query per bin, each
// re-based and the bitmaps unioned. It is retained as the differential oracle
// and allocation baseline. Answers and charged reads equal Query's: its bins
// share one session, so a buffer on the paths of several bins is charged
// once, as Query's one descent per run of bins reads it once.
func (dx *Dynamic) QueryUnfused(r index.Range) (_ *cbitmap.Bitmap, stats index.QueryStats, _ error) {
	if err := r.Valid(dx.sigma); err != nil {
		return nil, stats, err
	}
	tc := dx.disk.NewTouch()
	defer tc.Close()
	defer func() {
		stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
		stats.FailedReads = tc.FailedReads()
	}()
	var z int64
	for a := r.Lo; a <= r.Hi; a++ {
		z += dx.counts[a]
	}
	var ms []*cbitmap.Bitmap
	var err error
	complement := z > dx.n/2
	if complement {
		if r.Lo > 0 {
			ms, err = dx.queryChars(tc, 0, r.Lo-1, ms, &stats)
		}
		if err == nil {
			ms, err = dx.queryChars(tc, r.Hi+1, uint32(dx.sigmaEff-1), ms, &stats)
		}
	} else {
		ms, err = dx.queryChars(tc, r.Lo, r.Hi, ms, &stats)
	}
	if err != nil {
		return nil, stats, err
	}
	out, err := cbitmap.UnionOver(dx.n, ms...)
	if err != nil {
		return nil, stats, err
	}
	if complement {
		out = out.Complement()
	}
	return out, stats, nil
}

// readMemberSet decodes a member's chain into a bitmap over [0,n).
func (ax *AppendIndex) readMemberSet(tc *iomodel.Touch, m *dynMember, stats *index.QueryStats) (*cbitmap.Bitmap, error) {
	rd, err := m.chain.ReadAll(tc)
	if err != nil {
		return nil, err
	}
	stats.BitsRead += m.chain.Bits()
	pos := make([]int64, 0, m.card)
	var prev int64 = -1
	for i := int64(0); i < m.card; i++ {
		g, err := gamma.Read(rd)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt member chain: %w", err)
		}
		if i == 0 {
			prev = int64(g) - 1
		} else {
			prev += int64(g)
		}
		pos = append(pos, prev)
	}
	return cbitmap.FromPositions(ax.n, pos)
}

// queryChars unions the cover of [lo,hi] into ms. It is the pre-streaming
// materialising path, retained as QueryUnfused's decode stage.
func (ax *AppendIndex) queryChars(tc *iomodel.Touch, lo, hi uint32, ms []*cbitmap.Bitmap, stats *index.QueryStats) ([]*cbitmap.Bitmap, error) {
	if lo > hi {
		return ms, nil
	}
	for _, u := range ax.cover(lo, hi, func(v *dynNode) { ax.chargeNode(tc, v) }) {
		ax.chargeNode(tc, u)
		li := ax.levelForDepth(u.depth)
		i, j, err := tilesWithin(ax.levels[li], li, u.lo, u.hi)
		if err != nil {
			return ms, err
		}
		var pend []int64
		for k := i; k < j; k++ {
			m := ax.levels[li][k]
			bm, err := ax.readMemberSet(tc, m, stats)
			if err != nil {
				return ms, err
			}
			ms = append(ms, bm)
			if ax.opts.Buffered && !ax.isTerminal(m) {
				// Pending appends in the frontier member's own buffer.
				es, err := ax.readMemberBuf(tc, m, newChunkBuf(), nil)
				if err != nil {
					return ms, err
				}
				for _, e := range es {
					if e.pos > m.lastPos {
						pend = append(pend, e.pos)
					}
				}
			}
		}
		if ax.opts.Buffered {
			// Pending appends in the buffers of u's materialised ancestors.
			for la := 0; la < li; la++ {
				m := ax.memberFor(la, u.lo)
				if m == nil || ax.isTerminal(m) {
					continue
				}
				es, err := ax.readMemberBuf(tc, m, newChunkBuf(), nil)
				if err != nil {
					return ms, err
				}
				for _, e := range es {
					if e.ch >= u.lo && e.ch <= u.hi {
						pend = append(pend, e.pos)
					}
				}
			}
		}
		if len(pend) > 0 {
			bm, err := cbitmap.FromUnsorted(ax.n, pend)
			if err != nil {
				return ms, err
			}
			ms = append(ms, bm)
		}
	}
	return ms, nil
}

// rootBufPending collects the positions of in-memory root-buffer appends
// whose character falls on the queried (or, for dense answers, complement)
// side, as one bitmap over [0,n); nil when there are none.
func (ax *AppendIndex) rootBufPending(lo, hi uint32, complement bool) (*cbitmap.Bitmap, error) {
	var pend []int64
	for _, e := range ax.rootBuf {
		in := e.ch >= lo && e.ch <= hi
		if complement {
			in = !in
		}
		if in {
			pend = append(pend, e.pos)
		}
	}
	if len(pend) == 0 {
		return nil, nil
	}
	return cbitmap.FromUnsorted(ax.n, pend)
}

// QueryUnfused answers exactly like Query but through the pre-streaming
// decode-then-merge shape: every cover member chain is materialised as its
// own bitmap and the bitmaps are then unioned (and, on the dense path,
// complemented) in separate passes. It is retained as the differential
// oracle and allocation baseline the fused pipeline is pinned against;
// answers and I/O stats are bit-identical to Query's.
func (ax *AppendIndex) QueryUnfused(r index.Range) (out *cbitmap.Bitmap, stats index.QueryStats, err error) {
	if err = r.Valid(ax.sigma); err != nil {
		return nil, stats, err
	}
	tc := ax.disk.NewTouch()
	defer tc.Close()
	defer func() {
		stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
		stats.FailedReads = tc.FailedReads()
	}()
	z := ax.Count(r.Lo, r.Hi)
	complement := z > ax.n/2
	var ms []*cbitmap.Bitmap
	if complement {
		if r.Lo > 0 {
			ms, err = ax.queryChars(tc, 0, r.Lo-1, ms, &stats)
		}
		if err == nil && int(r.Hi) < ax.sigma-1 {
			ms, err = ax.queryChars(tc, r.Hi+1, uint32(ax.sigma-1), ms, &stats)
		}
	} else {
		ms, err = ax.queryChars(tc, r.Lo, r.Hi, ms, &stats)
	}
	if err != nil {
		return nil, stats, err
	}
	// Root-buffer (in-memory) pending appends.
	if ax.opts.Buffered {
		bm, err := ax.rootBufPending(r.Lo, r.Hi, complement)
		if err != nil {
			return nil, stats, err
		}
		if bm != nil {
			ms = append(ms, bm)
		}
	}
	out, err = cbitmap.UnionOver(ax.n, ms...)
	if err != nil {
		return nil, stats, err
	}
	if complement {
		out = out.Complement()
	}
	return out, stats, nil
}
