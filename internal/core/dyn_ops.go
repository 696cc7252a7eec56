package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// Append appends character ch at the end of the string (the paper's
// append(x, α)). Theorem 4 (direct) touches the tail block of the affected
// member at each materialised level, amortised O(lg lg n) I/Os; Theorem 5
// (buffered) stages the append through member buffers, amortised
// O(lg n / b) I/Os.
func (ax *AppendIndex) Append(ch uint32) (index.QueryStats, error) {
	var stats index.QueryStats
	if err := ax.ValidateAppend(ch); err != nil {
		return stats, err
	}
	pos := ax.n
	tc := ax.disk.NewTouch()
	defer tc.Close()
	if ax.opts.Buffered {
		ax.rootBuf = append(ax.rootBuf, dynEntry{ch: ch, pos: pos})
		if len(ax.rootBuf) >= ax.bufCap {
			if err := ax.flushRoot(tc); err != nil {
				return stats, err
			}
		}
	} else {
		// "One bitmap in each materialized level (namely the one
		// corresponding to the last occurrence of that character) will be
		// affected by an update."
		for li := range ax.levels {
			m := ax.memberFor(li, ch)
			if m == nil {
				continue
			}
			if err := ax.appendToChain(tc, m, pos); err != nil {
				return stats, err
			}
		}
	}
	// Bookkeeping and weight maintenance.
	ax.byChar[ch] = append(ax.byChar[ch], pos)
	ax.counts[ch]++
	ax.n++
	var violated *dynNode
	v := ax.root
	for {
		v.weight++
		if v.depth > 0 && violated == nil && v.weight > 2*v.buildWeight && v.weight > 16 {
			violated = v
		}
		if v.isLeaf() {
			break
		}
		ci := sort.Search(len(v.children), func(i int) bool { return v.children[i].hi >= ch })
		v = v.children[ci]
	}
	var err error
	if ax.n >= 2*ax.buildN+16 {
		err = ax.rebuildAll(tc)
	} else if violated != nil {
		// "We re-build the subtree rooted at u", the parent of the highest
		// node violating the weight-balancing condition.
		target := violated
		if target.parent != nil {
			target = target.parent
		}
		if target.parent == nil {
			err = ax.rebuildAll(tc)
		} else {
			err = ax.rebuildSubtree(tc, target)
		}
	}
	if err != nil {
		return stats, err
	}
	stats.Reads, stats.Writes = tc.Reads(), tc.Writes()
	return stats, nil
}

// rebuildSubtree replaces u's subtree: the old member chains below u are
// read (charged) and freed, a fresh weight-balanced skeleton is built for
// u's character range, and the new members' chains are written from the
// current position lists.
func (ax *AppendIndex) rebuildSubtree(tc *iomodel.Touch, u *dynNode) error {
	// Remove and free the members inside u's subtree.
	for li := range ax.levels {
		lvl := ax.levels[li]
		i := sort.Search(len(lvl), func(j int) bool { return lvl[j].node.lo >= u.lo })
		j := i
		for j < len(lvl) && lvl[j].node.hi <= u.hi {
			if lvl[j].node.depth < u.depth {
				return fmt.Errorf("core: member at depth %d inside char range of depth-%d subtree", lvl[j].node.depth, u.depth)
			}
			// Charge the read of the old chain (the rebuild scans it).
			if _, err := lvl[j].chain.ReadAll(tc); err != nil {
				return err
			}
			lvl[j].chain.Truncate()
			if ax.opts.Buffered {
				ax.disk.FreeBlock(lvl[j].buf)
			}
			j++
		}
		ax.levels[li] = append(lvl[:i:i], lvl[j:]...)
	}
	// Build the fresh skeleton with the same target height.
	hTarget := u.depth + heightFor(ax.pseudoWeight(u.lo, u.hi), ax.opts.Branching)
	fresh := ax.buildSkeleton(u.parent, u.depth, u.lo, u.hi, hTarget)
	parent := u.parent
	for i, ch := range parent.children {
		if ch == u {
			parent.children[i] = fresh
			break
		}
	}
	// Create members for the new subtree.
	blk, hadBlk := ax.nodeBlk[u]
	for _, v := range ax.scan(nil, fresh) {
		// Layout: new nodes inherit the rebuilt root's structure block (an
		// under-approximation of the repacked layout; global rebuilds repack
		// exactly).
		if hadBlk {
			ax.nodeBlk[v] = blk
		}
		li := ax.memberLevelOf(v)
		if li < 0 {
			continue
		}
		m := &dynMember{node: v, level: li, chain: iomodel.NewChainFile(ax.disk), lastPos: -1}
		if ax.opts.Buffered {
			m.buf = ax.disk.AllocBlock()
		}
		if err := ax.writeMemberChain(tc, m); err != nil {
			return err
		}
		lvl := ax.levels[li]
		at := sort.Search(len(lvl), func(j int) bool { return lvl[j].node.lo > v.lo })
		lvl = append(lvl, nil)
		copy(lvl[at+1:], lvl[at:])
		lvl[at] = m
		ax.levels[li] = lvl
	}
	ax.RebuildCount++
	return nil
}

// heightFor returns ceil(log_c(w)), at least 1. It forms no power of c above
// w, so no w and c > 1 overflow it.
func heightFor(w int64, c int) int {
	h := 0
	for pow := int64(1); pow < w; pow *= int64(c) {
		h++
		if pow > w/int64(c) {
			break // pow·c > w
		}
	}
	if h < 1 {
		h = 1
	}
	return h
}

// readMemberBuf appends a member's buffered appends to es, charging one
// read; the bits pass through cb.
func (ax *AppendIndex) readMemberBuf(tc *iomodel.Touch, m *dynMember, cb *chunkBuf, es []dynEntry) ([]dynEntry, error) {
	return readRecords(tc, ax.disk, m.buf, m.bufN, dynEntryLayout, cb, es, func(f [4]uint64) dynEntry {
		return dynEntry{ch: uint32(f[0]), pos: int64(f[1])}
	})
}

// writeMemberBuf stores a member's buffered appends, charging one write.
func (ax *AppendIndex) writeMemberBuf(tc *iomodel.Touch, m *dynMember, es []dynEntry) error {
	m.bufN = len(es)
	return writeRecords(tc, ax.disk, m.buf, es, dynEntryLayout, func(e dynEntry) [4]uint64 {
		return [4]uint64{uint64(e.ch), uint64(e.pos)}
	})
}

// isTerminal reports whether member m has no member children at the next
// level (its node is a leaf, or the last level is reached).
func (ax *AppendIndex) isTerminal(m *dynMember) bool {
	if m.node.isLeaf() || m.level+1 >= len(ax.levels) {
		return true
	}
	return false
}

// applyEntries appends the still-unapplied entries to m's chain. Entries
// arrive in position order (the convoy property: all entries destined to a
// member travel together through its ancestors, preserving FIFO = position
// order). Entries at or below lastPos were already applied, possibly by a
// rebuild. The whole batch is gap-encoded into one pooled writer — a
// StreamEncoder continuing the chain's stream at lastPos — and appended with
// a single chain write: the same bits land in the same tail blocks as
// entry-at-a-time appends, so the charged I/Os are unchanged, but the
// per-entry encode buffer is gone.
func (ax *AppendIndex) applyEntries(tc *iomodel.Touch, m *dynMember, es []dynEntry) error {
	w := getChainWriter()
	defer putChainWriter(w)
	var enc cbitmap.StreamEncoder
	enc.InitAt(w, m.lastPos)
	for _, e := range es {
		if e.pos <= enc.Last() {
			continue
		}
		enc.Add(e.pos)
	}
	if enc.Card() == 0 {
		return nil
	}
	if err := m.chain.Append(tc, w); err != nil {
		return err
	}
	m.card += enc.Card()
	m.lastPos = enc.Last()
	return nil
}

// splitDominant partitions es between the member of level li that receives
// the most entries — returned with its convoy, moved — and the rest. A level's
// members are sorted by character, so ties resolve to the member with the
// smallest character range start. best is nil when no entry has a member at
// that level.
func (ax *AppendIndex) splitDominant(li int, es []dynEntry) (best *dynMember, moved, rest []dynEntry) {
	lvl := ax.levels[li]
	i, moved, rest := dominant(es, len(lvl), func(e dynEntry) int { return tileFor(lvl, e.ch) })
	if i < 0 {
		return nil, nil, es
	}
	return lvl[i], moved, rest
}

// flushRoot moves the dominant destination's entries from the in-memory
// root buffer into the member tree.
func (ax *AppendIndex) flushRoot(tc *iomodel.Touch) error {
	best, moved, rest := ax.splitDominant(0, ax.rootBuf)
	if best == nil {
		return fmt.Errorf("core: no destination member for buffered appends")
	}
	ax.rootBuf = rest
	return ax.deliverDyn(tc, best, moved)
}

// deliverDyn delivers a batch of appends to member m: terminal members
// apply directly; others buffer, applying and cascading on overflow ("if
// node u is stored explicitly, then we perform these updates on the bitmap
// associated with u ... delete those updates from the buffer at u and
// insert them into the buffer at node v").
func (ax *AppendIndex) deliverDyn(tc *iomodel.Touch, m *dynMember, batch []dynEntry) error {
	if ax.isTerminal(m) {
		return ax.applyEntries(tc, m, batch)
	}
	es, err := ax.readMemberBuf(tc, m, newChunkBuf(), nil)
	if err != nil {
		return err
	}
	es = append(es, batch...)
	var overflow [][]dynEntry
	var dests []*dynMember
	for len(es) >= ax.bufCap {
		// Apply everything new to m's own bitmap, then move the dominant
		// child's convoy down.
		if err := ax.applyEntries(tc, m, es); err != nil {
			return err
		}
		best, moved, rest := ax.splitDominant(m.level+1, es)
		if best == nil {
			return fmt.Errorf("core: no next-level member under member at depth %d", m.node.depth)
		}
		overflow = append(overflow, moved)
		dests = append(dests, best)
		es = rest
	}
	if err := ax.writeMemberBuf(tc, m, es); err != nil {
		return err
	}
	for i, moved := range overflow {
		if err := ax.deliverDyn(tc, dests[i], moved); err != nil {
			return err
		}
	}
	return nil
}

// Count returns z = |I[al;ar]| from the in-memory counts (the paper's A
// array; O(1) I/Os in the disk layout, uncharged here).
func (ax *AppendIndex) Count(lo, hi uint32) int64 {
	var z int64
	for a := lo; a <= hi; a++ {
		z += ax.counts[a]
	}
	return z
}

// queryCharStreams collects, into sc, one decode stream per member of the
// cover of [lo,hi] — each member's chain is read once into a pooled chunk
// buffer and decoded lazily by the downstream merge, so no member bitmap is
// ever materialised — and adds the appends still pending in buffers for those
// characters to sc.overlay: the in-memory root buffer's, each frontier
// member's own, and its materialised ancestors'. I/O charging is identical to
// the materialising oracle (queryChars): the same chains, buffers and
// structure blocks are touched.
func (ax *AppendIndex) queryCharStreams(tc *iomodel.Touch, lo, hi uint32, sc *queryScratch) (bits int64, err error) {
	if ax.opts.Buffered {
		for _, e := range ax.rootBuf {
			if e.ch >= lo && e.ch <= hi {
				sc.overlay = append(sc.overlay, e.pos)
			}
		}
	}
	for _, u := range ax.cover(lo, hi, func(v *dynNode) { ax.chargeNode(tc, v) }) {
		ax.chargeNode(tc, u)
		li := ax.levelForDepth(u.depth)
		i, j, err := tilesWithin(ax.levels[li], li, u.lo, u.hi)
		if err != nil {
			return bits, err
		}
		for k := i; k < j; k++ {
			m := ax.levels[li][k]
			cb := sc.nextBuf()
			if err := m.chain.ReadAllInto(tc, cb.w); err != nil {
				return bits, err
			}
			bits += m.chain.Bits()
			cb.r.Init(cb.w.Bytes(), cb.w.Len())
			if err := sc.newStream().InitDecode(&cb.r, 0, cb.w.Len(), m.card, ax.n, 0, 0); err != nil {
				return bits, fmt.Errorf("core: member chain at level %d: %w", li, err)
			}
			if ax.opts.Buffered && !ax.isTerminal(m) {
				// Pending appends in the frontier member's own buffer.
				sc.appends, err = ax.readMemberBuf(tc, m, sc.nextBuf(), sc.appends[:0])
				if err != nil {
					return bits, err
				}
				for _, e := range sc.appends {
					if e.pos > m.lastPos {
						sc.overlay = append(sc.overlay, e.pos)
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
				sc.appends, err = ax.readMemberBuf(tc, m, sc.nextBuf(), sc.appends[:0])
				if err != nil {
					return bits, err
				}
				for _, e := range sc.appends {
					if e.ch >= u.lo && e.ch <= u.hi {
						sc.overlay = append(sc.overlay, e.pos)
					}
				}
			}
		}
	}
	return bits, nil
}

// Query implements index.Index. It decomposes the character range into its
// cover and fuses decode and merge into a single streaming pass: every
// member chain's gap stream feeds cbitmap.MergeStreams (or, on the dense
// path, MergeStreamsComplement) directly through pooled chunk buffers, so no
// member bitmap is ever materialised and each gap is decoded exactly once —
// the same shape the static Optimal.Query runs.
func (ax *AppendIndex) Query(r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	return ax.QueryContext(context.Background(), r)
}

// QueryContext answers like Query through queryUpdatable, checking ctx
// between the cover phases.
func (ax *AppendIndex) QueryContext(ctx context.Context, r index.Range) (*cbitmap.Bitmap, index.QueryStats, error) {
	if err := r.Valid(ax.sigma); err != nil {
		return nil, index.QueryStats{}, err
	}
	return queryUpdatable(ctx, ax, ax.disk, r, ax.n, ax.Count(r.Lo, r.Hi), uint32(ax.sigma-1))
}

var _ index.Index = (*AppendIndex)(nil)
