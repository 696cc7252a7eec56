package core

import (
	"slices"

	"repro/internal/iomodel"
)

// Snapshot clones: deep copies of the query-path state of the dynamic
// structures, bound to an immutable device view (iomodel.Disk.Freeze). A
// clone is the in-memory half of an epoch descriptor — the writer publishes
// (clone, frozen device) pairs atomically, and any number of readers run the
// unmodified query code against the pair while the live structure keeps
// mutating. Clones are strictly read-only: the write paths are either absent
// (byChar, x, trans are not copied) or rejected (readonly, frozen device).

// CloneReadOnly returns a read-only deep copy of the index's query-path
// state bound to dev, which must serve the same bits as the index's device
// at the time of the call (in practice: a Freeze view of it). The clone
// shares nothing mutable with the original — chains are rebound through
// validated OpenChainFile, the skeleton and member directory are copied —
// so queries against it are unaffected by later appends and rebuilds on the
// original. The clone rejects Append (readonly); byChar stays behind, as the
// query path never reads it.
func (ax *AppendIndex) CloneReadOnly(dev iomodel.Device) (*AppendIndex, error) {
	nodes := make(map[*dynNode]*dynNode)
	cp := &AppendIndex{
		disk:               dev,
		opts:               ax.opts,
		sigma:              ax.sigma,
		n:                  ax.n,
		buildN:             ax.buildN,
		counts:             slices.Clone(ax.counts),
		charSkeleton:       ax.clone(nodes),
		nBlocks:            ax.nBlocks,
		rootBuf:            slices.Clone(ax.rootBuf),
		bufCap:             ax.bufCap,
		RebuildCount:       ax.RebuildCount,
		GlobalRebuildCount: ax.GlobalRebuildCount,
		readonly:           true,
	}
	cp.nodeBlk = make(map[*dynNode]iomodel.BlockID, len(ax.nodeBlk))
	for v, blk := range ax.nodeBlk {
		// Stale entries for nodes replaced by subtree rebuilds have no
		// counterpart in the live skeleton; they are dropped, as chargeNode
		// never consults them.
		if nv, ok := nodes[v]; ok {
			cp.nodeBlk[nv] = blk
		}
	}
	cp.levels = make([][]*dynMember, len(ax.levels))
	for li, lvl := range ax.levels {
		cp.levels[li] = make([]*dynMember, 0, len(lvl))
		for _, m := range lvl {
			ch, err := iomodel.OpenChainFile(dev, m.chain.BlockList(), m.chain.Bits())
			if err != nil {
				return nil, err
			}
			cp.levels[li] = append(cp.levels[li], &dynMember{
				node:    nodes[m.node],
				level:   m.level,
				chain:   ch,
				card:    m.card,
				lastPos: m.lastPos,
				buf:     m.buf,
				bufN:    m.bufN,
			})
		}
	}
	return cp, nil
}

// cloneReadOnly returns a deep copy of the point index bound to dev (a
// Freeze view of its device). Tree nodes are copied recursively; block ids
// are plain values valid against the view.
func (px *PointIndex) cloneReadOnly(dev iomodel.Device) *PointIndex {
	cp := &PointIndex{
		disk:    dev,
		sigma:   px.sigma,
		c:       px.c,
		height:  px.height,
		rootBuf: slices.Clone(px.rootBuf),
		bufCap:  px.bufCap,
		nLeaves: px.nLeaves,
		nNodes:  px.nNodes,
		updSeq:  px.updSeq,
	}
	cp.root = clonePnodes(px.root)
	return cp
}

func clonePnodes(nd *pnode) *pnode {
	if nd == nil {
		return nil
	}
	cp := &pnode{
		min:   nd.min,
		buf:   nd.buf,
		bufN:  nd.bufN,
		leaf:  nd.leaf,
		ch:    nd.ch,
		blk:   nd.blk,
		count: nd.count,
	}
	if len(nd.kids) > 0 {
		cp.kids = make([]*pnode, 0, len(nd.kids))
		for _, k := range nd.kids {
			cp.kids = append(cp.kids, clonePnodes(k))
		}
	}
	return cp
}

// CloneReadOnly returns a read-only deep copy of the dynamic index's
// query-path state bound to dev (a Freeze view of its device): counts,
// skeleton, member directory and the per-level point indexes. The current
// string x, the deletion translator and the update machinery stay behind —
// QueryContext never reads them — so the clone answers queries but accepts
// no updates.
func (dx *Dynamic) CloneReadOnly(dev iomodel.Device) *Dynamic {
	cp := &Dynamic{
		disk:               dev,
		opts:               dx.opts,
		sigma:              dx.sigma,
		sigmaEff:           dx.sigmaEff,
		n:                  dx.n,
		deleted:            dx.deleted,
		counts:             slices.Clone(dx.counts),
		charSkeleton:       dx.clone(nil),
		updatesSinceBuild:  dx.updatesSinceBuild,
		GlobalRebuildCount: dx.GlobalRebuildCount,
	}
	cp.members = make([][]dynBin, len(dx.members))
	for li := range dx.members {
		cp.members[li] = slices.Clone(dx.members[li])
	}
	cp.points = make([]*PointIndex, 0, len(dx.points))
	for _, px := range dx.points {
		cp.points = append(cp.points, px.cloneReadOnly(dev))
	}
	return cp
}
