package shard

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/iomodel"
)

// Part is one shard viewed from outside the package: its index, device,
// and the global row range it covers. Parts carries a built index out for
// serialisation; Assemble carries reopened shards back in.
type Part struct {
	Ax    *core.Approx
	Disk  *iomodel.Disk
	Start int64 // global row id of the shard's local row 0
	End   int64 // one past the shard's last global row
}

// Parts returns the index's shards in shard order, for serialisation.
func (x *Index) Parts() []Part {
	out := make([]Part, len(x.shards))
	for i, sh := range x.shards {
		out[i] = Part{Ax: sh.ax, Disk: sh.disk, Start: sh.start, End: sh.end}
	}
	return out
}

// Assemble constructs a sharded index from already-built (typically
// reopened) shards. The parts must tile rows [0,n) contiguously in order,
// and each part's index must cover exactly its row range over the shared
// alphabet. workers < 1 selects GOMAXPROCS.
func Assemble(parts []Part, n int64, sigma, workers int) (*Index, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no shards to assemble")
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	x := &Index{n: n, sigma: sigma, workers: workers}
	var expect int64
	for i, p := range parts {
		if p.Ax == nil || p.Disk == nil {
			return nil, fmt.Errorf("shard: part %d missing index or device", i)
		}
		if p.Start != expect {
			return nil, fmt.Errorf("shard: part %d starts at row %d, want %d", i, p.Start, expect)
		}
		if p.End <= p.Start || p.End > n {
			return nil, fmt.Errorf("shard: part %d covers [%d,%d) outside [0,%d)", i, p.Start, p.End, n)
		}
		if got := p.Ax.Len(); got != p.End-p.Start {
			return nil, fmt.Errorf("shard: part %d index holds %d rows, range holds %d", i, got, p.End-p.Start)
		}
		if got := p.Ax.Sigma(); got != sigma {
			return nil, fmt.Errorf("shard: part %d alphabet %d, want %d", i, got, sigma)
		}
		x.shards = append(x.shards, &shard{ax: p.Ax, disk: p.Disk, start: p.Start, end: p.End})
		expect = p.End
	}
	if expect != n {
		return nil, fmt.Errorf("shard: parts end at row %d, want %d", expect, n)
	}
	return x, nil
}
