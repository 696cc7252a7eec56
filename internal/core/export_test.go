package core

import (
	"context"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// Hooks for the tests in package core_test, which sit outside the package so
// that they can drive internal/shard (an importer of this package) as well.

// QueryGeneralMerge answers r as QueryContext does, except that the plan's
// Ordered flag is cleared before the plan is executed: the same reads and the
// same streams, through the general merge.
func (ox *Optimal) QueryGeneralMerge(r index.Range) (out *cbitmap.Bitmap, stats index.QueryStats, err error) {
	tc := ox.disk.NewTouch()
	defer tc.Close()
	sc := getScratch()
	defer sc.release()
	plans := sc.growPlans(1)
	if err = ox.planInto(r, &plans[0]); err == nil {
		plans[0].Ordered = false
		var answers []*cbitmap.Bitmap
		if answers, err = sc.execute(context.Background(), tc, plans, ox.exactDir, ox.tree.n, &stats); err == nil {
			out = answers[0]
		}
	}
	stats.Reads, stats.Writes, stats.FailedReads = tc.Reads(), tc.Writes(), tc.FailedReads()
	return out, stats, err
}

// ExactMembers returns the device extents of the exact members plan reads, in
// the order their streams reach the merge.
func (ox *Optimal) ExactMembers(plan QueryPlan) (exts []iomodel.Extent) {
	for _, c := range plan.Chunks {
		for k := c.I; k < c.J; k++ {
			exts = append(exts, ox.levels[c.Level].members[k].ext)
		}
	}
	return exts
}

// KeptPointPlan returns the plan a point query on c keeps in c's slot, and
// false while no query has asked for c.
func (ox *Optimal) KeptPointPlan(c uint32) (QueryPlan, bool) {
	if p := ox.points[c].Load(); p != nil {
		return *p, true
	}
	return QueryPlan{}, false
}
