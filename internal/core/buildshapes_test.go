package core

import (
	"testing"

	"repro/internal/iomodel"
	"repro/internal/workload"
)

// buildShapes are the columns of hypotheses/reachable-hashed: point-pread's
// (2^19 rows, σ 1024, zipf 1.0), the same length uniform and in runs of 64, a
// zipf column over σ 4096, and one whose characters are all rare (about two
// rows each), the vanishing point, where every leaf's set stays reachable.
var buildShapes = []struct {
	name string
	col  func() workload.Column
}{
	{"zipf-1.0", func() workload.Column { return workload.Zipf(1<<19, 1024, 1.0, 42) }},
	{"uniform", func() workload.Column { return workload.Uniform(1<<19, 1024, 42) }},
	{"runs-64", func() workload.Column { return workload.Runs(1<<19, 1024, 64, 42) }},
	{"sigma-4096", func() workload.Column { return workload.Zipf(1<<19, 4096, 1.0, 42) }},
	{"all-rare", func() workload.Column { return workload.Uniform(1<<17, 1<<16, 42) }},
}

// BenchmarkBuildShapes times BuildApprox on buildShapes. This file uses only
// BuildApprox and package workload, so hypotheses/reachable-hashed/run.sh
// copies it into an older tree to time that tree's build of the same columns.
func BenchmarkBuildShapes(b *testing.B) {
	for _, sh := range buildShapes {
		col := sh.col()
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildApprox(iomodel.NewDisk(iomodel.Config{BlockBits: 8192}), col, ApproxOptions{Seed: 42}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/build")
		})
	}
}
