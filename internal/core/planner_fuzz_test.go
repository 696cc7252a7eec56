package core

import (
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// FuzzQueryBatchPlanner fuzzes the shared-scan batch planner end to end:
// random columns and random range batches (dense complement ranges
// included, repeats removed as Answer's callers remove them) must answer bit-identically to looped single-range Query
// calls, the distinct blocks a batch reads must never exceed the sum of the
// per-query costs, and Reads + SharedSaved must equal that sum exactly (the
// accounting identity: sharing moves block reads, it never invents or loses
// them).
func FuzzQueryBatchPlanner(f *testing.F) {
	f.Add([]byte{7, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 200, 30, 60})
	f.Add([]byte{200, 15, 0, 0, 0, 0, 90, 90, 90, 1, 2, 3, 250, 250, 10, 20, 30, 40})
	f.Add([]byte{50, 2, 255, 0, 255, 0, 1, 1, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 16 + int(data[0])<<2 // 16..1036 rows
		sigma := 2 + int(data[1])%30
		nq := 2 + int(data[2])%10
		data = data[3:]
		x := make([]uint32, n)
		for i := range x {
			x[i] = uint32(data[i%len(data)]) % uint32(sigma)
		}
		d := iomodel.NewDisk(iomodel.Config{BlockBits: 256})
		ox, err := BuildOptimalDefault(d, workload.Column{X: x, Sigma: sigma})
		if err != nil {
			t.Fatal(err)
		}
		rs := make([]index.Range, nq)
		for q := range rs {
			lo := uint32(data[(2*q)%len(data)]) % uint32(sigma)
			hi := lo + uint32(data[(2*q+1)%len(data)])%uint32(sigma-int(lo))
			rs[q] = index.Range{Lo: lo, Hi: hi}
		}
		rs = distinctRanges(rs)
		got, stats, err := answerBatch(ox, rs)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i, r := range rs {
			want, st, err := ox.Query(r)
			if err != nil {
				t.Fatal(err)
			}
			if !cbitmap.Equal(got[i], want) {
				t.Fatalf("range %v: batch answer differs from single query", r)
			}
			ref, _, err := ox.QueryUnfused(r)
			if err != nil {
				t.Fatal(err)
			}
			if !cbitmap.Equal(got[i], ref) || !cbitmap.Equal(want, ref) {
				t.Fatalf("range %v: answer differs from the decode-then-union oracle", r)
			}
			sum += st.Reads
		}
		if stats.Reads > sum {
			t.Fatalf("batch read %d blocks, more than the %d of per-query sessions", stats.Reads, sum)
		}
		if len(rs) > 1 && stats.Reads+stats.SharedSaved != sum {
			t.Fatalf("Reads %d + SharedSaved %d != per-query cost %d", stats.Reads, stats.SharedSaved, sum)
		}

		// The same index over a Freeze view, whose sessions are stable: the
		// validation memo fills on the first round and is replayed on the
		// second, and neither may change an answer or a count.
		ro := newOptimal(d.Freeze(), ox.tree, ox.opts)
		ro.layout, ro.aExt = ox.layout, ox.aExt
		for _, lv := range ox.levels {
			ro.levels = append(ro.levels, newMatLevel(lv.depth, lv.members))
		}
		for round := range 2 {
			rgot, rstats, err := answerBatch(ro, rs)
			if err != nil {
				t.Fatal(err)
			}
			if rstats != stats {
				t.Fatalf("round %d: read-only batch stats %+v, writable %+v", round, rstats, stats)
			}
			for i, r := range rs {
				one, _, err := ro.Query(r)
				if err != nil {
					t.Fatal(err)
				}
				if !cbitmap.Equal(rgot[i], got[i]) || !cbitmap.Equal(one, got[i]) {
					t.Fatalf("round %d, range %v: read-only answer differs", round, r)
				}
				// Equal compares bytes; a wrong remembered last shows in the
				// answer's own last position, which Contains bounds by.
				if p := got[i].Positions(); len(p) > 0 && (!rgot[i].Contains(p[len(p)-1]) || !one.Contains(p[len(p)-1])) {
					t.Fatalf("round %d, range %v: read-only answer misplaces its last row", round, r)
				}
			}
		}
	})
}
