package cbitmap

import (
	"fmt"
	"testing"

	"repro/internal/bitio"
	"repro/internal/gamma"
)

// memberSpans describes a point query's members as its plan hands them to
// the merge: each one's bit range in the run buffer, cardinality, order and
// largest position (negative: not yet validated).
type memberSpans struct {
	rd           *bitio.Reader
	starts, lens []int
	cards, lasts []int64
	k            uint
}

// BenchmarkOrderedConcat is the kernel half of hypotheses/point-run: one
// key's rows of a 2^19-row column cut into 16 members of rows each — a
// point-pread key averages 16.4 members of 31 rows — coded at the order best
// for the key's gaps, and concatenated from the members' bit ranges the way
// a point query's merge concatenates them (concatArm): cold validates every
// member, warm replays each from its known last. ns/member and ns/row divide
// the time per answer.
func BenchmarkOrderedConcat(b *testing.B) {
	const n, members = 1 << 19, 16
	for _, rows := range []int{2, 8, 32, 128} {
		pos := streamTestSets(b, 1, rows*members, n, int64(rows))[0].Positions()
		ms := orderedMembers(n, pos, members)
		var costs gamma.Costs
		prev := int64(-1)
		for _, p := range pos {
			costs.Add(uint64(p - prev))
			prev = p
		}
		k, _ := costs.Best()
		orders := make([]uint, members)
		for i := range orders {
			orders[i] = k
		}
		w, starts, lens := encodeConcatOrders(ms, orders)
		sp := memberSpans{rd: bitio.NewReader(w.Bytes(), w.Len()), starts: starts, lens: lens, k: k,
			cards: make([]int64, members), lasts: make([]int64, members)}
		want := MustFromPositions(n, pos)
		for _, warm := range []bool{false, true} {
			for i, m := range ms {
				sp.cards[i], sp.lasts[i] = m.Card(), -1
				if warm {
					sp.lasts[i] = m.last
				}
			}
			var arm concatArm
			got, err := arm.run(n, &sp)
			if err != nil {
				b.Fatal(err)
			}
			if !Equal(got, want) || got.Order() != k {
				b.Fatalf("rows=%d warm=%v: answer differs, or its order %d is not %d", rows, warm, got.Order(), k)
			}
			name := map[bool]string{false: "cold", true: "warm"}[warm]
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := arm.run(n, &sp); err != nil {
						b.Fatal(err)
					}
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(ns/members, "ns/member")
				b.ReportMetric(ns/float64(len(pos)), "ns/row")
			})
		}
	}
}
