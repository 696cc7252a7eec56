package core

import (
	"math/rand"
	"testing"

	"repro/internal/iomodel"
)

// fullScan collects char c's state from every buffer and leaf in the tree,
// ignoring routing, to distinguish walk misses from apply bugs.
func fullScan(t *testing.T, px *PointIndex, c uint32) int {
	t.Helper()
	set := map[int64]struct{}{}
	var pending []pentry
	tc := px.disk.NewTouch()
	var walk func(nd *pnode)
	walk = func(nd *pnode) {
		if nd.leaf {
			if nd.ch == c {
				pos, err := px.readLeaf(tc, nd)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pos {
					set[p] = struct{}{}
				}
			}
			return
		}
		es, err := px.readBuffer(tc, nd, newChunkBuf(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range es {
			if e.ch == c {
				pending = append(pending, e)
			}
		}
		for _, k := range nd.kids {
			walk(k)
		}
	}
	walk(px.root)
	for _, e := range px.rootBuf {
		if e.ch == c {
			pending = append(pending, e)
		}
	}
	sortPendingBySeq(pending)
	for _, e := range pending {
		if e.del {
			delete(set, e.pos)
		} else {
			set[e.pos] = struct{}{}
		}
	}
	return len(set)
}

func sortPendingBySeq(es []pentry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].seq < es[j-1].seq; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// TestPointIndexFindDivergence replays the mixed-ops workload checking the
// oracle after every operation, so the first diverging op is pinpointed.
func TestPointIndexFindDivergence(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	px, err := NewPointIndex(d, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := newPointOracle()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8000; i++ {
		ch := uint32(rng.Intn(8))
		pos := rng.Int63n(500)
		if rng.Intn(3) == 0 {
			if _, err := px.Delete(ch, pos); err != nil {
				t.Fatal(err)
			}
			o.delete(ch, pos)
		} else {
			if _, err := px.Insert(ch, pos); err != nil {
				t.Fatal(err)
			}
			o.insert(ch, pos)
		}
		if i%250 == 0 || i > 7000 {
			for c := uint32(0); c < 8; c++ {
				got, _, err := px.PointQuery(c)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if int(got.Card()) != len(o.sets[c]) {
					full := fullScan(t, px, c)
					t.Fatalf("first divergence at op %d (ch=%d pos=%d): char %d query=%d full-scan=%d oracle=%d",
						i, ch, pos, c, got.Card(), full, len(o.sets[c]))
				}
			}
		}
	}
}
