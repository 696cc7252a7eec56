package core

import (
	"math/rand"
	"testing"

	"repro/internal/iomodel"
	"repro/internal/workload"
)

// pointOracle mirrors a PointIndex with plain sets.
type pointOracle struct {
	sets map[uint32]map[int64]bool
}

func newPointOracle() *pointOracle {
	return &pointOracle{sets: make(map[uint32]map[int64]bool)}
}

func (o *pointOracle) insert(ch uint32, pos int64) {
	if o.sets[ch] == nil {
		o.sets[ch] = make(map[int64]bool)
	}
	o.sets[ch][pos] = true
}

func (o *pointOracle) delete(ch uint32, pos int64) {
	delete(o.sets[ch], pos)
}

func checkPointIndex(t *testing.T, px *PointIndex, o *pointOracle, ch uint32) {
	t.Helper()
	got, _, err := px.PointQuery(ch)
	if err != nil {
		t.Fatalf("PointQuery(%d): %v", ch, err)
	}
	want := o.sets[ch]
	if int(got.Card()) != len(want) {
		t.Fatalf("PointQuery(%d): %d positions, want %d", ch, got.Card(), len(want))
	}
	it := got.Iter()
	prev := int64(-1)
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		if !want[p] {
			t.Fatalf("PointQuery(%d): extra position %d", ch, p)
		}
		if p <= prev {
			t.Fatalf("PointQuery(%d): unsorted output", ch)
		}
		prev = p
	}
}

func TestPointIndexBulkBuild(t *testing.T) {
	col := workload.Uniform(3000, 32, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	px, err := BuildPointIndex(d, col, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := newPointOracle()
	for i, ch := range col.X {
		o.insert(ch, int64(i))
	}
	for ch := uint32(0); ch < 32; ch++ {
		checkPointIndex(t, px, o, ch)
	}
}

func TestPointIndexInsertOnly(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	px, err := NewPointIndex(d, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := newPointOracle()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		ch := uint32(rng.Intn(16))
		pos := rng.Int63n(1 << 20)
		if _, err := px.Insert(ch, pos); err != nil {
			t.Fatal(err)
		}
		o.insert(ch, pos)
	}
	for ch := uint32(0); ch < 16; ch++ {
		checkPointIndex(t, px, o, ch)
	}
}

func TestPointIndexMixedOps(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	px, err := NewPointIndex(d, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := newPointOracle()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8000; i++ {
		ch := uint32(rng.Intn(8))
		pos := rng.Int63n(500) // small space: plenty of collisions/redeletes
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
		if i%997 == 0 {
			checkPointIndex(t, px, o, ch)
		}
	}
	for ch := uint32(0); ch < 8; ch++ {
		checkPointIndex(t, px, o, ch)
	}
}

func TestPointIndexInsertDeleteSamePosition(t *testing.T) {
	// Arrival order must win: insert then delete = absent; delete then
	// insert = present, even within one buffered batch.
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	px, err := NewPointIndex(d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	px.Insert(1, 42)
	px.Delete(1, 42)
	got, _, err := px.PointQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Card() != 0 {
		t.Fatalf("insert+delete left %d positions", got.Card())
	}
	px.Delete(2, 7)
	px.Insert(2, 7)
	got, _, err = px.PointQuery(2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Card() != 1 {
		t.Fatalf("delete+insert: card %d, want 1", got.Card())
	}
}

func TestPointIndexUpdateCostAmortised(t *testing.T) {
	// Theorem 6: amortised O(lg n / b) I/Os per update. Measure total
	// writes over many updates; per-update cost must be well below 1.
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	px, err := NewPointIndex(d, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const updates = 20000
	var total int64
	for i := 0; i < updates; i++ {
		st, err := px.Insert(uint32(rng.Intn(64)), rng.Int63n(1<<30))
		if err != nil {
			t.Fatal(err)
		}
		total += int64(st.Reads + st.Writes)
	}
	perUpdate := float64(total) / updates
	if perUpdate > 0.6 {
		t.Fatalf("amortised update cost %.3f I/Os — buffering is not working", perUpdate)
	}
}

func TestPointIndexQueryCost(t *testing.T) {
	// Theorem 6 query: O(T/B + lg n) I/Os.
	col := workload.Uniform(1<<15, 64, 6)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 4096})
	px, err := BuildPointIndex(d, col, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := px.PointQuery(13)
	if err != nil {
		t.Fatal(err)
	}
	// T ~ (n/64)*avg gap bits ~ 512*12 bits = ~2 blocks; lg n paths ~ few.
	if stats.Reads > 30 {
		t.Fatalf("point query reads = %d", stats.Reads)
	}
}

func TestPointIndexErrors(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	px, err := NewPointIndex(d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := px.Insert(4, 0); err == nil {
		t.Fatal("out-of-alphabet insert accepted")
	}
	if _, err := px.Insert(0, -1); err == nil {
		t.Fatal("negative position accepted")
	}
	if _, _, err := px.PointQuery(9); err == nil {
		t.Fatal("out-of-alphabet query accepted")
	}
	if _, err := NewPointIndex(d, 4, 1); err == nil {
		t.Fatal("c=1 accepted")
	}
	tiny := iomodel.NewDisk(iomodel.Config{BlockBits: 128})
	if _, err := NewPointIndex(tiny, 4, 2); err == nil {
		t.Fatal("tiny blocks accepted")
	}
}

func TestPointIndexManyCharsSparse(t *testing.T) {
	// Many characters with one position each stresses leaf creation.
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	px, err := NewPointIndex(d, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := newPointOracle()
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(1024)
	for _, ch := range perm {
		pos := rng.Int63n(1 << 20)
		px.Insert(uint32(ch), pos)
		o.insert(uint32(ch), pos)
	}
	for _, ch := range []uint32{0, 1, 511, 512, 1023} {
		checkPointIndex(t, px, o, ch)
	}
}
