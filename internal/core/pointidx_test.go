package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/index"
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

// TestReplay pins the one place buffered updates are applied: the last
// update of a position, by arrival, decides whether it is present.
func TestReplay(t *testing.T) {
	ins := func(pos int64, seq uint64) pentry { return pentry{pos: pos, seq: seq} }
	del := func(pos int64, seq uint64) pentry { return pentry{del: true, pos: pos, seq: seq} }
	for _, tc := range []struct {
		name string
		base []int64
		es   []pentry
		want []int64
	}{
		{"insert then delete", []int64{1, 9}, []pentry{ins(5, 0), del(5, 1)}, []int64{1, 9}},
		{"delete then insert", []int64{5}, []pentry{del(5, 0), ins(5, 1)}, []int64{5}},
		{"arrival, not input, order", []int64{2, 4}, []pentry{del(4, 3), ins(4, 1), ins(3, 2), del(3, 0)}, []int64{2, 3}},
		{"delete of an absent position", []int64{1, 3}, []pentry{del(2, 0), del(7, 1), del(0, 2)}, []int64{1, 3}},
		{"insert of a present position", []int64{1, 3}, []pentry{ins(3, 0), ins(1, 1)}, []int64{1, 3}},
		{"empty base", nil, []pentry{ins(9, 1), ins(2, 0), ins(9, 2), del(4, 3)}, []int64{2, 9}},
		{"no updates", []int64{0, 8}, nil, []int64{0, 8}},
		{"everything deleted", []int64{0, 8}, []pentry{del(8, 0), del(0, 1)}, []int64{}},
	} {
		if got := replay(tc.base, tc.es); !slices.Equal(got, tc.want) {
			t.Errorf("%s: replay = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// FuzzPointIndexOps: after any insert/delete script, every PointQuery equals
// the oracle. Few characters and a few hundred distinct positions make
// updates collide in buffers and leaves; the stride spreads the positions so
// leaves split. Blocks run 512…1024 bits (smaller ones hold fewer than four
// buffered updates and are rejected, see TestPointIndexErrors), branching
// 2…8.
func FuzzPointIndexOps(f *testing.F) {
	f.Add([]byte{1, 5, 0x81, 5, 2, 5, 0x82, 5}, uint16(0))
	f.Add([]byte{0x80, 1, 0, 1, 3, 200, 0x83, 200}, uint16(0x0f3a))
	rng := rand.New(rand.NewSource(29))
	long := make([]byte, 600)
	rng.Read(long)
	f.Add(long, uint16(0x0a11))
	f.Fuzz(func(t *testing.T, script []byte, cfg uint16) {
		sigma := 1 + int(cfg%5)
		blockBits := 512 + 64*int(cfg/5%9)
		c := 2 + int(cfg/45%7)
		stride := int64(1) << (cfg / 315 % 17)
		d := iomodel.NewDisk(iomodel.Config{BlockBits: blockBits})
		px, err := NewPointIndex(d, sigma, c)
		if err != nil {
			t.Fatal(err)
		}
		o := newPointOracle()
		for i := 0; i+1 < len(script); i += 2 {
			ch, pos := uint32(script[i]&0x7f)%uint32(sigma), int64(script[i+1])*stride
			if script[i]&0x80 != 0 {
				_, err = px.Delete(ch, pos)
				o.delete(ch, pos)
			} else {
				_, err = px.Insert(ch, pos)
				o.insert(ch, pos)
			}
			if err != nil {
				t.Fatalf("op %d: %v", i/2, err)
			}
		}
		for ch := uint32(0); ch < uint32(sigma); ch++ {
			checkPointIndex(t, px, o, ch)
		}
	})
}

// populatedLeaf returns the first leaf under nd holding a position.
func populatedLeaf(nd *pnode) *pnode {
	if nd.leaf {
		if nd.count > 0 {
			return nd
		}
		return nil
	}
	for _, k := range nd.kids {
		if l := populatedLeaf(k); l != nil {
			return l
		}
	}
	return nil
}

// flipBit inverts the device bit at pos.
func flipBit(t *testing.T, d *iomodel.Disk, pos int64) {
	t.Helper()
	tc := d.NewTouch()
	v, err := tc.ReadBits(pos, 1)
	if err == nil {
		err = tc.WriteBits(pos, v^1, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestPointIndexCorruptLeafTyped: a leaf block is decoded by cbitmap.Stream,
// so a flipped bit fails PointQuery and Dynamic.Query with an error wrapping
// cbitmap.ErrCorrupt — never a panic, an untyped error or a position at or
// above 2^47 — or decodes to another well-formed leaf.
func TestPointIndexCorruptLeafTyped(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	px, err := BuildPointIndex(d, workload.Uniform(1000, 8, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	leaf := populatedLeaf(px.root)
	if leaf == nil {
		t.Fatal("no populated leaf")
	}
	off := d.BlockOff(leaf.blk)
	failed := 0
	// Bit 0 is the top bit of the count header; the rest flip the gap stream
	// and the padding behind it.
	for bit := int64(0); bit < int64(d.BlockBits()); bit++ {
		if bit > 0 && bit < pointLeafHeaderBits {
			continue
		}
		flipBit(t, d, off+bit)
		bm, _, err := px.PointQuery(leaf.ch)
		flipBit(t, d, off+bit)
		switch {
		case err != nil && !errors.Is(err, cbitmap.ErrCorrupt):
			t.Fatalf("bit %d flipped: untyped error %v", bit, err)
		case err != nil:
			failed++
		case bm.Card() > 0 && bm.Positions()[bm.Card()-1] >= pointUniverse:
			t.Fatalf("bit %d flipped: position beyond 2^47", bit)
		case bit == 0:
			t.Fatal("count header beyond the block accepted")
		}
	}
	if failed < 2 {
		t.Fatalf("only %d flipped bits failed the query", failed)
	}
	// No single flip reaches the universe bound: a leaf of one code worth
	// 2^47+1 (47 zeros, then 48 value bits) decodes to position 2^47.
	tc := d.NewTouch()
	if err := tc.WriteBits(off, 1, pointLeafHeaderBits); err != nil {
		t.Fatal(err)
	}
	if err := tc.WriteBits(off+pointLeafHeaderBits, 0, 47); err != nil {
		t.Fatal(err)
	}
	if err := tc.WriteBits(off+pointLeafHeaderBits+47, pointUniverse+1, 48); err != nil {
		t.Fatal(err)
	}
	if _, _, err := px.PointQuery(leaf.ch); !errors.Is(err, cbitmap.ErrCorrupt) {
		t.Fatalf("position 2^47 in a leaf: err %v, want ErrCorrupt", err)
	}

	dd := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	dx, err := BuildDynamic(dd, workload.Uniform(1500, 8, 3), DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for li, px := range dx.points {
		leaf := populatedLeaf(px.root)
		if leaf == nil {
			continue
		}
		off := dd.BlockOff(leaf.blk)
		for _, bit := range []int64{0, pointLeafHeaderBits, pointLeafHeaderBits + 1, pointLeafHeaderBits + 5} {
			flipBit(t, dd, off+bit)
			failed := 0
			for lo := uint32(0); lo < 8; lo++ {
				for hi := lo; hi < 8; hi++ {
					_, _, err := dx.Query(index.Range{Lo: lo, Hi: hi})
					if err != nil && !errors.Is(err, cbitmap.ErrCorrupt) {
						t.Fatalf("level %d, bit %d flipped: Query(%d,%d): untyped error %v", li, bit, lo, hi, err)
					}
					if err != nil {
						failed++
					}
				}
			}
			flipBit(t, dd, off+bit)
			if bit == 0 && failed == 0 {
				t.Fatalf("level %d: count header beyond the block accepted by every query", li)
			}
		}
	}
}
