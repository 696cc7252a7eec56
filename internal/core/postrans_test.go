package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cbitmap"
	"repro/internal/gamma"
	"repro/internal/iomodel"
)

// ptOracle mirrors the translator with a plain boolean slice.
type ptOracle struct {
	deleted []bool
}

func (o *ptOracle) rawToLive(p int64) (int64, bool) {
	var before int64
	for i := int64(0); i < p; i++ {
		if o.deleted[i] {
			before++
		}
	}
	return p - before, !o.deleted[p]
}

func (o *ptOracle) liveToRaw(live int64) int64 {
	var seen int64
	for i := range o.deleted {
		if !o.deleted[i] {
			if seen == live {
				return int64(i)
			}
			seen++
		}
	}
	return -1
}

func TestPositionTranslatorBasics(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	pt, err := NewPositionTranslator(d, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Live() != 100 || pt.Deleted() != 0 {
		t.Fatal("fresh translator wrong counts")
	}
	for _, p := range []int64{10, 20, 30} {
		if _, err := pt.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	// Idempotent.
	if _, err := pt.Delete(20); err != nil {
		t.Fatal(err)
	}
	if pt.Deleted() != 3 {
		t.Fatalf("deleted = %d", pt.Deleted())
	}
	_, live20, _, err := pt.RawToLive(20)
	if err != nil || live20 {
		t.Fatalf("RawToLive(20) live = %v, %v", live20, err)
	}
	_, live21, _, err := pt.RawToLive(21)
	if err != nil || !live21 {
		t.Fatalf("RawToLive(21) live = %v, %v", live21, err)
	}
	// Raw 25 has 2 deletions before it: live 23.
	live, ok, _, err := pt.RawToLive(25)
	if err != nil || !ok || live != 23 {
		t.Fatalf("RawToLive(25) = %d,%v,%v", live, ok, err)
	}
	// Raw 10 is deleted.
	_, ok, _, err = pt.RawToLive(10)
	if err != nil || ok {
		t.Fatalf("RawToLive(10) ok=%v err=%v", ok, err)
	}
	// Live 23 maps back to raw 25.
	raw, _, err := pt.LiveToRaw(23)
	if err != nil || raw != 25 {
		t.Fatalf("LiveToRaw(23) = %d, %v", raw, err)
	}
	// Live 9 is raw 9 (before any deletion); live 10 skips raw 10.
	raw, _, err = pt.LiveToRaw(10)
	if err != nil || raw != 11 {
		t.Fatalf("LiveToRaw(10) = %d, %v", raw, err)
	}
}

func TestPositionTranslatorRandomizedAgainstOracle(t *testing.T) {
	const n = 5000
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	pt, err := NewPositionTranslator(d, n)
	if err != nil {
		t.Fatal(err)
	}
	o := &ptOracle{deleted: make([]bool, n)}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		p := rng.Int63n(n)
		if _, err := pt.Delete(p); err != nil {
			t.Fatal(err)
		}
		o.deleted[p] = true
		if step%250 != 0 {
			continue
		}
		// Spot-check translations both ways.
		for trial := 0; trial < 20; trial++ {
			q := rng.Int63n(n)
			wantLive, wantOK := o.rawToLive(q)
			live, ok, _, err := pt.RawToLive(q)
			if err != nil {
				t.Fatal(err)
			}
			if ok != wantOK || live != wantLive {
				t.Fatalf("step %d: RawToLive(%d) = %d,%v want %d,%v", step, q, live, ok, wantLive, wantOK)
			}
		}
		if pt.Live() > 0 {
			for trial := 0; trial < 20; trial++ {
				lv := rng.Int63n(pt.Live())
				want := o.liveToRaw(lv)
				raw, _, err := pt.LiveToRaw(lv)
				if err != nil {
					t.Fatal(err)
				}
				if raw != want {
					t.Fatalf("step %d: LiveToRaw(%d) = %d want %d", step, lv, raw, want)
				}
			}
		}
	}
	if pt.Deleted() != int64(countTrue(o.deleted)) {
		t.Fatalf("deleted count %d vs oracle %d", pt.Deleted(), countTrue(o.deleted))
	}
}

func countTrue(b []bool) int {
	c := 0
	for _, v := range b {
		if v {
			c++
		}
	}
	return c
}

func TestPositionTranslatorRoundTrips(t *testing.T) {
	const n = 3000
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 2048})
	pt, err := NewPositionTranslator(d, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		pt.Delete(rng.Int63n(n))
	}
	// live -> raw -> live is the identity on live ordinals.
	for lv := int64(0); lv < pt.Live(); lv += 37 {
		raw, _, err := pt.LiveToRaw(lv)
		if err != nil {
			t.Fatal(err)
		}
		back, ok, _, err := pt.RawToLive(raw)
		if err != nil || !ok || back != lv {
			t.Fatalf("round trip %d -> %d -> %d (ok=%v, err=%v)", lv, raw, back, ok, err)
		}
	}
}

func TestPositionTranslatorIOCost(t *testing.T) {
	// Translation must stay O(log_b n): a handful of block reads even after
	// many deletions.
	const n = 1 << 20
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 8192})
	pt, err := NewPositionTranslator(d, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30000; i++ {
		pt.Delete(rng.Int63n(n))
	}
	_, _, st, err := pt.RawToLive(n / 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads > 8 {
		t.Fatalf("RawToLive reads = %d", st.Reads)
	}
	_, st2, err := pt.LiveToRaw(pt.Live() / 2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Reads > 8 {
		t.Fatalf("LiveToRaw reads = %d", st2.Reads)
	}
}

func TestPositionTranslatorBoundsAndRebuildSignal(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	pt, err := NewPositionTranslator(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Delete(-1); err == nil {
		t.Fatal("negative accepted")
	}
	if _, err := pt.Delete(10); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, _, err := pt.LiveToRaw(10); err == nil {
		t.Fatal("live out of range accepted")
	}
	for p := int64(0); p < 6; p++ {
		pt.Delete(p)
	}
	if !pt.NeedsRebuild() {
		t.Fatal("rebuild signal missing after deleting 60%")
	}
	// All remaining live positions map to 6..9.
	for lv := int64(0); lv < pt.Live(); lv++ {
		raw, _, err := pt.LiveToRaw(lv)
		if err != nil || raw != 6+lv {
			t.Fatalf("LiveToRaw(%d) = %d, %v", lv, raw, err)
		}
	}
	tiny := iomodel.NewDisk(iomodel.Config{BlockBits: 64})
	if _, err := NewPositionTranslator(tiny, 1<<40); err == nil {
		t.Fatal("tiny blocks accepted")
	}
}

// TestPositionTranslatorLeafFitsAfterExtend: leafCap is sized from the
// universe at creation, and Extend keeps it, so once positions outgrow that
// universe a leaf of leafCap gaps no longer fits its block. Deletes must
// split such a leaf instead of writing into the next block on the device.
func TestPositionTranslatorLeafFitsAfterExtend(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	pt, err := NewPositionTranslator(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	if pt.leafCap != 90 {
		t.Fatalf("leafCap = %d, want 90", pt.leafCap)
	}
	// The next block belongs to someone else: fill it with a pattern.
	next := d.AllocBlock()
	const pattern = 0xa5a5a5a5a5a5a5a5
	tc := d.NewTouch()
	for off := int64(0); off < 1024; off += 64 {
		if err := tc.WriteBits(d.BlockOff(next)+off, pattern, 64); err != nil {
			t.Fatal(err)
		}
	}
	tc.Close()
	if err := pt.Extend(100000); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 90; i++ {
		if _, err := pt.Delete(i * 1000); err != nil {
			t.Fatalf("Delete(%d): %v", i*1000, err)
		}
	}
	tc = d.NewTouch()
	defer tc.Close()
	for off := int64(0); off < 1024; off += 64 {
		if v, err := tc.ReadBits(d.BlockOff(next)+off, 64); err != nil || v != pattern {
			t.Fatalf("block after the leaf, bit %d: %#x, %v (want %#x)", off, v, err, uint64(pattern))
		}
	}
	for i := int64(0); i < 90; i++ {
		p := i*1000 + 500
		if live, ok, _, err := pt.RawToLive(p); err != nil || !ok || live != p-i-1 {
			t.Fatalf("RawToLive(%d) = %d, %v, %v; want %d", p, live, ok, err, p-i-1)
		}
	}
}

// TestTranslatorLeavesDecodeAsPointLeaves: the translator keeps its leaves in
// the point index's leaf format. In the regime where leaves outgrow their
// count-based capacity (a translator over 16 rows extended by 10^5 appends,
// then deleted from), every leaf block read back from the device through the
// point index's validating leaf reader yields exactly the leaf's in-memory
// positions and ends where its gap stream does.
func TestTranslatorLeavesDecodeAsPointLeaves(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	pt, err := NewPositionTranslator(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Extend(100000); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	for i := int64(0); i < 90; i++ {
		if _, err := pt.Delete(i * 1000); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i++ {
		if _, err := pt.Delete(rng.Int63n(pt.N())); err != nil {
			t.Fatal(err)
		}
	}
	var leaves []*ptNode
	var walk func(nd *ptNode)
	walk = func(nd *ptNode) {
		if nd.leaf {
			leaves = append(leaves, nd)
		}
		for _, k := range nd.kids {
			walk(k)
		}
	}
	walk(pt.root)
	if len(leaves) < 2 {
		t.Fatalf("%d leaves: the regime should split", len(leaves))
	}
	tc := d.NewTouch()
	defer tc.Close()
	var total int64
	for li, nd := range leaves {
		bits, prev := pointLeafHeaderBits, int64(-1)
		for _, p := range nd.pos {
			bits += gamma.Len(uint64(p - prev))
			prev = p
		}
		var s cbitmap.Stream
		if err := openLeaf(tc, d, nd.blk, bits, newChunkBuf(), pt.N(), &s); err != nil {
			t.Fatalf("leaf %d: %v", li, err)
		}
		got, err := drainLeaf(&s, nil, nil)
		if err != nil {
			t.Fatalf("leaf %d: %v", li, err)
		}
		if !slices.Equal(got, nd.pos) {
			t.Fatalf("leaf %d decodes to %d positions, want the %d in memory", li, len(got), len(nd.pos))
		}
		if _, ok := s.ValidatedLast(); !ok {
			t.Fatalf("leaf %d: the stream does not end at bit %d", li, bits)
		}
		total += int64(len(got))
	}
	if total != pt.Deleted() {
		t.Fatalf("leaves hold %d positions, translator reports %d deleted", total, pt.Deleted())
	}
}

// TestTranslatorSessionAllocs: every translator call closes its session, so
// the disk's pooled Touch serves the next call and a lookup allocates
// nothing; a Delete that fails on a write fault still reports its reads.
func TestTranslatorSessionAllocs(t *testing.T) {
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	pt, err := NewPositionTranslator(d, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 10000; p += 7 {
		if _, err := pt.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if !raceEnabled {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, _, err := pt.RawToLive(5000); err != nil {
				t.Fatal(err)
			}
			if _, _, err := pt.LiveToRaw(4000); err != nil {
				t.Fatal(err)
			}
			if _, err := pt.Delete(7); err != nil { // already deleted: reads only
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("RawToLive, LiveToRaw and a repeated Delete allocated %.1f times, want 0", allocs)
		}
	}
	fc := iomodel.FaultConfig{Seed: 1, FailedWritePer10k: 10000}
	fd := iomodel.NewDisk(iomodel.Config{BlockBits: 1024, Faults: &fc})
	fpt, err := NewPositionTranslator(fd, 100)
	if err != nil {
		t.Fatal(err)
	}
	fd.ArmFaults()
	st, err := fpt.Delete(3)
	if err == nil {
		t.Fatal("Delete over a failing write succeeded")
	}
	if st.Reads == 0 {
		t.Fatalf("failed Delete reported no reads: %+v", st)
	}
}
