package iomodel

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

func TestAllocStreamRoundTrip(t *testing.T) {
	d := NewDisk(Config{BlockBits: 256})
	w := bitio.NewWriter(0)
	for i := 0; i < 100; i++ {
		w.WriteBits(uint64(i*7+3), 11)
	}
	ext := d.AllocStream(w)
	if ext.Off != 0 || ext.Bits != 1100 {
		t.Fatalf("ext = %+v", ext)
	}
	tc := d.NewTouch()
	r, err := tc.Reader(ext)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, err := r.ReadBits(11)
		if err != nil || v != uint64(i*7+3) {
			t.Fatalf("item %d: %d, %v", i, v, err)
		}
	}
	// 1100 bits over 256-bit blocks starting at 0 spans blocks 0..4 = 5 reads.
	if tc.Reads() != 5 {
		t.Fatalf("reads = %d, want 5", tc.Reads())
	}
}

func TestUnalignedStreamsShareBlocks(t *testing.T) {
	d := NewDisk(Config{BlockBits: 256})
	w1 := bitio.NewWriter(0)
	w1.WriteBits(0xABC, 12)
	w2 := bitio.NewWriter(0)
	w2.WriteBits(0xDEF, 12)
	e1 := d.AllocStream(w1)
	e2 := d.AllocStream(w2)
	if e2.Off != e1.End() {
		t.Fatalf("extents not adjacent: %+v %+v", e1, e2)
	}
	tc := d.NewTouch()
	r1, _ := tc.Reader(e1)
	r2, _ := tc.Reader(e2)
	v1, _ := r1.ReadBits(12)
	v2, _ := r2.ReadBits(12)
	if v1 != 0xABC || v2 != 0xDEF {
		t.Fatalf("got %x %x", v1, v2)
	}
	// Both extents live in block 0: one distinct read.
	if tc.Reads() != 1 {
		t.Fatalf("reads = %d, want 1", tc.Reads())
	}
}

func TestTouchDistinctCounting(t *testing.T) {
	d := NewDisk(Config{BlockBits: 64})
	w := bitio.NewWriter(0)
	w.WriteBits(0, 64)
	w.WriteBits(0, 64)
	ext := d.AllocStream(w)
	tc := d.NewTouch()
	for i := 0; i < 10; i++ {
		if _, err := tc.ReadBits(ext.Off, 8); err != nil {
			t.Fatal(err)
		}
	}
	if tc.Reads() != 1 {
		t.Fatalf("repeated reads of one block: %d, want 1", tc.Reads())
	}
	if _, err := tc.ReadBits(ext.Off+64, 8); err != nil {
		t.Fatal(err)
	}
	if tc.Reads() != 2 {
		t.Fatalf("reads = %d, want 2", tc.Reads())
	}
}

func TestWriteBitsChargesReadAndWrite(t *testing.T) {
	d := NewDisk(Config{BlockBits: 64})
	w := bitio.NewWriter(0)
	w.WriteBits(0, 64)
	ext := d.AllocStream(w)
	tc := d.NewTouch()
	if err := tc.WriteBits(ext.Off+3, 0b101, 3); err != nil {
		t.Fatal(err)
	}
	if tc.Writes() != 1 || tc.Reads() != 1 {
		t.Fatalf("writes=%d reads=%d, want 1,1", tc.Writes(), tc.Reads())
	}
	v, _ := tc.ReadBits(ext.Off, 8)
	if v != 0b00010100 {
		t.Fatalf("block content = %08b", v)
	}
}

func TestOutOfRange(t *testing.T) {
	d := NewDisk(Config{BlockBits: 64})
	tc := d.NewTouch()
	if _, err := tc.ReadBits(0, 1); err != ErrInvalidRange {
		t.Fatalf("empty disk read: %v", err)
	}
	if err := tc.WriteBits(100, 1, 1); err != ErrInvalidRange {
		t.Fatalf("oob write: %v", err)
	}
	if _, err := tc.Reader(Extent{Off: 0, Bits: 1}); err != ErrInvalidRange {
		t.Fatalf("oob reader: %v", err)
	}
}

// TestBlockExtentBoundsWriteStream: a single-block write into BlockExtent
// fits the whole block and no more — a stream one bit longer fails without
// writing anything, so the next block's bits survive.
func TestBlockExtentBoundsWriteStream(t *testing.T) {
	d := NewDisk(Config{BlockBits: 256})
	blk, next := d.AllocBlock(), d.AllocBlock()
	if ext := d.BlockExtent(blk); ext.Off != d.BlockOff(blk) || ext.Bits != 256 {
		t.Fatalf("BlockExtent(%d) = %+v", blk, ext)
	}
	fill := func(bits int) *bitio.Writer {
		w := bitio.NewWriter(bits)
		for i := 0; i < bits; i++ {
			w.WriteBits(1, 1)
		}
		return w
	}
	tc := d.NewTouch()
	defer tc.Close()
	if err := tc.WriteStream(d.BlockExtent(blk), fill(257)); err == nil {
		t.Fatal("a 257-bit stream fit a 256-bit block")
	}
	if tc.Writes() != 0 {
		t.Fatalf("the rejected stream charged %d writes", tc.Writes())
	}
	if err := tc.WriteStream(d.BlockExtent(blk), fill(256)); err != nil {
		t.Fatal(err)
	}
	if v, _ := tc.ReadBits(d.BlockOff(blk)+192, 64); v != ^uint64(0) {
		t.Fatalf("block tail %#x, want all ones", v)
	}
	if v, _ := tc.ReadBits(d.BlockOff(next), 64); v != 0 {
		t.Fatalf("next block head %#x, want zero", v)
	}
}

func TestBlockAllocFreeReuse(t *testing.T) {
	d := NewDisk(Config{BlockBits: 128})
	a := d.AllocBlock()
	b := d.AllocBlock()
	if a == b {
		t.Fatal("same block allocated twice")
	}
	used := d.UsedBits()
	d.FreeBlock(a)
	if d.UsedBits() != used-128 {
		t.Fatalf("UsedBits after free = %d", d.UsedBits())
	}
	c := d.AllocBlock()
	if c != a {
		t.Fatalf("free list not reused: got %d want %d", c, a)
	}
	// Reused block must be zeroed.
	tc := d.NewTouch()
	v, err := tc.ReadBits(d.BlockOff(c), 64)
	if err != nil || v != 0 {
		t.Fatalf("reused block not zero: %x, %v", v, err)
	}
}

func TestBlockZeroedAfterDirtyFree(t *testing.T) {
	d := NewDisk(Config{BlockBits: 128})
	a := d.AllocBlock()
	tc := d.NewTouch()
	if err := tc.WriteBits(d.BlockOff(a), ^uint64(0), 64); err != nil {
		t.Fatal(err)
	}
	d.FreeBlock(a)
	b := d.AllocBlock()
	if b != a {
		t.Fatal("expected reuse")
	}
	v, _ := tc.ReadBits(d.BlockOff(b), 64)
	if v != 0 {
		t.Fatalf("dirty block reused without zeroing: %x", v)
	}
}

func TestChainFileAppendScan(t *testing.T) {
	d := NewDisk(Config{BlockBits: 128})
	f := NewChainFile(d)
	rng := rand.New(rand.NewSource(3))
	var vals []uint64
	for round := 0; round < 50; round++ {
		w := bitio.NewWriter(0)
		k := rng.Intn(10) + 1
		for i := 0; i < k; i++ {
			v := rng.Uint64() & 0x1FFF
			vals = append(vals, v)
			w.WriteBits(v, 13)
		}
		tc := d.NewTouch()
		if err := f.Append(tc, w); err != nil {
			t.Fatal(err)
		}
		// An append of < one block of bits touches at most 2 blocks.
		if tc.Writes() > (k*13)/128+2 {
			t.Fatalf("append of %d bits wrote %d blocks", k*13, tc.Writes())
		}
	}
	if f.Bits() != int64(len(vals)*13) {
		t.Fatalf("Bits = %d, want %d", f.Bits(), len(vals)*13)
	}
	tc := d.NewTouch()
	r, err := f.ReadAll(tc)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		got, err := r.ReadBits(13)
		if err != nil || got != want {
			t.Fatalf("item %d: %d, %v (want %d)", i, got, err, want)
		}
	}
	if tc.Reads() != f.Blocks() {
		t.Fatalf("scan reads = %d, blocks = %d", tc.Reads(), f.Blocks())
	}
}

func TestChainFileTailAppendCost(t *testing.T) {
	d := NewDisk(Config{BlockBits: 1024})
	f := NewChainFile(d)
	// Fill several blocks.
	big := bitio.NewWriter(0)
	for i := 0; i < 100; i++ {
		big.WriteBits(uint64(i), 40)
	}
	tc0 := d.NewTouch()
	if err := f.Append(tc0, big); err != nil {
		t.Fatal(err)
	}
	// A small tail append must touch exactly one block.
	small := bitio.NewWriter(0)
	small.WriteBits(7, 10)
	tc := d.NewTouch()
	if err := f.Append(tc, small); err != nil {
		t.Fatal(err)
	}
	if tc.Writes() != 1 {
		t.Fatalf("tail append writes = %d, want 1", tc.Writes())
	}
}

func TestChainFileReplaceFreesBlocks(t *testing.T) {
	d := NewDisk(Config{BlockBits: 128})
	f := NewChainFile(d)
	w := bitio.NewWriter(0)
	for i := 0; i < 64; i++ {
		w.WriteBits(uint64(i), 32)
	}
	tc := d.NewTouch()
	if err := f.Append(tc, w); err != nil {
		t.Fatal(err)
	}
	nblocks := f.Blocks()
	if nblocks == 0 {
		t.Fatal("expected blocks")
	}
	used := d.UsedBits()
	small := bitio.NewWriter(0)
	small.WriteBits(1, 1)
	if err := f.Replace(tc, small); err != nil {
		t.Fatal(err)
	}
	if f.Bits() != 1 {
		t.Fatalf("Bits after replace = %d", f.Bits())
	}
	if d.UsedBits() >= used {
		t.Fatalf("replace did not shrink usage: %d -> %d", used, d.UsedBits())
	}
	r, err := f.ReadAll(d.NewTouch())
	if err != nil {
		t.Fatal(err)
	}
	v, _ := r.ReadBits(1)
	if v != 1 {
		t.Fatalf("content after replace = %d", v)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := NewDisk(Config{BlockBits: 64})
	w := bitio.NewWriter(0)
	w.WriteBits(0, 64)
	ext := d.AllocStream(w)
	t1 := d.NewTouch()
	t1.ReadBits(ext.Off, 8)
	t2 := d.NewTouch()
	t2.ReadBits(ext.Off, 8)
	s := d.Stats()
	if s.BlockReads != 2 || s.Sessions != 2 {
		t.Fatalf("stats = %+v", s)
	}
	d.ResetStats()
	if d.Stats().BlockReads != 0 {
		t.Fatal("reset failed")
	}
}
