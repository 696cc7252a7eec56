package core

import (
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/workload"
)

// Failure injection: corrupting on-disk state must surface as errors from
// the query path, never as panics or silent wrong answers without any
// indication.

func TestCorruptLevelBitmapDetected(t *testing.T) {
	col := workload.Uniform(2000, 32, 1)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	ix, err := BuildOptimalDefault(d, col)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out a member of the deepest level: the gamma decoder reads an
	// enormous unary run and either decodes past the universe or runs out
	// of bits — both must surface as errors.
	lv := &ix.levels[len(ix.levels)-1]
	m := lv.members[len(lv.members)/2]
	tc := d.NewTouch()
	pos := m.ext.Off
	for rem := m.ext.Bits; rem > 0; {
		nbits := int64(64)
		if nbits > rem {
			nbits = rem
		}
		if err := tc.WriteBits(pos, 0, int(nbits)); err != nil {
			t.Fatal(err)
		}
		pos += nbits
		rem -= nbits
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("corruption caused panic: %v", r)
		}
	}()
	sawError := false
	for lo := 0; lo < 32; lo++ {
		_, _, err := ix.Query(index.Range{Lo: uint32(lo), Hi: uint32(lo)})
		if err != nil {
			sawError = true
			if !strings.Contains(err.Error(), "core:") && !strings.Contains(err.Error(), "cbitmap:") {
				t.Fatalf("unhelpful error: %v", err)
			}
		}
	}
	if !sawError {
		t.Fatal("zeroed member bitmap never produced a query error")
	}
}

func TestCbitmapDecodeCorrupt(t *testing.T) {
	// A stream claiming more elements than its bits can hold must error.
	bm := cbitmap.MustFromPositions(100, []int64{3, 50, 99})
	w := bitio.NewWriter(0)
	bm.EncodeTo(w)
	r := bitio.NewReader(w.Bytes(), w.Len())
	if _, err := cbitmap.Decode(r, bm.Card()+10, 100); err == nil {
		t.Fatal("over-long cardinality accepted")
	}
	// A stream decoding past the universe must error.
	w2 := bitio.NewWriter(0)
	big := cbitmap.MustFromPositions(1000, []int64{900})
	big.EncodeTo(w2)
	r2 := bitio.NewReader(w2.Bytes(), w2.Len())
	if _, err := cbitmap.Decode(r2, 1, 100); err == nil {
		t.Fatal("position outside universe accepted")
	}
}

func TestPointIndexCorruptLeafDetected(t *testing.T) {
	col := workload.Uniform(1000, 8, 2)
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	px, err := BuildPointIndex(d, col, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the count header of some leaf block with an absurd value.
	var leaf *pnode
	var find func(nd *pnode)
	find = func(nd *pnode) {
		if leaf != nil {
			return
		}
		if nd.leaf {
			if nd.bits > pointLeafHeaderBits {
				leaf = nd
			}
			return
		}
		for _, k := range nd.kids {
			find(k)
		}
	}
	find(px.root)
	if leaf == nil {
		t.Fatal("no populated leaf found")
	}
	tc := d.NewTouch()
	if err := tc.WriteBits(d.BlockOff(leaf.blk), ^uint64(0), 32); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("corruption caused panic: %v", r)
		}
	}()
	if _, _, err := px.PointQuery(leaf.ch); err == nil {
		t.Fatal("corrupt leaf header accepted")
	}
}

func TestDiskExhaustionIsImpossible(t *testing.T) {
	// The simulated device grows on demand; this documents that allocation
	// failures are out of scope for the model (host OOM aside). What *is*
	// bounded is the addressable position range of the dynamic structures.
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 512})
	px, err := NewPointIndex(d, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := px.Insert(0, 1<<47); err == nil {
		t.Fatal("position beyond the 48-bit encoding accepted")
	}
}

func TestAppendBeyondEncodableRange(t *testing.T) {
	col := workload.Column{Sigma: 4}
	d := iomodel.NewDisk(iomodel.Config{BlockBits: 1024})
	ax, err := BuildAppendIndex(d, col, AppendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ax.n = 1 << 47 // simulate an absurdly long history
	if _, err := ax.Append(0); err == nil {
		t.Fatal("append past encodable positions accepted")
	}
}
