package iomodel

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/bitio"
)

func writeWords(t *testing.T, d *Disk, ext Extent, base uint64) {
	t.Helper()
	tc := d.NewTouch()
	defer tc.Close()
	for i := int64(0); i*64 < ext.Bits; i++ {
		if err := tc.WriteBits(ext.Off+i*64, base+uint64(i), 64); err != nil {
			t.Fatalf("write word %d: %v", i, err)
		}
	}
}

func readWords(t *testing.T, d *Disk, ext Extent, base uint64, label string) {
	t.Helper()
	tc := d.NewTouch()
	defer tc.Close()
	for i := int64(0); i*64 < ext.Bits; i++ {
		v, err := tc.ReadBits(ext.Off+i*64, 64)
		if err != nil {
			t.Fatalf("%s: read word %d: %v", label, i, err)
		}
		if v != base+uint64(i) {
			t.Fatalf("%s: word %d = %#x, want %#x", label, i, v, base+uint64(i))
		}
	}
}

// TestDiskFreezeKeepsBits: a frozen view keeps the bits at the moment of the
// Freeze while the live device mutates in place, appends, frees and reuses
// blocks.
func TestDiskFreezeKeepsBits(t *testing.T) {
	d := NewDisk(Config{BlockBits: 256})
	w := bitio.NewWriter(0)
	for i := 0; i < 16; i++ {
		w.WriteBits(0, 64)
	}
	ext := d.AllocStream(w)
	writeWords(t, d, ext, 100)

	view := d.Freeze()
	if !view.Frozen() || d.Frozen() {
		t.Fatalf("Frozen() = view %v live %v", view.Frozen(), d.Frozen())
	}

	// Overwrite in place, then append beyond the view's captured range.
	writeWords(t, d, ext, 900)
	w2 := bitio.NewWriter(0)
	for i := 0; i < 16; i++ {
		w2.WriteBits(uint64(i), 64)
	}
	d.AllocStream(w2)

	readWords(t, view, ext, 100, "view after overwrite")
	readWords(t, d, ext, 900, "live after overwrite")
	if view.AllocatedBits() >= d.AllocatedBits() {
		t.Fatalf("view tail %d not before live tail %d", view.AllocatedBits(), d.AllocatedBits())
	}
}

// Freeing a block on the live device and reusing it must not show through a
// view frozen before the free: the reuse write lands in the live device's
// private copy.
func TestFreezeSurvivesBlockReuse(t *testing.T) {
	d := NewDisk(Config{BlockBits: 256})
	blk := d.AllocBlock()
	ext := Extent{Off: d.BlockOff(blk), Bits: 256}
	writeWords(t, d, ext, 41)

	view := d.Freeze()
	d.FreeBlock(blk)
	blk2 := d.AllocBlock() // reuses blk, zeroing it
	if blk2 != blk {
		t.Fatalf("expected reuse of block %d, got %d", blk, blk2)
	}
	writeWords(t, d, ext, 77)

	readWords(t, view, ext, 41, "view after reuse")
	readWords(t, d, ext, 77, "live after reuse")
}

// Stacked freezes: each view keeps its own version, with at most one clone
// per publish (cowPending resets after the first mutation).
func TestFreezeStackedVersions(t *testing.T) {
	d := NewDisk(Config{BlockBits: 256})
	w := bitio.NewWriter(0)
	for i := 0; i < 4; i++ {
		w.WriteBits(0, 64)
	}
	ext := d.AllocStream(w)
	var views []*Disk
	for ver := 0; ver < 5; ver++ {
		writeWords(t, d, ext, uint64(1000*ver))
		views = append(views, d.Freeze())
	}
	for ver, v := range views {
		readWords(t, v, ext, uint64(1000*ver), "stacked view")
	}
}

// A frozen view rejects every mutation: allocation panics with ErrReadOnly
// (like a file-backed device) and Touch writes report it as an error.
func TestFreezeRejectsWrites(t *testing.T) {
	d := NewDisk(Config{BlockBits: 256})
	w := bitio.NewWriter(0)
	w.WriteBits(7, 64)
	ext := d.AllocStream(w)
	view := d.Freeze()

	mustPanic := func(name string, f func()) {
		defer func() {
			if r := recover(); r == nil {
				t.Fatalf("%s on a frozen view did not panic", name)
			} else if err, ok := r.(error); !ok || !errors.Is(err, ErrReadOnly) {
				t.Fatalf("%s panicked with %v, want ErrReadOnly", name, r)
			}
		}()
		f()
	}
	mustPanic("AllocStream", func() { view.AllocStream(bitio.NewWriter(0)) })
	mustPanic("AllocBlock", func() { view.AllocBlock() })
	mustPanic("AlignToBlock", func() { view.AlignToBlock() })
	mustPanic("FreeBlock", func() { view.FreeBlock(0) })

	// Freezing a view again is harmless — it is already immutable.
	if vv := view.Freeze(); !vv.Frozen() {
		t.Fatal("re-freeze lost the frozen mark")
	}

	tc := view.NewTouch()
	defer tc.Close()
	if err := tc.WriteBits(ext.Off, 1, 8); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WriteBits on view: %v, want ErrReadOnly", err)
	}
	if err := tc.WriteStream(ext, w); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WriteStream on view: %v, want ErrReadOnly", err)
	}
}

// Concurrent readers on frozen views race against a mutating writer; run
// under -race this pins that views share no mutable state with the live
// device once published.
func TestFreezeConcurrentReaders(t *testing.T) {
	d := NewDisk(Config{BlockBits: 256})
	w := bitio.NewWriter(0)
	for i := 0; i < 32; i++ {
		w.WriteBits(0, 64)
	}
	ext := d.AllocStream(w)
	writeWords(t, d, ext, 0)

	const readers = 4
	var wg sync.WaitGroup
	for round := 1; round <= 20; round++ {
		view := d.Freeze()
		base := uint64((round - 1) * 1000)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tc := view.NewTouch()
				defer tc.Close()
				for i := int64(0); i*64 < ext.Bits; i++ {
					v, err := tc.ReadBits(ext.Off+i*64, 64)
					if err != nil || v != base+uint64(i) {
						panic("frozen view read saw a torn value")
					}
				}
			}()
		}
		writeWords(t, d, ext, uint64(round*1000)) // mutate while readers run
		wg.Wait()
	}
}

// A Freeze view shares the live schedule: arming faults affects
// reads through the view, so snapshot reads draw the same deterministic
// fates as live ones.
func TestDiskFaultFreezeView(t *testing.T) {
	fd := faultyDisk(Config{BlockBits: 256}, FaultConfig{Seed: 42, TransientPer10k: 10000, TransientCount: 1 << 30})
	w := bitio.NewWriter(0)
	w.WriteBits(0xFEED, 64)
	ext := fd.AllocStream(w)

	view := fd.Freeze()
	tc := view.NewTouch()
	if _, err := tc.ReadBits(ext.Off, 64); err != nil {
		t.Fatalf("disarmed view read: %v", err)
	}
	tc.Close()

	fd.ArmFaults()
	tc = view.NewTouch()
	if _, err := tc.ReadBits(ext.Off, 64); !errors.Is(err, ErrTransientRead) {
		t.Fatalf("armed view read: %v, want ErrTransientRead", err)
	}
	tc.Close()
	fd.DisarmFaults()
}
