package iomodel

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildImageDisk writes a deterministic pattern over nblocks blocks of a
// fresh simulated disk and returns the disk plus the positions/values
// written.
func buildImageDisk(t *testing.T, cfg Config, nblocks int) (*Disk, []int64, []uint64) {
	t.Helper()
	d, err := NewDiskChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nblocks; i++ {
		if id := d.AllocBlock(); int(id) != i {
			t.Fatalf("block %d allocated as %d", i, id)
		}
	}
	tch := d.NewTouch()
	defer tch.Close()
	var poss []int64
	var vals []uint64
	bb := int64(d.BlockBits())
	for i := 0; i < nblocks; i++ {
		for _, off := range []int64{0, 64, bb - 64} {
			pos := int64(i)*bb + off
			v := uint64(i)*1000003 + uint64(off)*31 + 7
			if err := tch.WriteBits(pos, v, 64); err != nil {
				t.Fatal(err)
			}
			poss = append(poss, pos)
			vals = append(vals, v)
		}
	}
	return d, poss, vals
}

// dumpImage writes the disk image to a file at the given base offset and
// returns the path and tail.
func dumpImage(t *testing.T, d *Disk, base int64) (string, int64) {
	t.Helper()
	tail, data := d.Image()
	path := filepath.Join(t.TempDir(), "image.bin")
	buf := make([]byte, base+int64(len(data)))
	copy(buf[base:], data)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, tail
}

func openBacked(t *testing.T, path string, cfg Config, bk FileBackingConfig) (*FileDisk, *os.File) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := OpenFileDisk(f, cfg, bk)
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	return fd, f
}

func TestFileDiskRoundTrip(t *testing.T) {
	cfg := Config{BlockBits: 512}
	for _, base := range []int64{0, 64} {
		d, poss, vals := buildImageDisk(t, cfg, 5)
		path, tail := dumpImage(t, d, base)
		fd, f := openBacked(t, path, cfg, FileBackingConfig{Base: base, TailBits: tail})
		defer f.Close()
		defer fd.Close()

		tch := fd.NewTouch()
		for i, pos := range poss {
			got, err := tch.ReadBits(pos, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got != vals[i] {
				t.Fatalf("base=%d pos=%d: read %#x, want %#x", base, pos, got, vals[i])
			}
		}
		charged := tch.Reads()
		tch.Close()
		if charged != 5 {
			t.Fatalf("charged %d reads over 5 blocks", charged)
		}
		if got := fd.DeviceReads(); got != int64(charged) {
			t.Fatalf("device issued %d real reads, charged %d", got, charged)
		}

		// A second session re-touches the same blocks: each charge must be a
		// fresh real read even though the mirror is already populated.
		t2 := fd.NewTouch()
		for _, pos := range poss {
			if _, err := t2.ReadBits(pos, 64); err != nil {
				t.Fatal(err)
			}
		}
		c2 := t2.Reads()
		t2.Close()
		if got := fd.DeviceReads(); got != int64(charged+c2) {
			t.Fatalf("device issued %d real reads after two sessions, charged %d", got, charged+c2)
		}
	}
}

// TestFileDiskResetStatsKeepsDeviceReads: ResetStats zeroes the real-read
// count with the charged one, so DeviceReads equals Stats().BlockReads after
// a reset too.
func TestFileDiskResetStatsKeepsDeviceReads(t *testing.T) {
	cfg := Config{BlockBits: 512}
	d, poss, _ := buildImageDisk(t, cfg, 2)
	path, tail := dumpImage(t, d, 0)
	fd, f := openBacked(t, path, cfg, FileBackingConfig{TailBits: tail})
	defer f.Close()
	defer fd.Close()

	read := func(pos int64) {
		tch := fd.NewTouch()
		defer tch.Close()
		if _, err := tch.ReadBits(pos, 64); err != nil {
			t.Fatal(err)
		}
	}
	read(poss[0]) // block 0
	fd.ResetStats()
	read(poss[3]) // block 1
	if dev, charged := fd.DeviceReads(), fd.Stats().BlockReads; dev != 1 || charged != 1 {
		t.Fatalf("after reset: DeviceReads %d, BlockReads %d, want 1 and 1", dev, charged)
	}
}

func TestFileDiskReadOnly(t *testing.T) {
	d, _, _ := buildImageDisk(t, Config{BlockBits: 512}, 2)
	path, tail := dumpImage(t, d, 0)
	fd, f := openBacked(t, path, Config{BlockBits: 512}, FileBackingConfig{TailBits: tail})
	defer f.Close()
	defer fd.Close()

	tch := fd.NewTouch()
	defer tch.Close()
	if err := tch.WriteBits(0, 1, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("WriteBits on file-backed device: %v, want ErrReadOnly", err)
	}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("AllocBlock on file-backed device did not panic")
			}
		}()
		fd.AllocBlock()
	}()
}

func TestFileDiskMmap(t *testing.T) {
	cfg := Config{BlockBits: 512}
	d, poss, vals := buildImageDisk(t, cfg, 4)
	path, tail := dumpImage(t, d, 64)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fd, err := OpenFileDisk(f, cfg, FileBackingConfig{Base: 64, TailBits: tail, Mode: ModeMmap})
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	defer fd.Close()
	tch := fd.NewTouch()
	for i, pos := range poss {
		got, err := tch.ReadBits(pos, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got != vals[i] {
			t.Fatalf("pos=%d: read %#x, want %#x", pos, got, vals[i])
		}
	}
	charged := tch.Reads()
	tch.Close()
	if got := fd.DeviceReads(); got != int64(charged) {
		t.Fatalf("mmap device counted %d reads, charged %d", got, charged)
	}
}

// TestFileDiskFaultCompose arms a fault schedule over a file-backed device:
// injected failures must fire before the real read (no pread for a faulted
// access) and surface exactly like on the simulated device.
func TestFileDiskFaultCompose(t *testing.T) {
	cfg := Config{BlockBits: 512}
	d, poss, _ := buildImageDisk(t, cfg, 4)
	path, tail := dumpImage(t, d, 0)
	cfg.Faults = &FaultConfig{Seed: 3, TransientPer10k: 10000, TransientCount: 1}
	fd, f := openBacked(t, path, cfg, FileBackingConfig{TailBits: tail})
	defer f.Close()
	defer fd.Close()

	fd.ArmFaults()
	tch := fd.NewTouch()
	_, err := tch.ReadBits(poss[0], 64)
	tch.Close()
	if !errors.Is(err, ErrTransientRead) {
		t.Fatalf("armed read: %v, want ErrTransientRead", err)
	}
	if got := fd.DeviceReads(); got != 0 {
		t.Fatalf("faulted access issued %d real reads, want 0", got)
	}
	// The retry (transient count exhausted) succeeds and now preads.
	t2 := fd.NewTouch()
	if _, err := t2.ReadBits(poss[0], 64); err != nil {
		t.Fatalf("retry after transient: %v", err)
	}
	t2.Close()
	if got := fd.DeviceReads(); got != 1 {
		t.Fatalf("retry issued %d real reads, want 1", got)
	}
}

// TestFileDiskCache puts the striped LRU cache in front of a file-backed
// device: cache-resident reads are charge-free and must therefore issue no
// real read.
func TestFileDiskCache(t *testing.T) {
	cfg := Config{BlockBits: 512, CacheBlocks: 8}
	d, poss, _ := buildImageDisk(t, Config{BlockBits: 512}, 3)
	path, tail := dumpImage(t, d, 0)
	fd, f := openBacked(t, path, cfg, FileBackingConfig{TailBits: tail})
	defer f.Close()
	defer fd.Close()

	t1 := fd.NewTouch()
	for _, pos := range poss {
		if _, err := t1.ReadBits(pos, 64); err != nil {
			t.Fatal(err)
		}
	}
	c1 := t1.Reads()
	t1.Close()
	if c1 != 3 {
		t.Fatalf("first session charged %d, want 3", c1)
	}
	t2 := fd.NewTouch()
	for _, pos := range poss {
		if _, err := t2.ReadBits(pos, 64); err != nil {
			t.Fatal(err)
		}
	}
	c2 := t2.Reads()
	t2.Close()
	if c2 != 0 {
		t.Fatalf("cache-resident session charged %d, want 0", c2)
	}
	if got := fd.DeviceReads(); got != int64(c1) {
		t.Fatalf("device issued %d real reads, charged %d", got, c1)
	}
}

// TestFileDiskGeometryErrors exercises hostile backing geometry.
func TestFileDiskGeometryErrors(t *testing.T) {
	d, _, _ := buildImageDisk(t, Config{BlockBits: 512}, 2)
	path, tail := dumpImage(t, d, 0)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cases := []FileBackingConfig{
		{Base: -1, TailBits: tail},
		{TailBits: -5},
		{TailBits: tail * 1000},                     // image exceeds file
		{TailBits: tail, Free: []BlockID{99}},       // free id out of range
		{TailBits: tail, Mode: FileMode(42)},        // unknown mode
		{TailBits: tail, Mode: ModeMmap, Reader: f}, // reader in mmap mode
	}
	for i, bk := range cases {
		if _, err := OpenFileDisk(f, Config{BlockBits: 512}, bk); err == nil {
			t.Errorf("case %d: hostile backing accepted", i)
		}
	}
}

// TestFileDiskPeek: Peek reads a file-backed device's bits, in pread and mmap
// mode, outside any session — no charge, no cache entry, no fault — so the
// first session to read the block afterwards still pays for it. Its loads
// count as device reads until ResetStats.
func TestFileDiskPeek(t *testing.T) {
	d, poss, vals := buildImageDisk(t, Config{BlockBits: 512}, 3)
	path, tail := dumpImage(t, d, 0)
	fc := FaultConfig{Seed: 1, TransientPer10k: 10000}
	for _, mode := range []FileMode{ModePread, ModeMmap} {
		fd, f := openBacked(t, path, Config{BlockBits: 512, CacheBlocks: 8, Faults: &fc}, FileBackingConfig{TailBits: tail, Mode: mode})
		fd.ArmFaults()
		r, err := fd.Peek(Extent{Off: 0, Bits: tail})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		for i, pos := range poss {
			if err := r.Seek(int(pos)); err != nil {
				t.Fatal(err)
			}
			if v, _ := r.ReadBits(64); v != vals[i] {
				t.Fatalf("mode %d: bit %d peeks %#x, want %#x", mode, pos, v, vals[i])
			}
		}
		if st := fd.Stats(); st != (StatsSnapshot{}) || fd.CachedBlocks() != 0 || fd.DeviceReads() != 3 {
			t.Fatalf("mode %d: after Peek stats %+v, %d cached blocks, %d device reads", mode, st, fd.CachedBlocks(), fd.DeviceReads())
		}
		// A reader over one value starts at it and ends after it.
		r, err = fd.Peek(Extent{Off: poss[1], Bits: 64})
		if err != nil {
			t.Fatal(err)
		}
		if v, err := r.ReadBits(64); err != nil || v != vals[1] {
			t.Fatalf("mode %d: Peek at bit %d reads %#x (%v), want %#x", mode, poss[1], v, err, vals[1])
		}
		if _, err := r.ReadBits(1); err == nil {
			t.Fatalf("mode %d: Peek's reader runs past its extent", mode)
		}
		fd.DisarmFaults()
		fd.ResetStats()
		tc := fd.NewTouch()
		if _, err := tc.ReadBits(poss[0], 64); err != nil || tc.Reads() != 1 {
			t.Fatalf("mode %d: first read after Peek charged %d (%v), want 1", mode, tc.Reads(), err)
		}
		tc.Close()
		if _, err := fd.Peek(Extent{Off: tail - 8, Bits: 16}); !errors.Is(err, ErrInvalidRange) {
			t.Fatalf("mode %d: Peek past the image: %v", mode, err)
		}
		fd.Close()
		f.Close()
	}
}
