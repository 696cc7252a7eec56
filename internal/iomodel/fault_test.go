package iomodel

import (
	"errors"
	"testing"

	"repro/internal/bitio"
)

// faultyDisk is NewDisk with fc as the disk's fault schedule.
func faultyDisk(cfg Config, fc FaultConfig) *Disk {
	cfg.Faults = &fc
	return NewDisk(cfg)
}

// fillBlocks writes nblocks blocks of pseudo-random bits and returns the extent.
func fillBlocks(t *testing.T, fd *Disk, nblocks int) Extent {
	t.Helper()
	w := bitio.NewWriter(nblocks * fd.BlockBits())
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < nblocks*fd.BlockBits()/64; i++ {
		x = mix64(x)
		w.WriteBits(x, 64)
	}
	return fd.AllocStream(w)
}

func TestDiskFaultDisarmedIsTransparent(t *testing.T) {
	fd := faultyDisk(Config{BlockBits: 512}, FaultConfig{Seed: 1, TransientPer10k: 10000})
	ext := fillBlocks(t, fd, 8)
	tc := fd.NewTouch()
	defer tc.Close()
	w := bitio.NewWriter(int(ext.Bits))
	if err := tc.ReaderInto(ext, w); err != nil {
		t.Fatalf("disarmed read failed: %v", err)
	}
	if tc.FailedReads() != 0 {
		t.Fatalf("disarmed session reported %d failed reads", tc.FailedReads())
	}
}

func TestDiskFaultTransientHealsAndConverges(t *testing.T) {
	fd := faultyDisk(Config{BlockBits: 512}, FaultConfig{Seed: 42, TransientPer10k: 5000, TransientCount: 2})
	const nblocks = 16
	ext := fillBlocks(t, fd, nblocks)

	// Fault-free reference.
	ref := bitio.NewWriter(int(ext.Bits))
	tc := fd.NewTouch()
	if err := tc.ReaderInto(ext, ref); err != nil {
		t.Fatalf("reference read: %v", err)
	}
	tc.Close()

	fd.ArmFaults()
	got := bitio.NewWriter(int(ext.Bits))
	attempts := 0
	for {
		attempts++
		if attempts > nblocks*3 {
			t.Fatalf("transient faults did not converge after %d attempts", attempts)
		}
		tc := fd.NewTouch()
		err := tc.ReaderInto(ext, got)
		tc.Close()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrTransientRead) {
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	if attempts < 2 {
		t.Fatalf("schedule injected no transient faults (seed too lucky?)")
	}
	if string(got.Bytes()) != string(ref.Bytes()) || got.Len() != ref.Len() {
		t.Fatalf("post-heal read differs from fault-free reference")
	}
	if fd.Stats().FailedReads == 0 {
		t.Fatalf("FailedReads not accounted")
	}
}

func TestDiskFaultPermanentNeverHeals(t *testing.T) {
	fd := faultyDisk(Config{BlockBits: 512}, FaultConfig{Seed: 7, PermanentPer10k: 10000})
	ext := fillBlocks(t, fd, 4)
	fd.ArmFaults()
	for i := 0; i < 5; i++ {
		tc := fd.NewTouch()
		w := bitio.NewWriter(int(ext.Bits))
		err := tc.ReaderInto(ext, w)
		tc.Close()
		if !errors.Is(err, ErrPermanentRead) {
			t.Fatalf("attempt %d: want ErrPermanentRead, got %v", i, err)
		}
	}
}

func TestFaultDiskCorruptionFlipsOneDeterministicBit(t *testing.T) {
	fd := faultyDisk(Config{BlockBits: 512}, FaultConfig{Seed: 3, CorruptPer10k: 10000})
	ext := fillBlocks(t, fd, 1)

	ref := bitio.NewWriter(int(ext.Bits))
	tc := fd.NewTouch()
	if err := tc.ReaderInto(ext, ref); err != nil {
		t.Fatalf("reference read: %v", err)
	}
	tc.Close()

	fd.ArmFaults()
	flipped := -1
	for trial := 0; trial < 2; trial++ {
		got := bitio.NewWriter(int(ext.Bits))
		tc := fd.NewTouch() // fresh session: the block is re-charged and re-corrupted
		if err := tc.ReaderInto(ext, got); err != nil {
			t.Fatalf("corrupt read errored: %v", err)
		}
		tc.Close()
		diff := 0
		at := -1
		for i := range got.Bytes() {
			if d := got.Bytes()[i] ^ ref.Bytes()[i]; d != 0 {
				for b := 0; b < 8; b++ {
					if d&(0x80>>uint(b)) != 0 {
						diff++
						at = i*8 + b
					}
				}
			}
		}
		if diff != 1 {
			t.Fatalf("trial %d: want exactly 1 flipped bit, got %d", trial, diff)
		}
		if trial == 0 {
			flipped = at
		} else if at != flipped {
			t.Fatalf("corruption not deterministic: bit %d then %d", flipped, at)
		}
	}
}

func TestFaultDiskWritePathNeverFaults(t *testing.T) {
	fd := faultyDisk(Config{BlockBits: 512}, FaultConfig{Seed: 9, TransientPer10k: 10000, PermanentPer10k: 0})
	fd.ArmFaults()
	id := fd.AllocBlock()
	tc := fd.NewTouch()
	defer tc.Close()
	if err := tc.WriteBits(fd.BlockOff(id), 0xdead, 16); err != nil {
		t.Fatalf("write faulted: %v", err)
	}
}

func TestFaultDiskCacheResidencyAfterFailure(t *testing.T) {
	// A failing read must not insert the block into the cache: the retry has
	// to reach the device again (and heal the transient budget).
	fd := faultyDisk(Config{BlockBits: 512, CacheBlocks: 8},
		FaultConfig{Seed: 11, TransientPer10k: 10000, TransientCount: 1})
	ext := fillBlocks(t, fd, 1)
	fd.ArmFaults()

	tc := fd.NewTouch()
	w := bitio.NewWriter(int(ext.Bits))
	if err := tc.ReaderInto(ext, w); !errors.Is(err, ErrTransientRead) {
		t.Fatalf("want transient failure, got %v", err)
	}
	tc.Close()
	if fd.CachedBlocks() != 0 {
		t.Fatalf("failed read gained cache residency (%d blocks)", fd.CachedBlocks())
	}

	tc = fd.NewTouch()
	if err := tc.ReaderInto(ext, w); err != nil {
		t.Fatalf("healed retry failed: %v", err)
	}
	tc.Close()
	if fd.CachedBlocks() != 1 {
		t.Fatalf("successful read not cached (%d blocks)", fd.CachedBlocks())
	}
}

func TestNewDiskCheckedRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{BlockBits: -8},
		{BlockBits: 13},
		{BlockBits: maxBlockBits + 8},
		{CacheBlocks: -1},
	} {
		if _, err := NewDiskChecked(cfg); err == nil {
			t.Errorf("NewDiskChecked(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := NewDiskChecked(Config{}); err != nil {
		t.Errorf("NewDiskChecked rejected zero config: %v", err)
	}
}

func TestFaultConfigValidate(t *testing.T) {
	for _, fc := range []FaultConfig{
		{TransientPer10k: -1},
		{TransientPer10k: 10001},
		{PermanentPer10k: 20000},
		{CorruptPer10k: -5},
		{TransientCount: -1},
		{ReadLatency: -1},
	} {
		if err := fc.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid fault config", fc)
		}
	}
	if err := (FaultConfig{TransientPer10k: 100}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
