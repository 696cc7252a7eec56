package iomodel

import (
	"errors"
	"testing"

	"repro/internal/bitio"
)

// rdBits reads n bits or fails the test.
func rdBits(t *testing.T, tc *Touch, pos int64, n int) uint64 {
	t.Helper()
	v, err := tc.ReadBits(pos, n)
	if err != nil {
		t.Fatalf("ReadBits(%d, %d): %v", pos, n, err)
	}
	return v
}

func TestDiskFaultFailedWriteHealsOnRetry(t *testing.T) {
	fd := faultyDisk(Config{BlockBits: 512}, FaultConfig{Seed: 3, FailedWritePer10k: 10000})
	fd.ArmFaults()
	id := fd.AllocBlock()
	off := fd.BlockOff(id)
	tc := fd.NewTouch()
	defer tc.Close()

	// First write hits the one-shot fate: error, nothing persisted (the
	// tear is at the block start).
	if err := tc.WriteBits(off, 0xbeef, 16); !errors.Is(err, ErrFailedWrite) {
		t.Fatalf("first write: %v, want ErrFailedWrite", err)
	}
	if tc.FailedWrites() != 1 {
		t.Fatalf("FailedWrites = %d, want 1", tc.FailedWrites())
	}
	fd.DisarmFaults()
	if got := rdBits(t, tc, off, 16); got != 0 {
		t.Fatalf("failed write persisted bits: %#x", got)
	}
	fd.ArmFaults()

	// The fate is consumed: the retry goes through and sticks.
	if err := tc.WriteBits(off, 0xbeef, 16); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got := rdBits(t, tc, off, 16); got != 0xbeef {
		t.Fatalf("retry read back %#x, want 0xbeef", got)
	}
	if got := fd.Stats().FailedWrites; got != 1 {
		t.Fatalf("device FailedWrites = %d, want 1", got)
	}
}

// TestDiskFaultShortWriteTornPrefix: a short write on a multi-block stream
// persists a prefix ending exactly at the faulty block's boundary — torn,
// never rolled back, never reordered.
func TestDiskFaultShortWriteTornPrefix(t *testing.T) {
	const bb = 512
	fd := faultyDisk(Config{BlockBits: bb}, FaultConfig{Seed: 5, ShortWritePer10k: 10000})
	const nblocks = 4
	var ids [nblocks]BlockID
	for i := range ids {
		ids[i] = fd.AllocBlock()
	}
	pos := fd.BlockOff(ids[0])

	pattern := func() *bitio.Writer {
		w := bitio.NewWriter(nblocks * bb)
		x := uint64(0x0123456789abcdef)
		for i := 0; i < nblocks*bb/64; i++ {
			x = mix64(x)
			w.WriteBits(x, 64)
		}
		return w
	}

	fd.ArmFaults()
	tc := fd.NewTouch()
	if err := tc.WriteStream(Extent{Off: pos, Bits: nblocks * bb}, pattern()); !errors.Is(err, ErrFailedWrite) {
		t.Fatalf("spanning write: %v, want ErrFailedWrite", err)
	}
	tc.Close()

	// Block 0 drew the short fate: its bits persisted, everything after is
	// untouched.
	fd.DisarmFaults()
	tc = fd.NewTouch()
	ref := pattern()
	refBytes := ref.Bytes()
	r := bitio.NewReader(refBytes, nblocks*bb)
	for i := 0; i < bb/64; i++ {
		want, _ := r.ReadBits(64)
		if got := rdBits(t, tc, pos+int64(i*64), 64); got != want {
			t.Fatalf("torn prefix word %d: %#x, want %#x", i, got, want)
		}
	}
	for i := bb / 64; i < 2*bb/64; i++ {
		if got := rdBits(t, tc, pos+int64(i*64), 64); got != 0 {
			t.Fatalf("bits beyond the tear persisted at word %d: %#x", i, got)
		}
	}
	tc.Close()

	// Every block's fate is one-shot, so repeated retries converge.
	fd.ArmFaults()
	attempts := 0
	for {
		attempts++
		if attempts > nblocks+1 {
			t.Fatalf("short writes did not converge after %d attempts", attempts)
		}
		tc := fd.NewTouch()
		err := tc.WriteStream(Extent{Off: pos, Bits: nblocks * bb}, pattern())
		tc.Close()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrFailedWrite) {
			t.Fatalf("attempt %d: %v", attempts, err)
		}
	}
	fd.DisarmFaults()
	tc = fd.NewTouch()
	defer tc.Close()
	r = bitio.NewReader(refBytes, nblocks*bb)
	for i := 0; i < nblocks*bb/64; i++ {
		want, _ := r.ReadBits(64)
		if got := rdBits(t, tc, pos+int64(i*64), 64); got != want {
			t.Fatalf("converged content wrong at word %d: %#x, want %#x", i, got, want)
		}
	}
}

// TestDiskFaultWriteFateOrder: a block scheduled for both fates fails
// first, then shorts, then heals.
func TestDiskFaultWriteFateOrder(t *testing.T) {
	fd := faultyDisk(Config{BlockBits: 512},
		FaultConfig{Seed: 8, FailedWritePer10k: 10000, ShortWritePer10k: 10000})
	fd.ArmFaults()
	id := fd.AllocBlock()
	off := fd.BlockOff(id)
	tc := fd.NewTouch()
	defer tc.Close()

	if err := tc.WriteBits(off, 1, 8); !errors.Is(err, ErrFailedWrite) {
		t.Fatalf("1st write: %v", err)
	}
	fd.DisarmFaults()
	if got := rdBits(t, tc, off, 8); got != 0 {
		t.Fatalf("failed-fate write persisted: %#x", got)
	}
	fd.ArmFaults()
	// Second attempt draws the short fate: within a single block the tear
	// lands at the block's end, so the bits DO persist — but the caller
	// still sees the error and must not trust the write.
	if err := tc.WriteBits(off, 2, 8); !errors.Is(err, ErrFailedWrite) {
		t.Fatalf("2nd write: %v", err)
	}
	fd.DisarmFaults()
	if got := rdBits(t, tc, off, 8); got != 2 {
		t.Fatalf("short-fate write within one block lost its bits: %#x", got)
	}
	fd.ArmFaults()
	if err := tc.WriteBits(off, 3, 8); err != nil {
		t.Fatalf("3rd write should heal: %v", err)
	}
	if tc.FailedWrites() != 2 {
		t.Fatalf("FailedWrites = %d, want 2", tc.FailedWrites())
	}
}

// TestWriteFaultsPreserveReadSchedule: enabling write fates must not shift
// the read-fault draws for the same seed — the PR's compatibility
// guarantee for existing deterministic schedules.
func TestWriteFaultsPreserveReadSchedule(t *testing.T) {
	readErrs := func(fc FaultConfig) []bool {
		fd := faultyDisk(Config{BlockBits: 512}, fc)
		ext := fillBlocks(t, fd, 16)
		fd.ArmFaults()
		var out []bool
		for attempt := 0; attempt < 8; attempt++ {
			tc := fd.NewTouch()
			w := bitio.NewWriter(int(ext.Bits))
			err := tc.ReaderInto(ext, w)
			tc.Close()
			out = append(out, err != nil)
		}
		return out
	}
	readOnly := readErrs(FaultConfig{Seed: 77, TransientPer10k: 3000, TransientCount: 1})
	withWrites := readErrs(FaultConfig{Seed: 77, TransientPer10k: 3000, TransientCount: 1,
		FailedWritePer10k: 9000, ShortWritePer10k: 9000})
	if len(readOnly) != len(withWrites) {
		t.Fatal("length mismatch")
	}
	for i := range readOnly {
		if readOnly[i] != withWrites[i] {
			t.Fatalf("read schedule diverged at attempt %d: %v vs %v", i, readOnly, withWrites)
		}
	}
	any := false
	for _, e := range readOnly {
		any = any || e
	}
	if !any {
		t.Fatal("schedule injected no read faults — the comparison is vacuous")
	}
}

// TestNewDiskFromImage: the writable-reopen constructor round-trips an
// image and validates a hostile free list.
func TestNewDiskFromImage(t *testing.T) {
	cfg := Config{BlockBits: 512}
	d, err := NewDiskChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids [5]BlockID
	for i := range ids {
		ids[i] = d.AllocBlock()
	}
	tc := d.NewTouch()
	for i, id := range ids {
		if err := tc.WriteBits(d.BlockOff(id), uint64(0xa0+i), 8); err != nil {
			t.Fatal(err)
		}
	}
	tc.Close()
	d.FreeBlock(ids[3])
	tailBits, data := d.Image()
	free := d.FreeList()

	d2, err := NewDiskFromImage(cfg, tailBits, append([]byte(nil), data...), free)
	if err != nil {
		t.Fatal(err)
	}
	tc2 := d2.NewTouch()
	for i, id := range ids {
		if i == 3 {
			continue
		}
		if got := rdBits(t, tc2, d2.BlockOff(id), 8); got != uint64(0xa0+i) {
			t.Fatalf("block %d reads %#x, want %#x", i, got, 0xa0+i)
		}
	}
	tc2.Close()
	// The freed block is reusable on the reconstituted disk.
	if got := d2.AllocBlock(); got != ids[3] {
		t.Fatalf("AllocBlock = %d, want recycled %d", got, ids[3])
	}

	for _, bad := range []struct {
		name string
		tail int64
		data []byte
		free []BlockID
	}{
		{"tail/data mismatch", tailBits, data[:len(data)-1], nil},
		{"zero tail", 0, nil, nil},
		{"free out of range", tailBits, data, []BlockID{BlockID(tailBits / 512)}},
		{"negative free", tailBits, data, []BlockID{-1}},
		{"duplicate free", tailBits, data, []BlockID{1, 1}},
	} {
		if _, err := NewDiskFromImage(cfg, bad.tail, bad.data, bad.free); err == nil {
			t.Errorf("%s: accepted", bad.name)
		}
	}
}
