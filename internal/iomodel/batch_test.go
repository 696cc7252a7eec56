package iomodel

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitio"
)

// batchTestDisk lays out a known number of blocks of payload so tests can
// reason about block indices directly.
func batchTestDisk(t *testing.T, blockBits, blocks int) *Disk {
	t.Helper()
	d := NewDisk(Config{BlockBits: blockBits})
	w := bitio.NewWriter(blockBits * blocks)
	for i := 0; i < blockBits*blocks/64; i++ {
		w.WriteBits(uint64(i), 64)
	}
	d.AllocStream(w)
	return d
}

// TestTouchConsumerAccounting drives a batch session's attribution by hand: two
// consumers whose extents overlap on one block must charge the union once
// and report exactly the overlap as saved, with per-consumer attribution
// independent of the order reads and notes arrive in.
func TestTouchConsumerAccounting(t *testing.T) {
	d := batchTestDisk(t, 256, 8)
	bt := d.NewTouch()
	w := bitio.NewWriter(0)

	// Shared scan: blocks 0..3 in one read, unattributed.
	if err := bt.ReaderInto(Extent{Off: 0, Bits: 4 * 256}, w); err != nil {
		t.Fatal(err)
	}
	if bt.Reads() != 4 {
		t.Fatalf("scan charged %d reads, want 4", bt.Reads())
	}
	// Consumer 0 claims blocks 0..2 (extent note) and block 4 (point read).
	bt.StartConsumer(0)
	bt.NoteExtent(Extent{Off: 0, Bits: 3 * 256})
	if _, err := bt.ReadBits(4*256+8, 16); err != nil {
		t.Fatal(err)
	}
	// Consumer 1 claims blocks 2..3, plus block 4 via the same point read.
	bt.StartConsumer(1)
	bt.NoteExtent(Extent{Off: 2 * 256, Bits: 2 * 256})
	if _, err := bt.ReadBits(4*256+8, 16); err != nil {
		t.Fatal(err)
	}
	// Revisiting a consumer must extend its existing set, not open a new one,
	// and re-noting its own blocks must not inflate the saved count.
	bt.StartConsumer(0)
	bt.NoteExtent(Extent{Off: 0, Bits: 256})

	// Distinct blocks: 0,1,2,3,4 = 5 reads. Per-consumer: {0,1,2,4} and
	// {2,3,4} sum to 7 attributed blocks, so sharing saved 2.
	if bt.Reads() != 5 {
		t.Fatalf("batch charged %d reads, want 5", bt.Reads())
	}
	if got := bt.SharedSaved(); got != 2 {
		t.Fatalf("SharedSaved = %d, want 2", got)
	}

	before := d.Stats().SharedSaved
	bt.Close()
	if got := d.Stats().SharedSaved - before; got != 2 {
		t.Fatalf("device SharedSaved grew by %d on Close, want 2", got)
	}
}

// TestTouchConsumerZeroExtent: zero-bit extents read and note nothing, and a
// batch with a single consumer saves nothing no matter how often it re-notes
// its own blocks.
func TestTouchConsumerZeroExtent(t *testing.T) {
	d := batchTestDisk(t, 256, 2)
	bt := d.NewTouch()
	defer bt.Close()
	w := bitio.NewWriter(0)
	if err := bt.ReaderInto(Extent{Off: 64, Bits: 0}, w); err != nil {
		t.Fatal(err)
	}
	bt.StartConsumer(0)
	bt.NoteExtent(Extent{Off: 64, Bits: 0})
	if bt.Reads() != 0 || bt.SharedSaved() != 0 {
		t.Fatalf("zero extent charged reads=%d saved=%d", bt.Reads(), bt.SharedSaved())
	}
	for i := 0; i < 3; i++ {
		bt.NoteExtent(Extent{Off: 0, Bits: 2 * 256})
	}
	if bt.SharedSaved() != 0 {
		t.Fatalf("single consumer saved %d, want 0", bt.SharedSaved())
	}
}

// TestTouchConsumerCacheIndependence: with a block cache, cache hits reduce the
// charged reads but must not change the shared-saved accounting — the two
// mechanisms are reported separately.
func TestTouchConsumerCacheIndependence(t *testing.T) {
	run := func(cache int) (reads, saved int) {
		d := NewDisk(Config{BlockBits: 256, CacheBlocks: cache})
		w := bitio.NewWriter(4 * 256)
		for i := 0; i < 4*256/64; i++ {
			w.WriteBits(uint64(i), 64)
		}
		d.AllocStream(w)
		// Warm pass (populates the cache when one exists), then the batch.
		tc := d.NewTouch()
		buf := bitio.NewWriter(0)
		if err := tc.ReaderInto(Extent{Off: 0, Bits: 4 * 256}, buf); err != nil {
			t.Fatal(err)
		}
		tc.Close()
		bt := d.NewTouch()
		defer bt.Close()
		if err := bt.ReaderInto(Extent{Off: 0, Bits: 4 * 256}, buf); err != nil {
			t.Fatal(err)
		}
		bt.StartConsumer(0)
		bt.NoteExtent(Extent{Off: 0, Bits: 3 * 256})
		bt.StartConsumer(1)
		bt.NoteExtent(Extent{Off: 256, Bits: 3 * 256})
		return bt.Reads(), bt.SharedSaved()
	}
	coldReads, coldSaved := run(0)
	warmReads, warmSaved := run(16)
	if coldReads != 4 || warmReads != 0 {
		t.Fatalf("reads cold=%d warm=%d, want 4 and 0", coldReads, warmReads)
	}
	if coldSaved != 2 || warmSaved != 2 {
		t.Fatalf("saved cold=%d warm=%d, want 2 and 2", coldSaved, warmSaved)
	}
}

// TestTouchPoolArmedConcurrently runs single-query sessions and batch
// sessions on one disk and its Freeze view from several goroutines, drawing
// from one session pool, while another goroutine arms and disarms the shared
// fault schedule. Every read either returns the stored bits or fails with
// the injected transient error, and the device counters stay exact: each
// batch that read its extent saved 2 blocks, and the failed reads the
// sessions saw are the failed reads the disk counted. Run under -race in CI.
func TestTouchPoolArmedConcurrently(t *testing.T) {
	const bb, blocks = 256, 8
	d := faultyDisk(Config{BlockBits: bb}, FaultConfig{Seed: 5, TransientPer10k: 5000, TransientCount: 1 << 30})
	ext := fillBlocks(t, d, blocks)
	view := d.Freeze()
	want := bitio.NewWriter(0)
	tc := d.NewTouch()
	if err := tc.ReaderInto(ext, want); err != nil {
		t.Fatal(err)
	}
	tc.Close()
	d.ResetStats()

	var batches, failed atomic.Int64
	read := func(dev *Disk, i int) error {
		tc := dev.NewTouch()
		defer tc.Close()
		w := bitio.NewWriter(0)
		span := Extent{Off: int64(i%(blocks-3)) * bb, Bits: 4 * bb}
		err := tc.ReaderInto(span, w)
		if dev == d {
			failed.Add(int64(tc.FailedReads()))
		}
		if err != nil {
			if !errors.Is(err, ErrTransientRead) {
				return err
			}
			return nil
		}
		if !bytes.Equal(w.Bytes(), want.Bytes()[span.Off/8:span.End()/8]) {
			return errors.New("read returned bits that differ from the stored ones")
		}
		if i%2 == 1 && dev == d { // a batch of two consumers sharing 2 blocks
			tc.StartConsumer(0)
			tc.NoteExtent(Extent{Off: span.Off, Bits: 3 * bb})
			tc.StartConsumer(1)
			tc.NoteExtent(Extent{Off: span.Off + bb, Bits: 3 * bb})
			if tc.SharedSaved() != 2 {
				return errors.New("batch saved the wrong number of blocks")
			}
			batches.Add(1)
		}
		return nil
	}

	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for {
			select {
			case <-stop:
				d.DisarmFaults()
				return
			default:
				d.ArmFaults()
				d.DisarmFaults()
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev := d
			if g == 3 {
				dev = view
			}
			for i := 0; i < 300; i++ {
				if err := read(dev, g+i); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-toggled
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := d.Stats(); got.SharedSaved != 2*batches.Load() || got.FailedReads != failed.Load() {
		t.Fatalf("device counted SharedSaved %d and FailedReads %d, sessions saw %d and %d",
			got.SharedSaved, got.FailedReads, 2*batches.Load(), failed.Load())
	}
	t.Logf("%d batches, %d failed reads", batches.Load(), failed.Load())
	tc = d.NewTouch() // disarmed: every block reads
	defer tc.Close()
	if err := tc.ReaderInto(ext, want); err != nil {
		t.Fatalf("disarmed read: %v", err)
	}
}
