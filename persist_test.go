package secidx

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/iomodel"
)

// countingReaderAt wraps the index file and records every positional read
// the reopened device issues: total count and the distinct offsets touched.
type countingReaderAt struct {
	r       io.ReaderAt
	mu      sync.Mutex
	total   int64
	offsets map[int64]int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.mu.Lock()
	c.total++
	c.offsets[off]++
	c.mu.Unlock()
	return c.r.ReadAt(p, off)
}

func (c *countingReaderAt) snapshot() (total int64, distinct int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total, len(c.offsets)
}

// reset forgets the reads recorded so far and returns how many there were.
func (c *countingReaderAt) reset() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.total
	c.total = 0
	clear(c.offsets)
	return total
}

func writeOpen(t *testing.T, write func(path string) error, oo OpenOptions) *Opened {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.secidx")
	if err := write(path); err != nil {
		t.Fatal(err)
	}
	op, err := OpenFile(path, oo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { op.Close() })
	return op
}

// assertSameRows compares two results bit for bit via their row sets.
func assertSameRows(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !slices.Equal(rowsOf(t, got), rowsOf(t, want)) {
		t.Fatalf("%s: rows differ from in-memory twin", label)
	}
}

// TestPersistReadDifferentialStatic is the headline experiment: for a fixed
// query set against a reopened static index, the simulated device's charged
// Reads must equal the real positional reads issued against the file — and
// every answer and every per-query Stats must be bit-identical to the
// never-closed twin's.
func TestPersistReadDifferentialStatic(t *testing.T) {
	const sigma = 128
	data := randColumn(30000, sigma, 41)
	opts := Options{BlockBits: 2048, Seed: 3}
	twin, err := Build(data, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	var cnt *countingReaderAt
	op := writeOpen(t, twin.WriteFile, OpenOptions{
		readerAt: func(f *os.File) io.ReaderAt {
			cnt = &countingReaderAt{r: f, offsets: map[int64]int{}}
			return cnt
		},
	})
	ix := op.Static
	if ix == nil {
		t.Fatal("static container did not reopen as a static index")
	}
	if ix.Len() != twin.Len() || ix.Sigma() != twin.Sigma() {
		t.Fatalf("reopened %d/%d, want %d/%d", ix.Len(), ix.Sigma(), twin.Len(), twin.Sigma())
	}
	// Opening reads the structure blocks once, for the member directory their
	// node records hold, outside any query's stats; the queries' reads are
	// counted from here.
	if opened, layout := cnt.reset(), ix.SpaceLedger().LayoutBits/int64(opts.BlockBits); opened != layout {
		t.Fatalf("opening issued %d positional reads, the tree layout has %d blocks", opened, layout)
	}

	var charged int64
	for i, r := range chaosRanges(150, sigma, 7) {
		want, wst, err := twin.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		got, gst, err := ix.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatalf("query %d [%d,%d] on reopened index: %v", i, r.Lo, r.Hi, err)
		}
		assertSameRows(t, "static reopened", got, want)
		if gst != wst {
			t.Fatalf("query %d [%d,%d]: stats %+v on file, %+v in memory", i, r.Lo, r.Hi, gst, wst)
		}
		charged += int64(gst.Reads)
	}
	total, distinct := cnt.snapshot()
	if total != charged {
		t.Fatalf("device issued %d positional reads, accounting charged %d", total, charged)
	}
	if int64(distinct) > charged {
		t.Fatalf("%d distinct offsets exceed %d charged reads", distinct, charged)
	}
	if got := op.disks[0].DeviceReads(); got != charged {
		t.Fatalf("FileDisk counted %d reads, accounting charged %d", got, charged)
	}
	// Every pread must target a block boundary of the image region.
	blockBytes := int64(ix.sx.Parts()[0].Disk.BlockBits() / 8)
	base := int64(-1)
	for off := range cnt.offsets {
		if base < 0 || off < base {
			base = off
		}
	}
	for off := range cnt.offsets {
		if (off-base)%blockBytes != 0 {
			t.Fatalf("pread at %d not block-aligned relative to image base %d", off, base)
		}
	}
}

// TestPersistRoundTripStaticBatchAndApprox replays batched and approximate
// queries against a reopened static index.
func TestPersistRoundTripStaticBatchAndApprox(t *testing.T) {
	const sigma = 96
	data := randColumn(20000, sigma, 42)
	twin, err := Build(data, sigma, Options{BlockBits: 4096, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	op := writeOpen(t, twin.WriteFile, OpenOptions{})
	ix := op.Static

	batch := chaosRanges(64, sigma, 8)
	want, wst, err := twin.QueryBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, gst, err := ix.QueryBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		assertSameRows(t, "batch", got[i], want[i])
	}
	if gst != wst {
		t.Fatalf("batch stats %+v on file, %+v in memory", gst, wst)
	}
	for _, r := range chaosRanges(40, sigma, 9) {
		wa, _, err := twin.ApproxQuery(r.Lo, r.Hi, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		ga, _, err := ix.ApproxQuery(r.Lo, r.Hi, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		// Same seed, same structure: identical candidate sets.
		if wa.CandidateCount() != ga.CandidateCount() {
			t.Fatalf("approx [%d,%d]: %d vs %d candidates", r.Lo, r.Hi, ga.CandidateCount(), wa.CandidateCount())
		}
	}
}

// TestPersistRoundTripSharded writes a 4-shard index, reopens it from one
// file (per-shard sections over per-shard file-backed devices) and replays
// singles and batches against the never-closed twin.
func TestPersistRoundTripSharded(t *testing.T) {
	const sigma = 64
	data := randColumn(24000, sigma, 43)
	twin, err := BuildSharded(data, sigma, ShardOptions{Shards: 4, Options: Options{BlockBits: 2048, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	op := writeOpen(t, twin.WriteFile, OpenOptions{Workers: 2})
	ix := op.Sharded
	if ix == nil {
		t.Fatal("sharded container did not reopen as a sharded index")
	}
	if ix.Shards() != twin.Shards() || ix.Len() != twin.Len() {
		t.Fatalf("reopened %d shards/%d rows, want %d/%d", ix.Shards(), ix.Len(), twin.Shards(), twin.Len())
	}
	for _, r := range chaosRanges(120, sigma, 10) {
		want, wst, err := twin.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		got, gst, err := ix.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, "sharded reopened", got, want)
		if gst != wst {
			t.Fatalf("[%d,%d]: stats %+v on file, %+v in memory", r.Lo, r.Hi, gst, wst)
		}
	}
	batch := chaosRanges(48, sigma, 11)
	want, _, err := twin.QueryBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ix.QueryBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		assertSameRows(t, "sharded batch", got[i], want[i])
	}
}

// TestPersistRoundTripAppend serialises an append index (direct and
// buffered, the buffered one mid-buffer) after a run of appends, reopens it
// from disk, and checks answers. The reopened index is read-only.
func TestPersistRoundTripAppend(t *testing.T) {
	const sigma = 48
	for _, buffered := range []bool{false, true} {
		data := randColumn(6000, sigma, 44)
		twin, err := BuildAppend(data, sigma, Options{BlockBits: 2048, Buffered: buffered})
		if err != nil {
			t.Fatal(err)
		}
		extra := randColumn(1500, sigma, 45)
		for _, ch := range extra {
			if _, err := twin.Append(ch); err != nil {
				t.Fatal(err)
			}
		}
		op := writeOpen(t, twin.WriteFile, OpenOptions{})
		ix := op.Append
		if ix == nil {
			t.Fatal("append container did not reopen as an append index")
		}
		if ix.Len() != twin.Len() {
			t.Fatalf("buffered=%v: reopened %d rows, want %d", buffered, ix.Len(), twin.Len())
		}
		for _, r := range chaosRanges(100, sigma, 12) {
			want, wst, err := twin.Query(r.Lo, r.Hi)
			if err != nil {
				t.Fatal(err)
			}
			got, gst, err := ix.Query(r.Lo, r.Hi)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, "append reopened", got, want)
			if gst != wst {
				t.Fatalf("buffered=%v [%d,%d]: stats %+v on file, %+v in memory", buffered, r.Lo, r.Hi, gst, wst)
			}
		}
		if _, err := ix.Append(1); err == nil {
			t.Fatal("append on a reopened index succeeded; want read-only error")
		}
	}
}

// TestPersistRoundTripDynamic serialises the fully dynamic index after a mix
// of changes, deletes and appends. The dynamic structure reopens by global
// rebuild (its point indexes and translator are write-active), so answers —
// and deletion semantics — must match, and the reopened index must accept
// further updates.
func TestPersistRoundTripDynamic(t *testing.T) {
	const sigma = 32
	data := randColumn(4000, sigma, 46)
	twin, err := BuildDynamic(data, sigma, Options{BlockBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := twin.Change(int64(i*7%4000), uint32(i%sigma)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := twin.Delete(int64(i * 13 % 4000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		if _, err := twin.Append(uint32(i % sigma)); err != nil {
			t.Fatal(err)
		}
	}
	op := writeOpen(t, twin.WriteFile, OpenOptions{})
	ix := op.Dynamic
	if ix == nil {
		t.Fatal("dynamic container did not reopen as a dynamic index")
	}
	if ix.Len() != twin.Len() || ix.LiveLen() != twin.LiveLen() {
		t.Fatalf("reopened %d/%d live, want %d/%d", ix.Len(), ix.LiveLen(), twin.Len(), twin.LiveLen())
	}
	for _, r := range chaosRanges(80, sigma, 13) {
		want, _, err := twin.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, "dynamic reopened", got, want)
	}
	for _, i := range []int64{0, 13, 26, 777, 3999} {
		wp, wl, err := twin.RawToLive(i)
		if err != nil {
			t.Fatal(err)
		}
		gp, gl, err := ix.RawToLive(i)
		if err != nil {
			t.Fatal(err)
		}
		if wp != gp || wl != gl {
			t.Fatalf("RawToLive(%d): (%d,%v) on file, (%d,%v) in memory", i, gp, gl, wp, wl)
		}
	}
	// The reopened dynamic index is fully writable.
	if _, err := ix.Append(3); err != nil {
		t.Fatalf("append on reopened dynamic index: %v", err)
	}
	if _, err := ix.Delete(5); err != nil {
		t.Fatalf("delete on reopened dynamic index: %v", err)
	}
}

// TestPersistMmap reopens a static index in mmap mode: answers identical,
// charged reads still counted.
func TestPersistMmap(t *testing.T) {
	const sigma = 64
	data := randColumn(12000, sigma, 47)
	twin, err := Build(data, sigma, Options{BlockBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.secidx")
	if err := twin.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	op, err := OpenFile(path, OpenOptions{Mode: ModeMmap})
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	defer op.Close()
	ix := op.Static
	var charged int64
	for _, r := range chaosRanges(60, sigma, 14) {
		want, _, err := twin.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := ix.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, "mmap reopened", got, want)
		charged += int64(st.Reads)
	}
	if got := op.disks[0].DeviceReads(); got != charged {
		t.Fatalf("mmap device counted %d reads, accounting charged %d", got, charged)
	}
}

// TestPersistFaultsOnReopened composes the fault injector with a reopened
// file-backed index: the chaos differential must hold against the in-memory
// twin, with the fault counters live.
func TestPersistFaultsOnReopened(t *testing.T) {
	const sigma = 64
	data := randColumn(16000, sigma, 48)
	twin, err := Build(data, sigma, Options{BlockBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	op := writeOpen(t, twin.WriteFile, OpenOptions{
		Faults: &FaultConfig{Seed: 21, TransientPer10k: 3000, TransientCount: 1},
	})
	ix := op.Static
	ix.ArmFaults()
	qo := QueryOptions{Retry: RetryPolicy{MaxAttempts: 64}}
	var total Stats
	for _, r := range chaosRanges(120, sigma, 15) {
		want, _, err := twin.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := ix.QueryExec(context.Background(), r.Lo, r.Hi, qo)
		if err != nil {
			t.Fatalf("[%d,%d]: %v", r.Lo, r.Hi, err)
		}
		assertSameRows(t, "faulted reopened", got, want)
		total.Add(st)
	}
	if total.FailedReads == 0 || total.RetriedReads == 0 {
		t.Fatalf("fault counters silent on reopened device: %+v", total)
	}
}

// TestPersistShardedFaultsMatchBuild: a 3-shard container reopened with
// OpenOptions.Faults gives every shard the schedule BuildSharded gave it
// (shard i draws from Seed+i), so the same armed transient schedule fails
// the same reads on both: over one list of ranges the failed reads, summed
// and per shard, are equal.
func TestPersistShardedFaultsMatchBuild(t *testing.T) {
	const sigma = 64
	data := randColumn(24000, sigma, 54)
	fc := &FaultConfig{Seed: 31, TransientPer10k: 3000, TransientCount: 1}
	built, err := BuildSharded(data, sigma, ShardOptions{Shards: 3, Options: Options{BlockBits: 2048, Faults: fc}})
	if err != nil {
		t.Fatal(err)
	}
	reopened := writeOpen(t, built.WriteFile, OpenOptions{Faults: fc}).Sharded
	built.ArmFaults()
	reopened.ArmFaults()
	ctx := context.Background()
	qo := QueryOptions{Retry: RetryPolicy{MaxAttempts: 64}}
	var want, got Stats
	for _, r := range chaosRanges(80, sigma, 18) {
		wres, wst, _, err := built.QueryExec(ctx, r.Lo, r.Hi, qo)
		if err != nil {
			t.Fatalf("built [%d,%d]: %v", r.Lo, r.Hi, err)
		}
		gres, gst, _, err := reopened.QueryExec(ctx, r.Lo, r.Hi, qo)
		if err != nil {
			t.Fatalf("reopened [%d,%d]: %v", r.Lo, r.Hi, err)
		}
		assertSameRows(t, "faulted reopened shards", gres, wres)
		want.Add(wst)
		got.Add(gst)
	}
	if want.FailedReads == 0 {
		t.Fatal("built index reported zero failed reads: faults never fired")
	}
	if got.FailedReads != want.FailedReads {
		t.Fatalf("reopened index failed %d reads, built %d", got.FailedReads, want.FailedReads)
	}
	for i, w := range built.sx.PerShardStats() {
		if g := reopened.sx.PerShardStats()[i]; g.FailedReads != w.FailedReads {
			t.Fatalf("shard %d: reopened failed %d reads, built %d", i, g.FailedReads, w.FailedReads)
		}
	}
}

// TestWriteFileReopenedRejected: a reopened index holds only the blocks its
// queries touched, so re-serialising it must fail rather than write a
// partial image.
func TestWriteFileReopenedRejected(t *testing.T) {
	const sigma = 32
	data := randColumn(3000, sigma, 49)
	twin, err := Build(data, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	op := writeOpen(t, twin.WriteFile, OpenOptions{})
	other := filepath.Join(t.TempDir(), "copy.secidx")
	if err := op.Static.WriteFile(other); err == nil {
		t.Fatal("WriteFile on a reopened index succeeded")
	}
}

// TestOpenFileRejectsCorruption flips and truncates bytes across the
// container; every mutation must fail with ErrCorrupt, never a panic.
func TestOpenFileRejectsCorruption(t *testing.T) {
	const sigma = 32
	data := randColumn(3000, sigma, 50)
	ix, err := Build(data, sigma, Options{BlockBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "good.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oo := OpenOptions{VerifyImages: true}
	tryOpen := func(b []byte) error {
		p := filepath.Join(dir, "mutated.secidx")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		op, err := OpenFile(p, oo)
		if err == nil {
			op.Close()
		}
		return err
	}
	// Byte flips in the header, manifest, metadata and image regions.
	for _, pos := range []int{0, 7, 8, 17, 60, 120, 400, len(good) / 2, len(good) - 10} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0xFF
		if err := tryOpen(bad); err == nil {
			t.Errorf("flip at %d accepted", pos)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}
	// Truncations at every region boundary.
	for _, n := range []int{0, 8, 15, 16, 55, 200, len(good) - 1} {
		if n > len(good) {
			continue
		}
		if err := tryOpen(good[:n]); err == nil {
			t.Errorf("truncation to %d accepted", n)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d: error %v does not wrap ErrCorrupt", n, err)
		}
	}
}

// TestBuildRejectsHostileOptions routes hostile Options through every public
// constructor: each must return an error, never panic (satellite: all
// construction goes through NewDiskChecked and validated fault configs).
func TestBuildRejectsHostileOptions(t *testing.T) {
	data := randColumn(500, 16, 51)
	cases := []struct {
		name string
		o    Options
	}{
		{"negative BlockBits", Options{BlockBits: -8}},
		{"unaligned BlockBits", Options{BlockBits: 12}},
		{"huge BlockBits", Options{BlockBits: 1 << 40}},
		{"branching 4", Options{Branching: 4}},
		{"negative branching", Options{Branching: -2}},
		{"fault rate over 10k", Options{Faults: &FaultConfig{TransientPer10k: 20000}}},
		{"negative fault count", Options{Faults: &FaultConfig{TransientCount: -1}}},
		{"negative write-fault rate", Options{Faults: &FaultConfig{ShortWritePer10k: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Build(data, 16, tc.o); err == nil {
				t.Error("Build accepted hostile options")
			}
			if _, err := BuildAppend(data, 16, tc.o); err == nil {
				t.Error("BuildAppend accepted hostile options")
			}
			if _, err := BuildDynamic(data, 16, tc.o); err == nil {
				t.Error("BuildDynamic accepted hostile options")
			}
			if _, err := BuildSharded(data, 16, ShardOptions{Options: tc.o, Shards: 2}); err == nil {
				t.Error("BuildSharded accepted hostile options")
			}
		})
	}
	if _, err := Build(data, 0, Options{}); err == nil {
		t.Error("Build accepted empty alphabet")
	}
	if _, err := BuildSharded(data, 16, ShardOptions{Shards: -3}); err != nil {
		t.Errorf("BuildSharded must clamp a negative shard count, got %v", err)
	}
}

// TestUnshardedFaultStats verifies the FailedReads/RetriedReads plumbing on
// the unsharded Index (satellite: previously only the sharded path was
// exercised): a chaos differential with retries, plus a bare Query that
// surfaces the transient error directly with its stats populated.
func TestUnshardedFaultStats(t *testing.T) {
	const sigma = 64
	data := randColumn(16000, sigma, 53)
	ref, err := Build(data, sigma, Options{BlockBits: 2048})
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := Build(data, sigma, Options{
		BlockBits: 2048,
		Faults:    &FaultConfig{Seed: 9, TransientPer10k: 3000, TransientCount: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Builds run disarmed: the chaos twin must be byte-identical before the
	// schedule starts firing.
	chaos.ArmFaults()
	qo := QueryOptions{Retry: RetryPolicy{MaxAttempts: 64}}
	var total Stats
	for _, r := range chaosRanges(150, sigma, 16) {
		want, _, err := ref.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := chaos.QueryExec(context.Background(), r.Lo, r.Hi, qo)
		if err != nil {
			t.Fatalf("[%d,%d]: %v", r.Lo, r.Hi, err)
		}
		assertSameRows(t, "unsharded chaos", got, want)
		total.Add(st)
	}
	if total.FailedReads == 0 {
		t.Fatal("unsharded chaos run reported zero failed reads: plumbing broken or faults never fired")
	}
	if total.RetriedReads == 0 {
		t.Fatal("unsharded chaos run reported zero retried reads")
	}
	// A bare Query (no retry layer) must surface the transient error and
	// still report the failed read in its stats. The first chaos twin's
	// single-shot transients are spent, so probe a freshly armed one.
	chaos2, err := Build(data, sigma, Options{
		BlockBits: 2048,
		Faults:    &FaultConfig{Seed: 10, TransientPer10k: 3000, TransientCount: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos2.ArmFaults()
	sawError := false
	for _, r := range chaosRanges(100, sigma, 17) {
		_, st, err := chaos2.Query(r.Lo, r.Hi)
		if err != nil {
			if !errors.Is(err, iomodel.ErrTransientRead) {
				t.Fatalf("unexpected fault class: %v", err)
			}
			if st.FailedReads == 0 {
				t.Fatal("failed query reported zero FailedReads")
			}
			sawError = true
			break
		}
	}
	if !sawError {
		t.Fatal("no transient fault surfaced through bare Query at a 30% rate")
	}
	// Disarmed, the same index answers cleanly again.
	chaos.DisarmFaults()
	for _, r := range chaosRanges(20, sigma, 18) {
		want, _, err := ref.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := chaos.Query(r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, "disarmed", got, want)
		if st.FailedReads != 0 {
			t.Fatalf("disarmed query reported %d failed reads", st.FailedReads)
		}
	}
}

// BenchmarkFileDiskQuery compares the end-to-end query pipeline on the
// simulated in-memory device against the same index reopened from a file in
// pread and mmap modes: the I/O-model cost (blockIO/op) is identical by
// construction, so the wall-clock delta is the price of real positional
// reads.
func BenchmarkFileDiskQuery(b *testing.B) {
	const sigma = 512
	data := randColumn(1<<16, sigma, 61)
	mem, err := Build(data, sigma, Options{BlockBits: 8192})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.secidx")
	if err := mem.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	ranges := chaosRanges(256, sigma, 62)
	run := func(b *testing.B, ix *Index) {
		var reads int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := ranges[i%len(ranges)]
			_, st, err := ix.Query(r.Lo, r.Hi)
			if err != nil {
				b.Fatal(err)
			}
			reads += int64(st.Reads)
		}
		b.ReportMetric(float64(reads)/float64(b.N), "blockIO/op")
	}
	b.Run("memory", func(b *testing.B) { run(b, mem) })
	b.Run("pread", func(b *testing.B) {
		op, err := OpenFile(path, OpenOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer op.Close()
		run(b, op.Static)
	})
	b.Run("mmap", func(b *testing.B) {
		op, err := OpenFile(path, OpenOptions{Mode: ModeMmap})
		if err != nil {
			b.Skipf("mmap unavailable: %v", err)
		}
		defer op.Close()
		run(b, op.Static)
	})
}
