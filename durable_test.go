package secidx

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/wal"
)

// queriesEqual compares every (lo, hi) range query over [0, sigma) between
// the two query functions.
func queriesEqual(t *testing.T, sigma int, got, want func(lo, hi uint32) []int64) {
	t.Helper()
	for lo := 0; lo < sigma; lo++ {
		for hi := lo; hi < sigma; hi++ {
			g, w := got(uint32(lo), uint32(hi)), want(uint32(lo), uint32(hi))
			if len(g) != len(w) {
				t.Fatalf("query [%d,%d]: %d rows, want %d\n got %v\nwant %v", lo, hi, len(g), len(w), g, w)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("query [%d,%d]: row %d is %d, want %d", lo, hi, i, g[i], w[i])
				}
			}
		}
	}
}

func appendRows(ix *AppendIndex) func(lo, hi uint32) []int64 {
	return func(lo, hi uint32) []int64 {
		res, _, err := ix.Query(lo, hi)
		if err != nil {
			panic(fmt.Sprintf("query [%d,%d]: %v", lo, hi, err))
		}
		return res.Rows()
	}
}

func dynamicRows(ix *DynamicIndex) func(lo, hi uint32) []int64 {
	return func(lo, hi uint32) []int64 {
		res, _, err := ix.Query(lo, hi)
		if err != nil {
			panic(fmt.Sprintf("query [%d,%d]: %v", lo, hi, err))
		}
		return res.Rows()
	}
}

// modelRows answers range queries over a plain column; deleted positions
// carry the sentinel ^uint32(0).
func modelRows(col []uint32) func(lo, hi uint32) []int64 {
	return func(lo, hi uint32) []int64 {
		var out []int64
		for i, v := range col {
			if v != ^uint32(0) && v >= lo && v <= hi {
				out = append(out, int64(i))
			}
		}
		return out
	}
}

// TestDurableReopenAppendTwin is the ISSUE's acceptance twin test: an append
// index written to disk and reopened writable, fed further appends, must
// answer every query identically to a never-closed twin fed the same
// appends.
func TestDurableReopenAppendTwin(t *testing.T) {
	const sigma = 7
	data := []uint32{3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 0, 2}
	twin, err := BuildAppend(data, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := BuildAppend(data, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "append.secidx")
	if err := onDisk.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{CheckpointOps: 5}})
	if err != nil {
		t.Fatalf("writable reopen: %v", err)
	}
	defer o.Close()
	if o.Append == nil {
		t.Fatal("no append index in Opened")
	}
	extra := []uint32{6, 0, 3, 3, 1, 5, 2, 4, 6, 6, 0, 1, 2}
	for i, ch := range extra {
		if _, err := twin.Append(ch); err != nil {
			t.Fatalf("twin append %d: %v", i, err)
		}
		if _, err := o.Append.Append(ch); err != nil {
			t.Fatalf("reopened append %d: %v", i, err)
		}
	}
	if got := o.LastSeq(); got != uint64(len(extra)) {
		t.Fatalf("LastSeq = %d, want %d", got, len(extra))
	}
	if o.DurableSeq() != o.LastSeq() {
		t.Fatalf("DurableSeq %d < LastSeq %d under SyncEveryOp", o.DurableSeq(), o.LastSeq())
	}
	queriesEqual(t, sigma, appendRows(o.Append), appendRows(twin))
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Close checkpointed: the base container alone now carries everything.
	// A plain read-only open must agree, and the log must be header-only.
	ro, err := OpenFile(path, OpenOptions{})
	if err != nil {
		t.Fatalf("read-only reopen after close: %v", err)
	}
	defer ro.Close()
	queriesEqual(t, sigma, appendRows(ro.Append), appendRows(twin))

	// And a second writable generation keeps going.
	o2, err := OpenFile(path, OpenOptions{WAL: &WALOptions{}})
	if err != nil {
		t.Fatalf("second writable reopen: %v", err)
	}
	defer o2.Close()
	for _, ch := range []uint32{4, 4, 0} {
		twin.Append(ch)
		if _, err := o2.Append.Append(ch); err != nil {
			t.Fatal(err)
		}
	}
	queriesEqual(t, sigma, appendRows(o2.Append), appendRows(twin))
}

// TestDurableDynamicRoundTrip drives the full dynamic op set through two
// writable generations against the plain-column model.
func TestDurableDynamicRoundTrip(t *testing.T) {
	const sigma = 6
	col := []uint32{2, 5, 1, 0, 3, 4, 2, 1, 5, 0}
	ix, err := BuildDynamic(col, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dyn.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	model := append([]uint32(nil), col...)

	o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{CheckpointOps: 4}})
	if err != nil {
		t.Fatalf("writable reopen: %v", err)
	}
	defer o.Close()
	dx := o.Dynamic
	step := func(name string, got Stats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	apply := func(op func() (Stats, error), name string, m func()) {
		t.Helper()
		s, err := op()
		step(name, s, err)
		m()
	}
	apply(func() (Stats, error) { return dx.Change(1, 3) }, "change(1,3)", func() { model[1] = 3 })
	apply(func() (Stats, error) { return dx.Delete(4) }, "delete(4)", func() { model[4] = ^uint32(0) })
	apply(func() (Stats, error) { return dx.Append(5) }, "append(5)", func() { model = append(model, 5) })
	apply(func() (Stats, error) { return dx.Append(0) }, "append(0)", func() { model = append(model, 0) })
	apply(func() (Stats, error) { return dx.Change(8, 2) }, "change(8,2)", func() { model[8] = 2 })
	apply(func() (Stats, error) { return dx.Delete(0) }, "delete(0)", func() { model[0] = ^uint32(0) })
	queriesEqual(t, sigma, dynamicRows(dx), modelRows(model))
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	o2, err := OpenFile(path, OpenOptions{WAL: &WALOptions{}})
	if err != nil {
		t.Fatalf("second writable reopen: %v", err)
	}
	defer o2.Close()
	queriesEqual(t, sigma, dynamicRows(o2.Dynamic), modelRows(model))
	apply(func() (Stats, error) { return o2.Dynamic.Append(1) }, "append(1)", func() { model = append(model, 1) })
	apply(func() (Stats, error) { return o2.Dynamic.Change(2, 4) }, "change(2,4)", func() { model[2] = 4 })
	queriesEqual(t, sigma, dynamicRows(o2.Dynamic), modelRows(model))
}

// TestDurableReplayWithoutCheckpoint: kill a handle without Close (no final
// checkpoint) and reopen from the base + log alone — every logged op must
// replay.
func TestDurableReplayWithoutCheckpoint(t *testing.T) {
	const sigma = 5
	data := []uint32{1, 3, 0, 2, 4, 4, 1}
	ix, err := BuildAppend(data, sigma, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "a.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfs := wal.NewCrashFS()
	cfs.Seed(path, base)

	o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{
		fsys:            cfs,
		CheckpointBytes: -1, // no byte trigger
	}})
	if err != nil {
		t.Fatal(err)
	}
	extra := []uint32{2, 0, 4, 3, 3, 1}
	for _, ch := range extra {
		if _, err := o.Append.Append(ch); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: abandon the handle, carry the journaled log bytes to a fresh
	// directory next to a copy of the (unchanged) base.
	walBytes, err := cfs.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	path2 := filepath.Join(dir2, "a.secidx")
	if err := os.WriteFile(path2, base, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path2+".wal", walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	o2, err := OpenFile(path2, OpenOptions{WAL: &WALOptions{}})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer o2.Close()
	if got := o2.LastSeq(); got != uint64(len(extra)) {
		t.Fatalf("recovered LastSeq = %d, want %d", got, len(extra))
	}
	model := append(append([]uint32(nil), data...), extra...)
	queriesEqual(t, sigma, appendRows(o2.Append), modelRows(model))
}

// TestDoubleCloseIdempotent: the PR-7 regression — a second Close must be a
// nil no-op, for both read-only and writable handles.
func TestDoubleCloseIdempotent(t *testing.T) {
	data := []uint32{1, 0, 2, 1}
	ix, err := BuildAppend(data, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	for _, walOpts := range []*WALOptions{nil, {}} {
		o, err := OpenFile(path, OpenOptions{WAL: walOpts})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Close(); err != nil {
			t.Fatalf("first Close (wal=%v): %v", walOpts != nil, err)
		}
		if err := o.Close(); err != nil {
			t.Fatalf("second Close (wal=%v): %v, want nil", walOpts != nil, err)
		}
	}
}

// TestWALRejectedForStaticAndSharded: durability applies to the mutable
// kinds only.
func TestWALRejectedForStaticAndSharded(t *testing.T) {
	data := []uint32{1, 0, 2, 1, 2, 0, 1, 1}
	st, err := Build(data, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildSharded(data, 3, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, write := range map[string]func(string) error{
		"static.secidx":  st.WriteFile,
		"sharded.secidx": sh.WriteFile,
	} {
		p := filepath.Join(dir, name)
		if err := write(p); err != nil {
			t.Fatal(err)
		}
		_, err := OpenFile(p, OpenOptions{WAL: &WALOptions{}})
		if err == nil {
			t.Fatalf("%s: writable open succeeded", name)
		}
		if !strings.Contains(err.Error(), "append and dynamic") {
			t.Fatalf("%s: unhelpful rejection: %v", name, err)
		}
	}
}

// TestGroupedPolicyDurableSeqLag: under SyncGrouped the durable watermark
// trails acknowledgements until the window fills or a barrier is forced.
func TestGroupedPolicyDurableSeqLag(t *testing.T) {
	data := []uint32{0, 1, 2, 3}
	ix, err := BuildAppend(data, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{
		Policy:          SyncGrouped,
		GroupOps:        4,
		CheckpointBytes: -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	for i := 0; i < 3; i++ {
		if _, err := o.Append.Append(uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if o.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", o.LastSeq())
	}
	if o.DurableSeq() != 0 {
		t.Fatalf("DurableSeq = %d before the window fills, want 0", o.DurableSeq())
	}
	if _, err := o.Append.Append(3); err != nil { // 4th op fills the window
		t.Fatal(err)
	}
	if o.DurableSeq() != 4 {
		t.Fatalf("DurableSeq = %d after window, want 4", o.DurableSeq())
	}
	if _, err := o.Append.Append(0); err != nil {
		t.Fatal(err)
	}
	if err := o.Sync(); err != nil {
		t.Fatal(err)
	}
	if o.DurableSeq() != 5 {
		t.Fatalf("DurableSeq = %d after Sync barrier, want 5", o.DurableSeq())
	}
}

// TestCheckpointRotatesLog: an op-count checkpoint rewrites the base
// through the atomic tmp+rename+dirsync sequence and truncates the log.
func TestCheckpointRotatesLog(t *testing.T) {
	data := []uint32{0, 1, 2}
	ix, err := BuildAppend(data, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "c.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	base, _ := os.ReadFile(path)
	cfs := wal.NewCrashFS()
	cfs.Seed(path, base)
	o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{fsys: cfs, CheckpointOps: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := o.Append.Append(uint32(i % 3)); err != nil {
			t.Fatal(err)
		}
	}
	// The base must have been renamed into place and the log rotated to a
	// header-only file starting at the checkpoint sequence.
	var baseRenamed, walRenamed bool
	for _, ev := range cfs.Events() {
		if ev.Kind == wal.EvRename && ev.To == path {
			baseRenamed = true
		}
		if ev.Kind == wal.EvRename && ev.To == path+".wal" {
			walRenamed = true
		}
	}
	if !baseRenamed || !walRenamed {
		t.Fatalf("checkpoint events missing: base rename %v, wal rotate %v", baseRenamed, walRenamed)
	}
	walBytes, err := cfs.ReadFile(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := wal.Scan(walBytes)
	if err != nil || !sr.HeaderOK {
		t.Fatalf("rotated log unreadable: %v", err)
	}
	if sr.StartSeq != 3 || len(sr.Recs) != 0 {
		t.Fatalf("rotated log: start %d with %d records, want start 3, empty", sr.StartSeq, len(sr.Recs))
	}
	newBase, err := cfs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := container.Parse(bytes.NewReader(newBase), int64(len(newBase)))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := readDurableSeq(cf)
	if err != nil || seq != 3 {
		t.Fatalf("checkpointed base watermark = %d (%v), want 3", seq, err)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteContainerDirSyncFailure covers the durability hole this PR fixed:
// writeContainerFS must sync the parent directory after the rename, and a
// failing directory sync must surface as an error instead of silently
// claiming durability.
func TestWriteContainerDirSyncFailure(t *testing.T) {
	cfs := wal.NewCrashFS()
	cfs.SetFaults(wal.FaultSchedule{Seed: 1, FailDirSyncPer10k: 10000})
	err := writeContainerFS(cfs, "out.bin", container.KindAppend, func(cw *container.Writer) error {
		return cw.Add(container.TypeManifest, 0, []byte{1}, 1)
	})
	if !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("err = %v, want injected dir-sync failure", err)
	}
	// The content write itself succeeded: the rename happened (it precedes
	// the failed barrier), so the optimistic view has the file while the
	// pessimistic one does not — exactly the window the barrier closes.
	opt := wal.StateAt(cfs.Events(), cfs.Clock(), true)
	pess := wal.StateAt(cfs.Events(), cfs.Clock(), false)
	if _, ok := opt["out.bin"]; !ok {
		t.Fatal("optimistic view lacks the renamed container")
	}
	if _, ok := pess["out.bin"]; ok {
		t.Fatal("pessimistic view has the container despite no durable directory entry")
	}
}

// TestOldFormatWritableReopenRejected: containers written before the column
// mirror existed reopen read-only but refuse a writable open with a clear
// message.
func TestOldFormatWritableReopenRejected(t *testing.T) {
	data := []uint32{1, 0, 2, 2, 1}
	ix, err := BuildAppend(data, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.secidx")
	// Replicate the pre-durability writer: manifest + meta + image, no
	// column mirror and no watermark.
	err = writeContainer(path, container.KindAppend, func(cw *container.Writer) error {
		var e container.Encoder
		encodeManifest(&e, ix.Len(), ix.ax.Sigma(), ix.opts, 1)
		if err := cw.Add(container.TypeManifest, 0, e.Bytes(), 1); err != nil {
			return err
		}
		var m container.Encoder
		if err := ix.ax.EncodeMeta(&m); err != nil {
			return err
		}
		if err := cw.Add(container.TypeAppendMeta, 0, m.Bytes(), 1); err != nil {
			return err
		}
		return addImage(cw, 0, ix.disk)
	})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := OpenFile(path, OpenOptions{})
	if err != nil {
		t.Fatalf("read-only open of old format: %v", err)
	}
	queriesEqual(t, 3, appendRows(ro.Append), appendRows(ix))
	ro.Close()
	_, err = OpenFile(path, OpenOptions{WAL: &WALOptions{}})
	if err == nil {
		t.Fatal("writable open of old-format container succeeded")
	}
	if !strings.Contains(err.Error(), "column section") {
		t.Fatalf("unhelpful old-format rejection: %v", err)
	}
}

// TestDurableHandleBreaksOnLogFailure: once the log cannot accept a record
// the handle goes sticky-broken — no op may apply unlogged.
func TestDurableHandleBreaksOnLogFailure(t *testing.T) {
	data := []uint32{0, 1, 2, 0}
	ix, err := BuildAppend(data, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "b.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	base, _ := os.ReadFile(path)
	cfs := wal.NewCrashFS()
	cfs.Seed(path, base)
	o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{fsys: cfs, CheckpointBytes: -1}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Arm after the open so the header sync goes through and the first OP
	// is what hits the failing barrier.
	cfs.SetFaults(wal.FaultSchedule{Seed: 7, FailSyncPer10k: 10000})
	before := o.Append.Len()
	if _, err := o.Append.Append(1); !errors.Is(err, wal.ErrInjected) {
		t.Fatalf("append under failing sync = %v, want injected", err)
	}
	if o.Append.Len() != before {
		t.Fatal("op applied despite failing to reach the log durably")
	}
	if _, err := o.Append.Append(2); err == nil {
		t.Fatal("broken handle accepted another op")
	}
	// Close surfaces the sticky failure rather than pretending the
	// checkpoint happened.
	if err := o.Close(); err == nil {
		t.Fatal("Close on a broken handle reported success")
	}
}

// TestValidationPrecedesLogging: an invalid op must be rejected before it
// reaches the log, leaving the handle healthy.
func TestValidationPrecedesLogging(t *testing.T) {
	data := []uint32{0, 1, 2}
	ix, err := BuildDynamic(data, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Dynamic.Change(99, 0); err == nil {
		t.Fatal("out-of-range change accepted")
	}
	if _, err := o.Dynamic.Append(77); err == nil {
		t.Fatal("out-of-alphabet append accepted")
	}
	if o.LastSeq() != 0 {
		t.Fatalf("invalid ops consumed sequence numbers: LastSeq = %d", o.LastSeq())
	}
	// The handle is still healthy.
	if _, err := o.Dynamic.Append(1); err != nil {
		t.Fatalf("valid op after rejections: %v", err)
	}
	if o.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d, want 1", o.LastSeq())
	}
}

// TestOpenRejectsNegativeGroupOps: GroupOps bounds the unsynced window, and
// the log writer only syncs a window that is positive, so a negative value
// would acknowledge operations that never become durable. The open must fail
// instead, and leave no lock behind.
func TestOpenRejectsNegativeGroupOps(t *testing.T) {
	ix, err := BuildAppend([]uint32{0, 1, 2, 1}, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "app.secidx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{Policy: SyncGrouped, GroupOps: -1}}); err == nil {
		o.Close()
		t.Fatal("GroupOps -1 accepted")
	}
	o, err := OpenFile(path, OpenOptions{WAL: &WALOptions{Policy: SyncGrouped, GroupOps: 2}})
	if err != nil {
		t.Fatalf("valid open after the rejected one: %v", err)
	}
	defer o.Close()
	for i := 0; i < 4; i++ {
		if _, err := o.Append.Append(1); err != nil {
			t.Fatal(err)
		}
	}
	if o.DurableSeq() == 0 {
		t.Fatal("four grouped appends with GroupOps 2 left nothing durable")
	}
}
