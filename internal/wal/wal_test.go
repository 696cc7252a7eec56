package wal

import (
	"bytes"
	"errors"
	"testing"
)

// memFile is a minimal in-memory File with programmable failures.
type memFile struct {
	buf       []byte
	syncs     int
	synced    int // bytes covered by the last successful Sync
	failWrite error
	failSync  error
	shortBy   int // next write persists len-shortBy bytes and fails
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.failWrite != nil {
		return 0, f.failWrite
	}
	if f.shortBy > 0 {
		n := len(p) - f.shortBy
		if n < 0 {
			n = 0
		}
		f.shortBy = 0
		f.buf = append(f.buf, p[:n]...)
		return n, errors.New("short write")
	}
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	if f.failSync != nil {
		return f.failSync
	}
	f.syncs++
	f.synced = len(f.buf)
	return nil
}

func (f *memFile) Close() error { return nil }

func buildLog(t *testing.T, kind, startSeq uint64, payloads [][]byte, pol Policy) (*memFile, *Writer) {
	t.Helper()
	f := &memFile{}
	w, err := Create(f, kind, startSeq, pol)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, p := range payloads {
		seq, err := w.Append(p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := startSeq + uint64(i) + 1; seq != want {
			t.Fatalf("Append %d returned seq %d, want %d", i, seq, want)
		}
	}
	return f, w
}

func TestWALRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma"), {0, 1, 2, 3}}
	f, w := buildLog(t, 3, 41, payloads, Policy{Mode: SyncEveryRecord})
	if got := w.Seq(); got != 45 {
		t.Fatalf("Seq = %d, want 45", got)
	}
	if got := w.SyncedSeq(); got != 45 {
		t.Fatalf("SyncedSeq = %d, want 45 under SyncEveryRecord", got)
	}
	sr, err := Scan(f.buf)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if !sr.HeaderOK || sr.Kind != 3 || sr.StartSeq != 41 {
		t.Fatalf("header = (%v, kind %d, start %d), want (true, 3, 41)", sr.HeaderOK, sr.Kind, sr.StartSeq)
	}
	if len(sr.Recs) != len(payloads) {
		t.Fatalf("scanned %d records, want %d", len(sr.Recs), len(payloads))
	}
	for i, rec := range sr.Recs {
		if rec.Seq != 42+uint64(i) {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, 42+i)
		}
		if !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d payload mismatch", i)
		}
	}
	if sr.ValidLen != int64(len(f.buf)) {
		t.Fatalf("ValidLen = %d, file is %d bytes", sr.ValidLen, len(f.buf))
	}
	if sr.ValidLen != w.Written() {
		t.Fatalf("ValidLen %d != Written %d", sr.ValidLen, w.Written())
	}
}

// TestWALTornTail truncates a valid log at EVERY byte boundary: each prefix
// must scan cleanly (a torn tail is what a crash leaves, not corruption) to
// some prefix of the records, with ValidLen within the surviving bytes.
func TestWALTornTail(t *testing.T) {
	payloads := [][]byte{[]byte("one"), []byte("two-two"), []byte("three")}
	f, _ := buildLog(t, 1, 0, payloads, Policy{Mode: SyncEveryRecord})
	for cut := 0; cut <= len(f.buf); cut++ {
		sr, err := Scan(f.buf[:cut])
		if err != nil {
			t.Fatalf("Scan of %d-byte prefix: %v", cut, err)
		}
		if cut < headerBytes {
			if sr.HeaderOK {
				t.Fatalf("prefix %d: HeaderOK on a torn header", cut)
			}
			continue
		}
		if !sr.HeaderOK {
			t.Fatalf("prefix %d: header not recognised", cut)
		}
		if sr.ValidLen > int64(cut) {
			t.Fatalf("prefix %d: ValidLen %d beyond the data", cut, sr.ValidLen)
		}
		// Records must be a prefix of the full set.
		for i, rec := range sr.Recs {
			if rec.Seq != uint64(i)+1 || !bytes.Equal(rec.Payload, payloads[i]) {
				t.Fatalf("prefix %d: record %d mismatch", cut, i)
			}
		}
	}
}

func TestWALScanCorrupt(t *testing.T) {
	payloads := [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")}
	f, _ := buildLog(t, 1, 0, payloads, Policy{Mode: SyncEveryRecord})
	flip := func(off int) []byte {
		c := append([]byte(nil), f.buf...)
		c[off] ^= 1
		return c
	}
	rec0 := headerBytes                     // first record header offset
	rec0Payload := rec0 + recordHdrBytes    // first record payload
	lastPayload := len(f.buf) - len("cccc") // final record payload

	// Interior damage: ErrCorrupt.
	for _, off := range []int{0, 9, rec0, rec0 + 21, rec0Payload} {
		if _, err := Scan(flip(off)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	// Damage to the FINAL record's payload is indistinguishable from a torn
	// tail: clean stop after the second record.
	sr, err := Scan(flip(lastPayload))
	if err != nil {
		t.Fatalf("final-payload flip: %v", err)
	}
	if len(sr.Recs) != 2 {
		t.Fatalf("final-payload flip: %d records survive, want 2", len(sr.Recs))
	}
	// A hostile length prefix with a fixed-up header checksum: ErrCorrupt,
	// bounded allocation (the scanner must not trust the length).
	c := append([]byte(nil), f.buf...)
	c[rec0] = 0xff
	c[rec0+1] = 0xff
	c[rec0+2] = 0xff
	c[rec0+3] = 0x7f // plen = 2^31-ish > MaxRecordBytes
	sum := fnv32a(c[rec0 : rec0+20])
	c[rec0+20] = byte(sum)
	c[rec0+21] = byte(sum >> 8)
	c[rec0+22] = byte(sum >> 16)
	c[rec0+23] = byte(sum >> 24)
	if _, err := Scan(c); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile length: err = %v, want ErrCorrupt", err)
	}
}

func TestWALSeqGapIsCorrupt(t *testing.T) {
	// Two independent single-record logs spliced: header+rec1 then rec3
	// (skipping seq 2) must be corruption, not a silent drop.
	f1, _ := buildLog(t, 1, 0, [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}, Policy{Mode: SyncEveryRecord})
	sr, err := Scan(f1.buf)
	if err != nil || len(sr.Recs) != 3 {
		t.Fatalf("setup scan: %v", err)
	}
	rec2Start := sr.ValidLen - int64(recordHdrBytes+2)*2 // start of record 2
	spliced := append([]byte(nil), f1.buf[:rec2Start]...)
	spliced = append(spliced, f1.buf[sr.ValidLen-int64(recordHdrBytes+2):]...) // record 3 only
	if _, err := Scan(spliced); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sequence gap: err = %v, want ErrCorrupt", err)
	}
}

func TestWALSyncPolicies(t *testing.T) {
	t.Run("window-ops", func(t *testing.T) {
		f := &memFile{}
		w, err := Create(f, 1, 0, Policy{Mode: SyncWindow, WindowOps: 3})
		if err != nil {
			t.Fatal(err)
		}
		base := f.syncs // Create syncs the header
		for i := 0; i < 7; i++ {
			if _, err := w.Append([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if got := f.syncs - base; got != 2 {
			t.Fatalf("7 appends under WindowOps=3 synced %d times, want 2", got)
		}
		if w.SyncedSeq() != 6 {
			t.Fatalf("SyncedSeq = %d, want 6", w.SyncedSeq())
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if w.SyncedSeq() != 7 {
			t.Fatalf("SyncedSeq after barrier = %d, want 7", w.SyncedSeq())
		}
	})
	t.Run("every-record", func(t *testing.T) {
		f := &memFile{}
		w, _ := Create(f, 1, 0, Policy{Mode: SyncEveryRecord})
		base := f.syncs
		for i := 0; i < 5; i++ {
			if _, err := w.Append([]byte("y")); err != nil {
				t.Fatal(err)
			}
			if w.SyncedSeq() != w.Seq() {
				t.Fatalf("append %d not durable under SyncEveryRecord", i)
			}
		}
		if got := f.syncs - base; got != 5 {
			t.Fatalf("synced %d times, want 5", got)
		}
	})
}

func TestWALStickyError(t *testing.T) {
	f := &memFile{}
	w, err := Create(f, 1, 0, Policy{Mode: SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	f.failWrite = boom
	if _, err := w.Append([]byte("fails")); !errors.Is(err, boom) {
		t.Fatalf("Append during failure: %v", err)
	}
	f.failWrite = nil // the device heals, but the writer must not trust itself
	if _, err := w.Append([]byte("after")); !errors.Is(err, boom) {
		t.Fatalf("Append after failure = %v, want sticky %v", err, boom)
	}
	if err := w.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync after failure = %v, want sticky %v", err, boom)
	}
	if !errors.Is(w.Err(), boom) {
		t.Fatalf("Err() = %v, want %v", w.Err(), boom)
	}
}

// TestWALShortWriteThenScan: a short write (torn record) leaves a log whose
// scan stops cleanly at the last complete record.
func TestWALShortWriteThenScan(t *testing.T) {
	f := &memFile{}
	w, _ := Create(f, 1, 0, Policy{Mode: SyncEveryRecord})
	if _, err := w.Append([]byte("complete")); err != nil {
		t.Fatal(err)
	}
	f.shortBy = 5
	if _, err := w.Append([]byte("torn-record")); err == nil {
		t.Fatal("short write not surfaced")
	}
	sr, err := Scan(f.buf)
	if err != nil {
		t.Fatalf("Scan over torn log: %v", err)
	}
	if len(sr.Recs) != 1 || !bytes.Equal(sr.Recs[0].Payload, []byte("complete")) {
		t.Fatalf("torn log scanned to %d records", len(sr.Recs))
	}
}

func TestWALResume(t *testing.T) {
	cfs := NewCrashFS()
	f, err := cfs.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Create(f, 7, 10, Policy{Mode: SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := cfs.ReadFile("log")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn tail: 7 junk bytes past the valid end.
	torn := append(append([]byte(nil), data...), []byte("junkjnk")...)
	cfs.Seed("log2", torn)
	sr, err := Scan(torn)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if sr.ValidLen != int64(len(data)) || len(sr.Recs) != 3 {
		t.Fatalf("ValidLen = %d (want %d), %d recs", sr.ValidLen, len(data), len(sr.Recs))
	}
	f2, err := cfs.OpenResume("log2", sr.ValidLen)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Resume(f2, 7, 13, sr.ValidLen, Policy{Mode: SyncEveryRecord})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := w2.Append([]byte("resumed")); err != nil || seq != 14 {
		t.Fatalf("resumed append: seq %d err %v", seq, err)
	}
	data2, _ := cfs.ReadFile("log2")
	sr2, err := Scan(data2)
	if err != nil {
		t.Fatalf("rescan: %v", err)
	}
	if len(sr2.Recs) != 4 || sr2.Recs[3].Seq != 14 || !bytes.Equal(sr2.Recs[3].Payload, []byte("resumed")) {
		t.Fatalf("rescan found %d records", len(sr2.Recs))
	}
}

func TestWALRecordTooLarge(t *testing.T) {
	f := &memFile{}
	w, _ := Create(f, 1, 0, Policy{Mode: SyncEveryRecord})
	big := make([]byte, MaxRecordBytes+1)
	if _, err := w.Append(big); err == nil {
		t.Fatal("oversized record accepted")
	}
	// Refusal is not stickiness: the record was never written.
	if _, err := w.Append([]byte("small")); err != nil {
		t.Fatalf("append after refusal: %v", err)
	}
}

func TestCrashFSStateAt(t *testing.T) {
	cfs := NewCrashFS()
	f, _ := cfs.Create("a.tmp")
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-unsynced")); err != nil {
		t.Fatal(err)
	}
	if err := cfs.Rename("a.tmp", "a"); err != nil {
		t.Fatal(err)
	}
	preDirSync := cfs.Clock()
	if err := cfs.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	end := cfs.Clock()
	ev := cfs.Events()

	// Pessimistic before SyncDir: no durable entry at all.
	st := StateAt(ev, preDirSync, false)
	if len(st) != 0 {
		t.Fatalf("pessimistic pre-dirsync state has %d files, want 0", len(st))
	}
	// Optimistic before SyncDir: renamed name, all bytes.
	st = StateAt(ev, preDirSync, true)
	if string(st["a"]) != "hello-unsynced" {
		t.Fatalf("optimistic pre-dirsync: %q", st["a"])
	}
	// Pessimistic after SyncDir: entry durable, content only to the sync.
	st = StateAt(ev, end, false)
	if string(st["a"]) != "hello" {
		t.Fatalf("pessimistic post-dirsync: %q", st["a"])
	}
	// Torn write: crash mid-way through the first write.
	ev2 := ev
	var writeStart int64 = -1
	for _, e := range ev2 {
		if e.Kind == EvWrite {
			writeStart = e.Start
			break
		}
	}
	st = StateAt(ev, writeStart+2, true)
	if string(st["a.tmp"]) != "he" {
		t.Fatalf("torn write: %q, want %q", st["a.tmp"], "he")
	}
}

func TestCrashFSRenameRollback(t *testing.T) {
	cfs := NewCrashFS()
	cfs.Seed("base", []byte("old"))
	f, _ := cfs.Create("base.tmp")
	f.Write([]byte("new!"))
	f.Sync()
	if err := cfs.Rename("base.tmp", "base"); err != nil {
		t.Fatal(err)
	}
	afterRename := cfs.Clock()
	cfs.SyncDir(".")
	ev := cfs.Events()

	// Crash after rename, before the directory sync: the pessimistic view
	// rolls the rename back — the reader sees the OLD base.
	st := StateAt(ev, afterRename, false)
	if string(st["base"]) != "old" {
		t.Fatalf("pessimistic: base = %q, want rollback to %q", st["base"], "old")
	}
	// The optimistic view sees the new one.
	st = StateAt(ev, afterRename, true)
	if string(st["base"]) != "new!" {
		t.Fatalf("optimistic: base = %q, want %q", st["base"], "new!")
	}
	// After the directory sync both agree.
	st = StateAt(ev, cfs.Clock(), false)
	if string(st["base"]) != "new!" {
		t.Fatalf("post-dirsync: base = %q, want %q", st["base"], "new!")
	}
}

func TestCrashFSFaultsDeterministic(t *testing.T) {
	run := func() (int, int, []byte) {
		cfs := NewCrashFS()
		cfs.SetFaults(FaultSchedule{Seed: 99, ShortWritePer10k: 3000, FailSyncPer10k: 2000})
		f, _ := cfs.Create("f")
		for i := 0; i < 50; i++ {
			f.Write([]byte{byte(i), byte(i + 1)})
			f.Sync()
		}
		data, _ := cfs.ReadFile("f")
		return cfs.ShortWrites(), cfs.FailedSyncs(), data
	}
	s1, y1, d1 := run()
	s2, y2, d2 := run()
	if s1 != s2 || y1 != y2 || !bytes.Equal(d1, d2) {
		t.Fatalf("seeded schedule not deterministic: (%d,%d) vs (%d,%d)", s1, y1, s2, y2)
	}
	if s1 == 0 || y1 == 0 {
		t.Fatalf("schedule injected nothing (short %d, sync %d)", s1, y1)
	}
}

// TestWALScanNoPanicSmoke drives Scan over systematically damaged inputs —
// the fuzz corpus's deterministic core.
func TestWALScanNoPanicSmoke(t *testing.T) {
	f, _ := buildLog(t, 2, 5, [][]byte{[]byte("p1"), []byte("p2p2"), {}}, Policy{Mode: SyncEveryRecord})
	for cut := 0; cut <= len(f.buf); cut++ {
		for bit := 0; bit < 8; bit++ {
			for off := 0; off < cut; off += 7 {
				c := append([]byte(nil), f.buf[:cut]...)
				c[off] ^= 1 << bit
				sr, err := Scan(c)
				if err == nil && sr == nil {
					t.Fatal("nil result without error")
				}
				if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut %d off %d bit %d: non-ErrCorrupt error %v", cut, off, bit, err)
				}
			}
		}
	}
}
