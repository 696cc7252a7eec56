// Package wal implements the write-ahead log behind the durable index
// handles: length-prefixed, checksummed, monotonically sequenced records
// appended to a flat file ahead of every acknowledged update.
//
// The format is two fixed layers. A 32-byte file header binds the log to its
// base container — magic, the container kind, and the sequence number the
// base already reflects (records resume numbering from there) — under an
// FNV-64a checksum. Each record is a 24-byte header (payload length, sequence
// number, FNV-64a of the payload, FNV-32a of the header itself) followed by
// the payload. Sequence numbers are dense: record i carries StartSeq+1+i.
//
// Recovery distinguishes two kinds of damage. A *torn tail* — the file ends
// mid-header or mid-payload, exactly what a crash during an append leaves —
// is not an error: Scan stops cleanly at the last complete record and reports
// the valid prefix length so the writer can resume there. *Mid-log* damage —
// a checksum or sequence violation with further bytes beyond it — means
// interior records were altered or lost, and Scan returns ErrCorrupt rather
// than silently dropping acknowledged history.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Magic identifies a WAL file; the trailing digit is the format version.
const Magic = "secidxw1"

const (
	headerBytes    = 32
	recordHdrBytes = 24
)

// MaxRecordBytes bounds a record payload. The writer refuses larger payloads
// and the scanner treats larger declared lengths as corruption, so a hostile
// length prefix cannot drive allocation.
const MaxRecordBytes = 1 << 28

// ErrCorrupt reports mid-log damage: checksum or sequence violations with
// valid data beyond them. A torn tail is not corruption; Scan absorbs it.
var ErrCorrupt = errors.New("wal: corrupt log")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// SyncMode selects when the writer makes appended records durable.
type SyncMode int

const (
	// SyncEveryRecord syncs after every append: an acknowledged record is
	// durable.
	SyncEveryRecord SyncMode = iota
	// SyncWindow group-commits: the writer syncs when the unsynced window
	// reaches WindowOps records.
	SyncWindow
	// SyncManual never syncs from Append: durability is whatever explicit
	// Sync calls the owner issues. This is the group-commit mode — a commit
	// coordinator batches appends from many writers and issues one Sync for
	// the whole batch.
	SyncManual
)

// Policy is a complete sync policy.
type Policy struct {
	Mode SyncMode
	// WindowOps caps the unsynced record count under SyncWindow (0 = no
	// trigger: only explicit Syncs).
	WindowOps int
}

func fnv64a(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

func fnv32a(p []byte) uint32 {
	h := fnv.New32a()
	h.Write(p)
	return h.Sum32()
}

// Writer appends records to a log file. Errors are sticky: after any failed
// write or sync every later call returns the same error, because the file
// offset the writer believes in may no longer match reality.
type Writer struct {
	f       File
	kind    uint64
	pol     Policy
	seq     uint64 // last appended sequence number
	synced  uint64 // last sequence number covered by a successful sync
	written int64  // bytes written, including the file header
	durable int64  // bytes covered by a successful sync
	pending int    // records appended since the last sync
	syncs   int64  // device syncs actually issued for records (group-commit accounting)
	scratch []byte
	err     error
}

// Create writes a fresh log file header binding the log to kind with
// sequence numbers starting after startSeq, syncs it, and returns a writer
// positioned after the header.
func Create(f File, kind, startSeq uint64, pol Policy) (*Writer, error) {
	w := &Writer{f: f, kind: kind, pol: pol, seq: startSeq, synced: startSeq}
	var hdr [headerBytes]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint64(hdr[8:16], kind)
	binary.LittleEndian.PutUint64(hdr[16:24], startSeq)
	binary.LittleEndian.PutUint64(hdr[24:32], fnv64a(hdr[:24]))
	if _, err := f.Write(hdr[:]); err != nil {
		w.err = err
		return nil, err
	}
	w.written = headerBytes
	if err := f.Sync(); err != nil {
		w.err = err
		return nil, err
	}
	w.durable = headerBytes
	return w, nil
}

// Resume returns a writer over a log whose valid prefix of size bytes ends
// at sequence number lastSeq; f must be positioned there (see FS.OpenResume).
// The prefix — just read back during recovery, possibly truncated — is
// synced once so the resumed watermark is honest.
func Resume(f File, kind, lastSeq uint64, size int64, pol Policy) (*Writer, error) {
	w := &Writer{
		f: f, kind: kind, pol: pol, seq: lastSeq, synced: lastSeq,
		written: size, durable: size,
	}
	if err := f.Sync(); err != nil {
		w.err = err
		return nil, err
	}
	return w, nil
}

// Append writes one record and applies the sync policy. It returns the
// record's sequence number. An error means the record is not acknowledged:
// it may or may not survive a crash, and the writer is broken (sticky).
func (w *Writer) Append(payload []byte) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds cap %d", len(payload), MaxRecordBytes)
	}
	seq := w.seq + 1
	need := recordHdrBytes + len(payload)
	if cap(w.scratch) < need {
		w.scratch = make([]byte, need)
	}
	rec := w.scratch[:need]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[4:12], seq)
	binary.LittleEndian.PutUint64(rec[12:20], fnv64a(payload))
	binary.LittleEndian.PutUint32(rec[20:24], fnv32a(rec[:20]))
	copy(rec[recordHdrBytes:], payload)
	n, err := w.f.Write(rec)
	w.written += int64(n)
	if err != nil {
		w.err = err
		return 0, err
	}
	w.seq = seq
	w.pending++
	if w.shouldSync() {
		if err := w.Sync(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

func (w *Writer) shouldSync() bool {
	switch w.pol.Mode {
	case SyncEveryRecord:
		return true
	case SyncWindow:
		return w.pol.WindowOps > 0 && w.pending >= w.pol.WindowOps
	case SyncManual:
		return false
	}
	return true
}

// Sync is an explicit durability barrier: on return every appended record is
// durable (or the writer is broken).
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.durable == w.written {
		w.synced = w.seq
		w.pending = 0
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = err
		return err
	}
	w.syncs++
	w.durable = w.written
	w.synced = w.seq
	w.pending = 0
	return nil
}

// Close syncs outstanding records and closes the file.
func (w *Writer) Close() error {
	serr := w.Sync()
	cerr := w.f.Close()
	if w.err == nil && cerr != nil {
		w.err = cerr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// Seq returns the last appended sequence number.
func (w *Writer) Seq() uint64 { return w.seq }

// SyncedSeq returns the last sequence number guaranteed durable.
func (w *Writer) SyncedSeq() uint64 { return w.synced }

// Written returns the bytes written to the log, including the file header.
func (w *Writer) Written() int64 { return w.written }

// SyncCount returns the number of device syncs actually issued for record
// durability (no-op Syncs with nothing outstanding are not counted). Group
// commit is measurable here: batched writers should see far fewer syncs than
// acknowledged records.
func (w *Writer) SyncCount() int64 { return w.syncs }

// Err returns the sticky error, if any.
func (w *Writer) Err() error { return w.err }

// Record is one scanned log record. Payload aliases the scanned buffer.
type Record struct {
	Seq     uint64
	Payload []byte
}

// ScanResult is the outcome of scanning a log image.
type ScanResult struct {
	// Kind and StartSeq are the file header fields (valid iff HeaderOK).
	Kind     uint64
	StartSeq uint64
	// Recs are the complete, checksummed records in sequence order.
	Recs []Record
	// ValidLen is the resume offset: the end of the last valid record
	// (headerBytes when the header is valid but no record is). Bytes beyond
	// it are a torn tail and must be truncated before appending.
	ValidLen int64
	// HeaderOK reports a complete, valid file header. False means the file
	// is shorter than a header — what a crash during log creation leaves —
	// and the log carries nothing; treat it as absent.
	HeaderOK bool
}

// Scan decodes a log image. A torn tail — truncation mid-header or
// mid-payload, or a payload checksum failure on the final record — ends the
// scan cleanly at the last valid record. Damage strictly before the end of
// the image (checksum mismatches, hostile lengths, sequence gaps) returns an
// error wrapping ErrCorrupt: interior records are never silently dropped.
// Allocations are bounded by the bytes actually present; payloads alias data.
func Scan(data []byte) (*ScanResult, error) {
	res := &ScanResult{}
	if len(data) < headerBytes {
		return res, nil
	}
	if string(data[:8]) != Magic {
		return nil, corruptf("bad magic %q", data[:8])
	}
	if got, want := binary.LittleEndian.Uint64(data[24:32]), fnv64a(data[:24]); got != want {
		return nil, corruptf("file header checksum mismatch")
	}
	res.Kind = binary.LittleEndian.Uint64(data[8:16])
	res.StartSeq = binary.LittleEndian.Uint64(data[16:24])
	res.HeaderOK = true
	res.ValidLen = headerBytes
	next := res.StartSeq + 1
	off := int64(headerBytes)
	for {
		rem := int64(len(data)) - off
		if rem == 0 {
			return res, nil
		}
		if rem < recordHdrBytes {
			return res, nil // torn tail: crash mid-header
		}
		hdr := data[off : off+recordHdrBytes]
		if got, want := binary.LittleEndian.Uint32(hdr[20:24]), fnv32a(hdr[:20]); got != want {
			// A pure truncation cannot leave a complete header with a bad
			// checksum; this is alteration.
			return nil, corruptf("record header checksum mismatch at offset %d", off)
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if plen > MaxRecordBytes {
			return nil, corruptf("record at offset %d declares %d payload bytes", off, plen)
		}
		end := off + recordHdrBytes + plen
		if end > int64(len(data)) {
			return res, nil // torn tail: crash mid-payload
		}
		payload := data[off+recordHdrBytes : end]
		if fnv64a(payload) != binary.LittleEndian.Uint64(hdr[12:20]) {
			if end == int64(len(data)) {
				return res, nil // torn tail: final record's payload damaged
			}
			return nil, corruptf("record payload checksum mismatch at offset %d", off)
		}
		seq := binary.LittleEndian.Uint64(hdr[4:12])
		if seq != next {
			return nil, corruptf("record at offset %d has sequence %d, expected %d", off, seq, next)
		}
		res.Recs = append(res.Recs, Record{Seq: seq, Payload: payload})
		res.ValidLen = end
		next++
		off = end
	}
}
