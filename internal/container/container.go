// Package container implements the sectioned v2 on-disk index format.
//
// A v2 file is a 16-byte header (magic "secidx02" + a kind word) followed by
// a sequence of sections until end of file. Each section is a fixed 40-byte
// header — type, shard, payload length, pad length, FNV-64a checksum of the
// payload — then pad bytes, then the payload. The pad aligns payloads that
// need it: device-image sections are block-aligned so a FileDisk over the
// payload region issues block-aligned positional reads.
//
// Sections checksum independently, so a sharded index's per-shard metadata
// and images each verify on their own: one shard's corruption is detected
// without touching the others. Metadata payloads are read through Payload
// (bounded, checksum-verified); bulky image payloads stay in place — a
// FileDisk serves them directly — and verify by streaming with Verify.
//
// All input is untrusted until its checksum passes, and the checksum is
// integrity, not authenticity: every decoded field that sizes an allocation
// or drives a loop is bounded before use, and allocations are proportional
// to bytes actually present in the file, never to header-declared sizes.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
)

// Magic identifies a v2 container file.
const Magic = "secidx02"

// Load-time caps shared by the v2 decoders. They mirror the v1 caps in the
// public package: far above any useful value, far below overflow.
const (
	// MaxRows bounds declared row counts.
	MaxRows = 1 << 40
	// MaxSigma bounds the declared alphabet size.
	MaxSigma = 1 << 22
	// MaxParam bounds structural parameters (branching, stride, shard
	// counts, device geometry).
	MaxParam = 1 << 30
)

// Kind identifies the index variety a container holds.
const (
	KindStatic  = 1
	KindSharded = 2
	KindAppend  = 3
	KindDynamic = 4
)

// Section types.
const (
	// TypeManifest is the single whole-index section: row count, alphabet,
	// build options, shard partition.
	TypeManifest = 1
	// TypeStaticMeta is one shard's static-index metadata (Theorem 2 layout:
	// extents, hash cards, tree block placement).
	TypeStaticMeta = 2
	// TypeAppendMeta is the append-index metadata (skeleton, member chains,
	// buffers).
	TypeAppendMeta = 3
	// TypeDynamicMeta is the dynamic index's logical snapshot.
	TypeDynamicMeta = 4
	// TypeImageInfo carries one device's geometry: allocated bits and free
	// list. Split from TypeImage so the image payload is raw device bytes,
	// block-aligned in the file.
	TypeImageInfo = 5
	// TypeImage is one device's raw image bytes. Its payload offset is the
	// FileDisk base.
	TypeImage = 6
	// TypeColumn is the append index's per-character position lists — the
	// in-memory rebuild mirror, serialised so a reopened index can accept
	// further appends instead of being read-only.
	TypeColumn = 7
	// TypeDurable is the durability watermark: the sequence number of the
	// last logged operation the container's sections reflect. A reopened
	// durable handle replays only WAL records beyond it.
	TypeDurable = 8
)

// ErrCorrupt is wrapped by every error caused by the input bytes, as opposed
// to I/O errors from the reader itself.
var ErrCorrupt = errors.New("container: corrupt")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

const (
	fileHdrBytes    = 16
	sectionHdrBytes = 40
	// maxPad bounds a section's declared pad: alignment never exceeds one
	// block, and blocks are capped well below this.
	maxPad = 1 << 31
)

// Section describes one parsed section: its identity and where its payload
// lives in the file.
type Section struct {
	Type     uint64
	Shard    uint64
	Off      int64 // payload offset in the file
	Len      int64 // payload length in bytes
	Checksum uint64
}

// Writer emits a container sequentially. Errors are sticky; the first one
// aborts everything after it and is returned by every later call.
type Writer struct {
	w   io.Writer
	off int64
	err error
}

// NewWriter writes the file header for the given kind and returns the
// section writer.
func NewWriter(w io.Writer, kind uint64) (*Writer, error) {
	cw := &Writer{w: w}
	var hdr [fileHdrBytes]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint64(hdr[8:], kind)
	cw.write(hdr[:])
	return cw, cw.err
}

func (cw *Writer) write(p []byte) {
	if cw.err != nil {
		return
	}
	n, err := cw.w.Write(p)
	cw.off += int64(n)
	cw.err = err
}

// Add appends one section. alignBytes > 1 pads so the payload starts at a
// multiple of alignBytes in the file (image sections pass the block size).
func (cw *Writer) Add(typ, shard uint64, payload []byte, alignBytes int) error {
	if cw.err != nil {
		return cw.err
	}
	if alignBytes < 1 {
		alignBytes = 1
	}
	pad := int64(0)
	if r := (cw.off + sectionHdrBytes) % int64(alignBytes); r != 0 {
		pad = int64(alignBytes) - r
	}
	h := fnv.New64a()
	h.Write(payload)
	var hdr [sectionHdrBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], typ)
	binary.LittleEndian.PutUint64(hdr[8:], shard)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(pad))
	binary.LittleEndian.PutUint64(hdr[32:], h.Sum64())
	cw.write(hdr[:])
	if pad > 0 {
		cw.write(make([]byte, pad))
	}
	cw.write(payload)
	return cw.err
}

// Written returns the bytes emitted so far.
func (cw *Writer) Written() int64 { return cw.off }

// File is a parsed container: the section directory over a random-access
// reader. Parse validates the directory's structure; payload contents are
// verified lazily (Payload, Verify).
type File struct {
	r        io.ReaderAt
	size     int64
	Kind     uint64
	Sections []Section
}

// Parse reads the header and walks the section directory of a container in
// r, whose total length is size.
func Parse(r io.ReaderAt, size int64) (*File, error) {
	var hdr [fileHdrBytes]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return nil, corruptf("file header: %v", err)
	}
	if string(hdr[:8]) != Magic {
		return nil, corruptf("bad magic %q", hdr[:8])
	}
	f := &File{r: r, size: size, Kind: binary.LittleEndian.Uint64(hdr[8:])}
	off := int64(fileHdrBytes)
	for off < size {
		var sh [sectionHdrBytes]byte
		if size-off < sectionHdrBytes {
			return nil, corruptf("truncated section header at %d", off)
		}
		if _, err := r.ReadAt(sh[:], off); err != nil {
			return nil, corruptf("section header at %d: %v", off, err)
		}
		typ := binary.LittleEndian.Uint64(sh[0:])
		shard := binary.LittleEndian.Uint64(sh[8:])
		plen := binary.LittleEndian.Uint64(sh[16:])
		pad := binary.LittleEndian.Uint64(sh[24:])
		sum := binary.LittleEndian.Uint64(sh[32:])
		if pad > maxPad {
			return nil, corruptf("section at %d: implausible pad %d", off, pad)
		}
		payloadOff := off + sectionHdrBytes + int64(pad)
		if plen > uint64(size) || payloadOff > size || int64(plen) > size-payloadOff {
			return nil, corruptf("section at %d: payload [%d,+%d) exceeds file of %d bytes", off, payloadOff, plen, size)
		}
		f.Sections = append(f.Sections, Section{
			Type: typ, Shard: shard, Off: payloadOff, Len: int64(plen), Checksum: sum,
		})
		off = payloadOff + int64(plen)
	}
	return f, nil
}

// Find returns the section with the given type and shard, if present.
func (f *File) Find(typ, shard uint64) (Section, bool) {
	for _, s := range f.Sections {
		if s.Type == typ && s.Shard == shard {
			return s, true
		}
	}
	return Section{}, false
}

// Payload reads section s in full and verifies its checksum. maxLen bounds
// the allocation; sections larger than it are rejected as corrupt (metadata
// sections are small — images are never read through Payload).
func (f *File) Payload(s Section, maxLen int64) ([]byte, error) {
	if s.Len > maxLen {
		return nil, corruptf("section type %d shard %d: %d bytes exceeds cap %d", s.Type, s.Shard, s.Len, maxLen)
	}
	buf := make([]byte, s.Len)
	if _, err := io.ReadFull(io.NewSectionReader(f.r, s.Off, s.Len), buf); err != nil {
		return nil, corruptf("section type %d shard %d: read: %v", s.Type, s.Shard, err)
	}
	h := fnv.New64a()
	h.Write(buf)
	if got := h.Sum64(); got != s.Checksum {
		return nil, corruptf("section type %d shard %d: checksum mismatch (file %x, computed %x)", s.Type, s.Shard, s.Checksum, got)
	}
	return buf, nil
}

// Verify streams section s through its checksum without retaining the
// payload — how image sections are validated before a FileDisk serves them.
func (f *File) Verify(s Section) error {
	h := fnv.New64a()
	if _, err := io.Copy(h, io.NewSectionReader(f.r, s.Off, s.Len)); err != nil {
		return corruptf("section type %d shard %d: read: %v", s.Type, s.Shard, err)
	}
	if got := h.Sum64(); got != s.Checksum {
		return corruptf("section type %d shard %d: checksum mismatch (file %x, computed %x)", s.Type, s.Shard, s.Checksum, got)
	}
	return nil
}

// Encoder builds a varint-packed metadata payload.
type Encoder struct {
	buf []byte
}

// U appends an unsigned varint.
func (e *Encoder) U(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// ULen returns the bytes U appends for v.
func ULen(v uint64) int { return max(1, (bits.Len64(v)+6)/7) }

// I appends a signed (zig-zag) varint.
func (e *Encoder) I(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Bytes returns the payload built so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Decoder reads a varint-packed metadata payload with a sticky error: after
// the first malformed or out-of-bounds field every later read returns zero,
// and Err/Finish report the failure. Callers can therefore decode a whole
// structure straight-line and check once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over payload bytes.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = corruptf(format, args...)
	}
}

// U reads an unsigned varint.
func (d *Decoder) U() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// UN reads an unsigned varint and fails the decoder if it exceeds max.
func (d *Decoder) UN(max uint64) uint64 {
	v := d.U()
	if d.err == nil && v > max {
		d.fail("field %d exceeds bound %d at offset %d", v, max, d.off)
		return 0
	}
	return v
}

// I reads a signed (zig-zag) varint.
func (d *Decoder) I() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Err returns the sticky error, if any.
func (d *Decoder) Err() error { return d.err }

// More reports whether payload bytes remain to be read: a payload a later
// format extended with trailing fields holds them, an older one does not.
func (d *Decoder) More() bool { return d.err == nil && d.off < len(d.buf) }

// Finish returns the sticky error, or ErrCorrupt if payload bytes remain
// unconsumed (a well-formed payload is read exactly).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return corruptf("%d trailing bytes after payload", len(d.buf)-d.off)
	}
	return nil
}
