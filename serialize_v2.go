package secidx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/iomodel"
	"repro/internal/shard"
	"repro/internal/wal"
)

// The v2 on-disk format is a sectioned container (internal/container) whose
// payloads are the device image itself plus enough metadata to rebuild the
// in-memory structures without replaying the build: magic and kind, then a
// manifest (row count, alphabet, build options, shard count), then per shard
// an independently checksummed metadata section and the shard's device image,
// block-aligned in the file. A reopened index serves queries straight from
// the file through a read-only FileDisk, so the Aggarwal–Vitter accounting
// maps one-to-one onto real positional reads. The fully dynamic index is the
// exception: its point indexes and position translator are write-active, so
// its section is a logical snapshot (column plus deletions) replayed through
// the paper's global-rebuilding primitive onto a fresh simulated device.

// FileMode selects how a reopened index reads its file.
type FileMode = iomodel.FileMode

const (
	// ModePread serves every charged block read with a real positional read.
	ModePread FileMode = iomodel.ModePread
	// ModeMmap maps the file; charged reads are counted but served from the
	// mapping.
	ModeMmap FileMode = iomodel.ModeMmap
)

// OpenOptions configures OpenFile. The zero value opens in pread mode with
// no cache, no fault injection and lazy image verification (sections are
// checksummed as their payloads are decoded; raw image bytes are verified
// only when VerifyImages is set, since queries touch a vanishing fraction of
// them).
type OpenOptions struct {
	// Mode selects pread or mmap service for the device images.
	Mode FileMode
	// CacheBlocks enables an LRU block cache of that many blocks on each
	// reopened device (see ShardOptions.CacheBlocks).
	CacheBlocks int
	// VerifyImages checksums the raw image sections up front.
	VerifyImages bool
	// Faults, when non-nil, gives every reopened device a fault schedule
	// (per-shard seeds offset by the shard id, matching BuildSharded). The
	// schedule starts disarmed.
	Faults *FaultConfig
	// Workers bounds a reopened sharded index's query fan-out (default
	// GOMAXPROCS).
	Workers int
	// WAL, when non-nil, opens an append or dynamic container *writable*
	// with crash-consistent durability: the device image is materialised
	// into memory instead of being served read-only from the file, updates
	// are write-ahead logged before they apply, the log suffix beyond the
	// base's watermark is replayed at open, and checkpoints atomically
	// rewrite the container (see WALOptions). Static and sharded containers
	// reject it — they have no update operations to log. A writable open
	// takes an advisory lock on <path>.lock; a second writable open of the
	// same container (from this or any process) fails with ErrLocked until
	// the first handle closes.
	WAL *WALOptions
	// Concurrent enables snapshot-isolated concurrent reads on the reopened
	// handle, exactly as Options.Concurrent does on a built one. It applies
	// to the updatable kinds: a dynamic container (always replayed onto a
	// writable in-memory device) and an append container opened writable
	// with WAL — where acknowledgement additionally group-commits across
	// concurrent writers under SyncEveryOp. A read-only append, static or
	// sharded reopen serves queries straight from the file and has no
	// writers to isolate; Concurrent is rejected there.
	Concurrent bool
	// readerAt, when non-nil, overrides each device's pread source — the
	// instrumentation hook the read-count differential tests use.
	readerAt func(f *os.File) io.ReaderAt
}

// Opened is the result of OpenFile: exactly one of the index fields is
// non-nil, according to the kind recorded in the file. Close releases the
// file handle and any mappings; the indexes must not be used afterwards.
type Opened struct {
	Static  *Index
	Sharded *ShardedIndex
	Append  *AppendIndex
	Dynamic *DynamicIndex

	f      *os.File
	disks  []*iomodel.FileDisk
	dur    *durable
	lock   *fileLock
	closed atomic.Bool
}

// Close releases the index. For a handle opened writable (OpenOptions.WAL)
// it first checkpoints outstanding operations and closes the log, so a
// cleanly closed index is carried entirely by its base container. Close is
// idempotent and safe to race with in-flight operations: exactly one call
// does the work and surfaces any error (checkpoint, log flush, munmap, file
// close); it serializes behind whatever operation holds the durable lock,
// later calls are no-ops returning nil, and operations arriving after it
// fail with ErrClosed.
func (o *Opened) Close() error {
	if !o.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	if o.dur != nil {
		// o.dur stays set: Sync/Checkpoint racing with Close read it and get
		// ErrClosed from the durable layer rather than chasing a nil.
		first = o.dur.close()
	}
	for _, d := range o.disks {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	o.disks = nil
	if o.f != nil {
		if err := o.f.Close(); err != nil && first == nil {
			first = err
		}
		o.f = nil
	}
	if o.lock != nil {
		if err := o.lock.release(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sync forces a durability barrier on a handle opened with OpenOptions.WAL:
// on return every acknowledged operation survives a crash. A no-op on
// read-only handles.
func (o *Opened) Sync() error {
	if o.dur == nil {
		return nil
	}
	return o.dur.sync()
}

// Checkpoint forces the base container to be atomically rewritten at the
// current operation watermark and the log to be reset. A no-op on read-only
// handles.
func (o *Opened) Checkpoint() error {
	if o.dur == nil {
		return nil
	}
	return o.dur.checkpoint()
}

// LastSeq returns the sequence number of the last acknowledged operation on
// a handle opened with OpenOptions.WAL — the count of updates ever applied
// through the durability layer, across reopens. Zero on read-only handles.
func (o *Opened) LastSeq() uint64 {
	if o.dur == nil {
		return 0
	}
	return o.dur.lastSeq()
}

// DurableSeq returns the last sequence number guaranteed to survive a crash
// (acknowledged operations beyond it await the next sync barrier). Zero on
// read-only handles.
func (o *Opened) DurableSeq() uint64 {
	if o.dur == nil {
		return 0
	}
	return o.dur.durableSeq()
}

// maxMetaBytes bounds a metadata section's payload: metadata is a constant
// factor of the structure it describes, far below the image it accompanies.
const maxMetaBytes = 1 << 30

// ErrCorrupt is wrapped by every OpenFile error caused by the file's bytes —
// truncation, bad magic, implausible header fields, out-of-range values or a
// checksum mismatch — as opposed to I/O errors from the file system itself.
// Detect it with errors.Is.
var ErrCorrupt = errors.New("secidx: corrupt index data")

// corruptf reports malformed input, wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// wrapCorrupt rebrands container-level corruption as the package's
// ErrCorrupt so callers detect it with one errors.Is.
func wrapCorrupt(err error) error {
	if errors.Is(err, container.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}

// writeContainer writes a container to path atomically: the sections are
// emitted to a temp file in the same directory, synced, and renamed over
// path only on success.
func writeContainer(path string, kind uint64, emit func(*container.Writer) error) error {
	return writeContainerFS(wal.OS, path, kind, emit)
}

// writeContainerFS is writeContainer over an abstract filesystem (the
// crash-injection harness substitutes a journaling one). The temp file is
// path+".tmp", so writers of one path must not overlap: WriteFile callers
// own their paths, and writable handles exclude each other through the
// advisory lock OpenFile takes (ErrLocked) and serialize their own
// checkpoints through the durable lock. After the rename the parent
// directory is synced: without that, a crash shortly after a "successful"
// write can roll the file back to its previous contents, or to nothing at
// all if it was being created.
func writeContainerFS(fsys wal.FS, path string, kind uint64, emit func(*container.Writer) error) error {
	name := path + ".tmp"
	tmp, err := fsys.Create(name)
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			tmp.Close()
			fsys.Remove(name)
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	cw, err := container.NewWriter(bw, kind)
	if err != nil {
		return err
	}
	if err := emit(cw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(name, path); err != nil {
		return err
	}
	committed = true
	return fsys.SyncDir(filepath.Dir(path))
}

// manifest is the decoded TypeManifest section.
type manifest struct {
	n      int64
	sigma  int
	opts   Options
	shards int
	// revision is the static payloads' revision (core.StaticRevision when
	// written now), in the slot that once held the advisory memory size,
	// which every file wrote as 0; the append and dynamic kinds write 0.
	revision int
}

func encodeManifest(e *container.Encoder, n int64, sigma int, opts Options, shards, revision int) {
	e.U(uint64(n))
	e.U(uint64(sigma))
	e.U(uint64(opts.BlockBits))
	e.U(uint64(revision))
	e.U(uint64(opts.Branching))
	e.U(uint64(opts.Stride))
	e.I(opts.Seed)
	if opts.Buffered {
		e.U(1)
	} else {
		e.U(0)
	}
	e.U(uint64(shards))
}

func readManifest(cf *container.File) (manifest, error) {
	dec, err := sectionDecoder(cf, container.TypeManifest, 0, 1<<16, "manifest")
	if err != nil {
		return manifest{}, err
	}
	var m manifest
	m.n = int64(dec.UN(container.MaxRows))
	sigma := dec.UN(container.MaxSigma)
	m.opts.BlockBits = int(dec.UN(container.MaxParam))
	m.revision = int(dec.UN(core.StaticRevision))
	m.opts.Branching = int(dec.UN(container.MaxParam))
	m.opts.Stride = int(dec.UN(container.MaxParam))
	m.opts.Seed = dec.I()
	m.opts.Buffered = dec.UN(1) == 1
	m.shards = int(dec.UN(container.MaxParam))
	if err := dec.Finish(); err != nil {
		return manifest{}, wrapCorrupt(err)
	}
	if sigma == 0 {
		return manifest{}, corruptf("manifest declares empty alphabet")
	}
	m.sigma = int(sigma)
	if m.shards < 1 {
		return manifest{}, corruptf("manifest declares %d shards", m.shards)
	}
	return m, nil
}

// addImage emits a device's image as an ImageInfo section (allocation tail
// and free list) plus the raw image bytes, aligned in the file to the
// device's block size so reopened block reads are aligned preads.
func addImage(cw *container.Writer, shardID uint64, d *iomodel.Disk) error {
	tailBits, data := d.Image()
	var e container.Encoder
	e.U(uint64(tailBits))
	free := d.FreeList()
	e.U(uint64(len(free)))
	for _, b := range free {
		e.U(uint64(b))
	}
	if err := cw.Add(container.TypeImageInfo, shardID, e.Bytes(), 1); err != nil {
		return err
	}
	return cw.Add(container.TypeImage, shardID, data, d.BlockBits()/8)
}

// lockSuffix names the advisory lock companion of a writable container:
// <path>.lock next to <path> and <path>.wal.
const lockSuffix = ".lock"

// ErrLocked reports that a writable open (OpenOptions.WAL) found the
// container's advisory lock held by another live handle — in this process
// or any other. Detect it with errors.Is.
var ErrLocked = errors.New("secidx: container is locked by another writable handle")

// errReopened rejects re-serialising an index that is itself file-backed:
// its in-memory mirror holds only the blocks queries have touched, not the
// image.
var errReopened = errors.New("secidx: index was reopened from a file; its image lives in that file already")

// WriteFile serialises the index to path in the v2 container format,
// atomically (temp file and rename): the manifest, then one metadata and one
// image section per shard (one for an Index), each independently
// checksummed. The written file reopens with OpenFile and serves queries
// directly from disk.
func (ix *static) WriteFile(path string) error {
	parts := ix.sx.Parts()
	n, s := ix.sx.Len(), int64(len(parts))
	for i, p := range parts {
		if p.Disk.FileBacked() {
			return errReopened
		}
		// OpenFile recomputes the partition instead of persisting it; assert
		// the build used the same arithmetic before committing to that.
		if p.Start != int64(i)*n/s || p.End != int64(i+1)*n/s {
			return fmt.Errorf("secidx: shard %d covers [%d,%d), not the canonical partition", i, p.Start, p.End)
		}
	}
	return writeContainer(path, ix.kind, func(cw *container.Writer) error {
		var e container.Encoder
		encodeManifest(&e, n, ix.sx.Sigma(), ix.opts, len(parts), core.StaticRevision)
		if err := cw.Add(container.TypeManifest, 0, e.Bytes(), 1); err != nil {
			return err
		}
		for i, p := range parts {
			var m container.Encoder
			if err := p.Ax.EncodeMeta(&m); err != nil {
				return err
			}
			if err := cw.Add(container.TypeStaticMeta, uint64(i), m.Bytes(), 1); err != nil {
				return err
			}
			if err := addImage(cw, uint64(i), p.Disk); err != nil {
				return err
			}
		}
		return nil
	})
}

// addDurable emits the durability watermark section: the sequence number of
// the last logged operation the container's other sections reflect.
func addDurable(cw *container.Writer, seq uint64) error {
	var e container.Encoder
	e.U(seq)
	return cw.Add(container.TypeDurable, 0, e.Bytes(), 1)
}

// readDurableSeq reads the durability watermark; containers written before
// the watermark existed reflect sequence zero.
func readDurableSeq(cf *container.File) (uint64, error) {
	if _, ok := cf.Find(container.TypeDurable, 0); !ok {
		return 0, nil
	}
	dec, err := sectionDecoder(cf, container.TypeDurable, 0, 64, "watermark")
	if err != nil {
		return 0, err
	}
	seq := dec.U()
	if err := dec.Finish(); err != nil {
		return 0, wrapCorrupt(err)
	}
	return seq, nil
}

// emitSections writes the append container's sections at durability
// watermark seq — shared by WriteFile and the durability layer's
// checkpoints. The column section carries the in-memory rebuild mirror, so
// a reopened index can accept further appends instead of being read-only.
func (ix *AppendIndex) emitSections(cw *container.Writer, seq uint64) error {
	var e container.Encoder
	encodeManifest(&e, ix.Len(), ix.ax.Sigma(), ix.opts, 1, 0)
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
	var c container.Encoder
	ix.ax.EncodeColumn(&c)
	if err := cw.Add(container.TypeColumn, 0, c.Bytes(), 1); err != nil {
		return err
	}
	if err := addDurable(cw, seq); err != nil {
		return err
	}
	return addImage(cw, 0, ix.disk)
}

// WriteFile serialises the append index to path in the v2 container format.
// A buffered index's pending root buffer is serialised with it, so an index
// may be written mid-buffer without flushing. The written file reopens
// read-only by default, or writable with OpenOptions.WAL.
func (ix *AppendIndex) WriteFile(path string) error {
	return ix.writeFile(path, container.KindAppend)
}

// WriteFile serialises the dynamic index to path. The dynamic structure's
// point indexes and position translator are write-active, so the section is
// a logical snapshot — the surviving column and the deleted positions — that
// OpenFile replays through a global rebuild onto a fresh simulated device
// (the paper's global-rebuilding primitive, applied at the serialisation
// boundary). Rebuilding is deterministic, so the reopened index answers
// queries bit-identically; its I/O counters start from the rebuilt state.
func (ix *DynamicIndex) WriteFile(path string) error {
	return ix.writeFile(path, container.KindDynamic)
}

// emitSections writes the dynamic container's sections at durability
// watermark seq (see DynamicIndex.WriteFile for why the payload is a
// logical snapshot).
func (ix *DynamicIndex) emitSections(cw *container.Writer, seq uint64) error {
	var e container.Encoder
	encodeManifest(&e, ix.Len(), ix.dx.Sigma(), ix.opts, 1, 0)
	if err := cw.Add(container.TypeManifest, 0, e.Bytes(), 1); err != nil {
		return err
	}
	var m container.Encoder
	if err := ix.dx.EncodeMeta(&m); err != nil {
		return err
	}
	if err := cw.Add(container.TypeDynamicMeta, 0, m.Bytes(), 1); err != nil {
		return err
	}
	return addDurable(cw, seq)
}

// OpenFile opens an index serialised by any WriteFile. The static, sharded
// and append kinds are served from the file itself through read-only
// file-backed devices; the dynamic kind is replayed onto a fresh simulated
// device. The returned Opened must be closed when the index is no longer
// needed. Input is untrusted: malformed files fail with an error wrapping
// ErrCorrupt, never a panic, and allocations are bounded by the bytes
// actually present.
func OpenFile(path string, oo OpenOptions) (*Opened, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	o, err := openFile(f, oo)
	if err != nil {
		f.Close()
		return nil, err
	}
	return o, nil
}

func openFile(f *os.File, oo OpenOptions) (*Opened, error) {
	// The caller's own options are checked up front, so that every device
	// error past this point is about sizes that came from the file.
	if oo.Mode != ModePread && oo.Mode != ModeMmap {
		return nil, fmt.Errorf("secidx: unknown file mode %d", oo.Mode)
	}
	if oo.Faults != nil {
		if err := oo.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("secidx: %w", err)
		}
	}
	if oo.WAL != nil && oo.WAL.GroupOps < 0 {
		return nil, fmt.Errorf("secidx: WALOptions.GroupOps %d is negative", oo.WAL.GroupOps)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	cf, err := container.Parse(f, st.Size())
	if err != nil {
		return nil, wrapCorrupt(err)
	}
	man, err := readManifest(cf)
	if err != nil {
		return nil, err
	}
	switch cf.Kind {
	case container.KindStatic, container.KindSharded:
		if oo.WAL != nil {
			return nil, fmt.Errorf("secidx: durability (OpenOptions.WAL) applies to append and dynamic containers only; static containers have no update operations to log")
		}
		if oo.Concurrent {
			return nil, fmt.Errorf("secidx: OpenOptions.Concurrent applies to updatable handles (dynamic, or append with OpenOptions.WAL); this container has no writers to isolate")
		}
		return openStatic(f, cf, man, oo)
	case container.KindAppend, container.KindDynamic:
		if cf.Kind == container.KindAppend && oo.Concurrent && oo.WAL == nil {
			return nil, fmt.Errorf("secidx: OpenOptions.Concurrent on an append container requires OpenOptions.WAL; a read-only reopen has no writers to isolate")
		}
		// A writable open takes the advisory handle lock first: two live
		// writers on one container would race the checkpoint rename and the
		// log, so the second open fails with ErrLocked instead.
		var lk *fileLock
		if oo.WAL != nil {
			var lerr error
			if lk, lerr = acquireLock(f.Name() + lockSuffix); lerr != nil {
				return nil, lerr
			}
		}
		var o *Opened
		var err error
		if cf.Kind == container.KindAppend {
			o, err = openAppend(f, cf, man, oo)
		} else {
			o, err = openDynamic(f, cf, man, oo)
		}
		if err != nil {
			if lk != nil {
				lk.release()
			}
			return nil, err
		}
		o.lock = lk
		return o, nil
	}
	return nil, corruptf("unknown container kind %d", cf.Kind)
}

// sectionDecoder locates a metadata section and returns a decoder over its
// checksum-verified payload of at most maxLen bytes.
func sectionDecoder(cf *container.File, typ, shardID uint64, maxLen int64, what string) (*container.Decoder, error) {
	s, ok := cf.Find(typ, shardID)
	if !ok {
		return nil, corruptf("shard %d: missing %s", shardID, what)
	}
	payload, err := cf.Payload(s, maxLen)
	if err != nil {
		return nil, wrapCorrupt(err)
	}
	return container.NewDecoder(payload), nil
}

// readImageInfo decodes one shard's image-info section (allocation tail and
// free list) and locates its raw image section.
func readImageInfo(cf *container.File, shardID uint64) (tailBits int64, free []iomodel.BlockID, img container.Section, err error) {
	dec, err := sectionDecoder(cf, container.TypeImageInfo, shardID, 1<<26, "image info")
	if err != nil {
		return 0, nil, img, err
	}
	tailBits = int64(dec.UN(1 << 53))
	nfree := dec.UN(1 << 40)
	free = make([]iomodel.BlockID, 0, min(nfree, 1024))
	for i := uint64(0); i < nfree && dec.Err() == nil; i++ {
		free = append(free, iomodel.BlockID(dec.UN(1<<40)))
	}
	if err := dec.Finish(); err != nil {
		return 0, nil, img, wrapCorrupt(err)
	}
	img, ok := cf.Find(container.TypeImage, shardID)
	if !ok {
		return 0, nil, img, corruptf("shard %d: missing image", shardID)
	}
	if img.Len != (tailBits+7)/8 {
		return 0, nil, img, corruptf("shard %d: image holds %d bytes, tail declares %d", shardID, img.Len, (tailBits+7)/8)
	}
	return tailBits, free, img, nil
}

// openImage reopens one shard's device image as a read-only file-backed
// device with the shard's share of oo.Faults' schedule, when set
// (shard.FaultsFor, as at build). The FileDisk owns the mapping and must be
// closed.
func openImage(f *os.File, cf *container.File, shardID uint64, opts Options, oo OpenOptions) (*iomodel.FileDisk, error) {
	tailBits, free, img, err := readImageInfo(cf, shardID)
	if err != nil {
		return nil, err
	}
	if oo.VerifyImages {
		if err := cf.Verify(img); err != nil {
			return nil, wrapCorrupt(err)
		}
	}
	bk := iomodel.FileBackingConfig{Base: img.Off, TailBits: tailBits, Free: free, Mode: oo.Mode}
	if oo.readerAt != nil {
		bk.Reader = oo.readerAt(f)
	}
	cfg := iomodel.Config{BlockBits: opts.BlockBits, CacheBlocks: oo.CacheBlocks, Faults: shard.FaultsFor(oo.Faults, int(shardID))}
	fdisk, err := iomodel.OpenFileDisk(f, cfg, bk)
	if err != nil {
		// Geometry errors here are data-driven: the sizes came from the file
		// (openFile validated oo.Faults up front).
		return nil, corruptf("shard %d: %v", shardID, err)
	}
	return fdisk, nil
}

func closeDisks(disks []*iomodel.FileDisk) {
	for _, d := range disks {
		d.Close()
	}
}

// openStatic reopens a static (one shard) or sharded container: its shards
// over file-backed devices, assembled into the handle its kind names.
func openStatic(f *os.File, cf *container.File, man manifest, oo OpenOptions) (_ *Opened, err error) {
	if cf.Kind == container.KindStatic && man.shards != 1 {
		return nil, corruptf("static container declares %d shards", man.shards)
	}
	if int64(man.shards) > man.n {
		return nil, corruptf("%d shards over %d rows", man.shards, man.n)
	}
	var disks []*iomodel.FileDisk
	defer func() {
		if err != nil {
			closeDisks(disks)
		}
	}()
	parts := make([]shard.Part, man.shards)
	for i := range parts {
		fdisk, err := openImage(f, cf, uint64(i), man.opts, oo)
		if err != nil {
			return nil, err
		}
		disks = append(disks, fdisk)
		dec, err := sectionDecoder(cf, container.TypeStaticMeta, uint64(i), maxMetaBytes, "static metadata")
		if err != nil {
			return nil, err
		}
		ax, err := core.OpenApprox(fdisk.Disk, man.sigma, man.revision, man.opts.approx(), dec)
		if err == nil {
			err = dec.Finish()
		}
		if err == nil && cf.Kind == container.KindStatic && ax.K() == 0 && ax.Len() > 4 {
			err = fmt.Errorf("no hashed levels over %d rows", ax.Len()) // only shards may store none
		}
		if err != nil {
			return nil, corruptf("shard %d: %v", i, err)
		}
		parts[i] = shard.Part{
			Ax:    ax,
			Disk:  fdisk.Disk,
			Start: int64(i) * man.n / int64(man.shards),
			End:   int64(i+1) * man.n / int64(man.shards),
		}
	}
	sx, err := shard.Assemble(parts, man.n, man.sigma, oo.Workers)
	if err != nil {
		return nil, corruptf("assemble: %v", err)
	}
	o := &Opened{f: f, disks: disks}
	st := static{sx: sx, opts: man.opts, kind: cf.Kind}
	if cf.Kind == container.KindStatic {
		o.Static = &Index{static: st, ax: parts[0].Ax}
	} else {
		o.Sharded = &ShardedIndex{st}
	}
	return o, nil
}

// maxDurableImageBytes bounds the image a durable open materialises into
// memory (the directory-level bound — payload length within the file — was
// already enforced by Parse).
const maxDurableImageBytes = 1 << 32

// openAppend reopens an append container. Read-only, it is served from the
// file through a file-backed device. Writable (OpenOptions.WAL), the device
// image is materialised into a writable in-memory disk, the rebuild mirror
// is reconstituted from the column section, and the write-ahead log's suffix
// beyond the container's watermark is replayed.
func openAppend(f *os.File, cf *container.File, man manifest, oo OpenOptions) (o *Opened, err error) {
	if man.shards != 1 {
		return nil, corruptf("append container declares %d shards", man.shards)
	}
	var (
		d     *iomodel.Disk
		disks []*iomodel.FileDisk
	)
	if oo.WAL == nil {
		var fdisk *iomodel.FileDisk
		if fdisk, err = openImage(f, cf, 0, man.opts, oo); err != nil {
			return nil, err
		}
		d, disks = fdisk.Disk, []*iomodel.FileDisk{fdisk}
		defer func() {
			if err != nil {
				fdisk.Close()
			}
		}()
	} else {
		tailBits, free, img, err := readImageInfo(cf, 0)
		if err != nil {
			return nil, err
		}
		data, err := cf.Payload(img, maxDurableImageBytes) // checksum-verified full read
		if err != nil {
			return nil, wrapCorrupt(err)
		}
		opts := man.opts
		opts.Faults = oo.Faults
		if d, err = opts.device(oo.CacheBlocks, &diskImage{tailBits, data, free}); err != nil {
			return nil, corruptf("device: %v", err)
		}
	}
	dec, err := sectionDecoder(cf, container.TypeAppendMeta, 0, maxMetaBytes, "append metadata")
	if err != nil {
		return nil, err
	}
	ax, err := core.OpenAppendIndex(d, man.sigma, core.AppendOptions{
		Branching: man.opts.Branching, Stride: man.opts.Stride, Buffered: man.opts.Buffered,
	}, dec)
	if err == nil {
		err = dec.Finish()
	}
	if err != nil {
		return nil, corruptf("open append index: %v", err)
	}
	if ax.Len() != man.n {
		return nil, corruptf("index holds %d rows, manifest declares %d", ax.Len(), man.n)
	}
	ix := newAppendIndex(ax, d, man.opts)
	if oo.WAL == nil {
		return &Opened{Append: ix, f: f, disks: disks}, nil
	}
	cdec, err := sectionDecoder(cf, container.TypeColumn, 0, maxMetaBytes,
		"column section a writable reopen needs (written before durability support?)")
	if err != nil {
		return nil, err
	}
	if err = ax.DecodeMirror(cdec); err == nil {
		err = cdec.Finish()
	}
	if err != nil {
		return nil, corruptf("column section: %v", err)
	}
	return openWritable(f, cf, &ix.handle, oo, &Opened{Append: ix, f: f})
}

// openWritable finishes a writable open of h: with OpenOptions.WAL, recover
// the watermark and replay the log suffix; with OpenOptions.Concurrent,
// publish the first epoch, which reflects the recovered state — every
// checkpointed and replayed operation, versioned at the log's watermark (or
// zero without a log, counting applied operations like a built handle).
func openWritable(f *os.File, cf *container.File, h *handle, oo OpenOptions, o *Opened) (*Opened, error) {
	var version uint64
	if oo.WAL != nil {
		appliedSeq, err := readDurableSeq(cf)
		if err != nil {
			return nil, err
		}
		if h.dur, err = openDurable(oo.WAL, f.Name(), cf.Kind, appliedSeq, oo.Concurrent, h.kind); err != nil {
			return nil, err
		}
		o.dur, version = h.dur, h.dur.lastSeq()
	}
	if oo.Concurrent {
		if err := h.goConcurrent(version); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// openDynamic reopens a dynamic container by replaying its logical snapshot
// onto a fresh writable in-memory device — even for read-only opens, so the
// durable path only adds the log.
func openDynamic(f *os.File, cf *container.File, man manifest, oo OpenOptions) (*Opened, error) {
	if man.shards != 1 {
		return nil, corruptf("dynamic container declares %d shards", man.shards)
	}
	dec, err := sectionDecoder(cf, container.TypeDynamicMeta, 0, maxMetaBytes, "dynamic metadata")
	if err != nil {
		return nil, err
	}
	opts := man.opts
	opts.Faults = oo.Faults
	d, err := opts.device(oo.CacheBlocks, nil)
	if err != nil {
		return nil, corruptf("device: %v", err)
	}
	dx, err := core.OpenDynamic(d, man.sigma, core.DynamicOptions{
		Branching: opts.Branching, Stride: opts.Stride,
	}, dec)
	if err == nil {
		err = dec.Finish()
	}
	if err != nil {
		return nil, corruptf("open dynamic index: %v", err)
	}
	if dx.Len() != man.n {
		return nil, corruptf("index holds %d rows, manifest declares %d", dx.Len(), man.n)
	}
	ix := newDynamicIndex(dx, d, opts)
	return openWritable(f, cf, &ix.handle, oo, &Opened{Dynamic: ix, f: f})
}
