package iomodel

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// FileMode selects how a FileDisk serves charged block reads.
type FileMode int

const (
	// ModePread serves each charged read with a positional read (pread) of
	// the block's bytes. The first read of a block populates the in-memory
	// mirror; later charged reads of the same block still pread — into
	// discarded scratch — so the number of real positional reads equals the
	// device's charged read count by construction.
	ModePread FileMode = iota
	// ModeMmap maps the file and serves reads straight from the mapping.
	// Charged reads are counted but issue no explicit syscall; the kernel's
	// page cache stands in for the block transfer.
	ModeMmap
)

// FileBackingConfig locates a device image inside a real file.
type FileBackingConfig struct {
	// Base is the byte offset of the image within the file. For block reads
	// to be aligned preads, Base should itself be block-aligned (the v2
	// container guarantees this for image sections).
	Base int64
	// TailBits is the device's allocated size in bits, as reported by
	// Disk.Image at serialisation time; the image spans ⌈TailBits/8⌉ bytes
	// starting at Base.
	TailBits int64
	// Free is the device's free list at serialisation time.
	Free []BlockID
	// Mode selects pread or mmap service.
	Mode FileMode
	// Reader, when non-nil, overrides the pread source — the instrumentation
	// hook the read-count differential tests use to count and inspect real
	// positional reads. Pread mode only; offsets passed to it are absolute
	// file offsets (Base included).
	Reader io.ReaderAt
}

// FileDisk is a read-only Disk whose storage is a region of a real file. The
// embedded Disk is what index code runs on, so the same query code that runs
// against the simulated device runs against it; every charged read in the
// Aggarwal–Vitter accounting corresponds to a real positional read of that
// block (pread mode) or a mapped access (mmap mode). It is configured
// exactly like a plain Disk: Config.Faults gives it a fault schedule
// (injected failures fire before the real read, transferring nothing), and
// Config.CacheBlocks the striped LRU cache (cache-resident reads are
// charge-free and therefore pread-free).
//
// The device is read-only: Touch.WriteBits and Touch.WriteStream return
// ErrReadOnly, and the allocation methods panic with it — query paths never
// allocate, so a panic there is a programming error, not an input error.
type FileDisk struct {
	*Disk
}

// fileBacking is the real-file service behind a file-backed Disk.
type fileBacking struct {
	r          io.ReaderAt // pread source; nil in mmap mode
	base       int64       // byte offset of the image within the file
	size       int64       // image length in bytes: ⌈tailBits/8⌉
	blockBytes int
	mode       FileMode
	mapped     []byte // whole-prefix mapping (mmap mode), kept for munmap

	reads atomic.Int64 // successful real block reads
	// populated marks blocks whose bytes have been copied into the mirror.
	// The Store is the release paired with the Load in later sessions: a
	// reader that observes true also observes the copied bytes.
	populated []atomic.Bool
	mu        [64]sync.Mutex // striped first-population locks
	scratch   sync.Pool      // per-block discard buffers for re-reads
}

// OpenFileDisk opens a read-only device over the image region of f described
// by bk. The file handle remains owned by the caller and must stay open (and
// unmodified) for the life of the device; Close releases the mmap mapping
// but never closes f.
func OpenFileDisk(f *os.File, cfg Config, bk FileBackingConfig) (*FileDisk, error) {
	d, err := NewDiskChecked(cfg)
	if err != nil {
		return nil, err
	}
	if bk.Base < 0 || bk.TailBits < 0 {
		return nil, fmt.Errorf("iomodel: negative file-backing geometry (base=%d, tailBits=%d)", bk.Base, bk.TailBits)
	}
	bb := d.cfg.BlockBits
	size := (bk.TailBits + 7) / 8
	nblocks := (bk.TailBits + int64(bb) - 1) / int64(bb)
	if f != nil {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if bk.Base+size > st.Size() {
			return nil, fmt.Errorf("iomodel: image [%d,%d) exceeds file size %d", bk.Base, bk.Base+size, st.Size())
		}
	}
	for _, id := range bk.Free {
		if id < 0 || int64(id) >= nblocks {
			return nil, fmt.Errorf("iomodel: free-list block %d outside device of %d blocks", id, nblocks)
		}
	}
	fb := &fileBacking{
		base:       bk.Base,
		size:       size,
		blockBytes: bb / 8,
		mode:       bk.Mode,
		populated:  make([]atomic.Bool, nblocks),
	}
	fb.scratch.New = func() any {
		buf := make([]byte, fb.blockBytes)
		return &buf
	}
	switch bk.Mode {
	case ModePread:
		fb.r = bk.Reader
		if fb.r == nil {
			if f == nil {
				return nil, fmt.Errorf("iomodel: pread mode needs a file or a Reader")
			}
			fb.r = f
		}
		d.buf = make([]byte, size)
	case ModeMmap:
		if bk.Reader != nil {
			return nil, fmt.Errorf("iomodel: Reader override is pread-mode only")
		}
		if f == nil {
			return nil, fmt.Errorf("iomodel: mmap mode needs a file")
		}
		if size > 0 {
			m, err := mmapFile(f, bk.Base+size)
			if err != nil {
				return nil, fmt.Errorf("iomodel: mmap: %w", err)
			}
			fb.mapped = m
			d.buf = m[bk.Base : bk.Base+size]
		}
	default:
		return nil, fmt.Errorf("iomodel: unknown file mode %d", bk.Mode)
	}
	d.tailBits = bk.TailBits
	d.free = append([]BlockID(nil), bk.Free...)
	d.freed = int64(len(bk.Free))
	d.file = fb
	return &FileDisk{Disk: d}, nil
}

// DeviceReads returns the number of successful real block reads the device
// has issued since it was opened or last had its stats reset: preads in
// pread mode, charged mapped accesses in mmap mode. Under the accounting
// invariant this equals Stats().BlockReads.
func (fd *FileDisk) DeviceReads() int64 { return fd.Disk.file.reads.Load() }

// Close releases the mmap mapping, if any. The caller's file handle is not
// closed. The device must not be used afterwards.
func (fd *FileDisk) Close() error {
	fb := fd.Disk.file
	if fb.mapped != nil {
		m := fb.mapped
		fb.mapped = nil
		fd.Disk.buf = nil
		return munmapFile(m)
	}
	return nil
}

// load services one charged block read from the backing file. Called from
// markRead after the fault consult and before the charge: an error here
// aborts the access like an injected permanent fault, and no charge is paid
// for a read that transferred nothing.
func (fb *fileBacking) load(d *Disk, b BlockID) error {
	if fb.mode == ModeMmap {
		fb.reads.Add(1)
		return nil
	}
	off := int64(b) * int64(fb.blockBytes)
	end := off + int64(fb.blockBytes)
	if end > fb.size {
		end = fb.size // the image's last block may be partial on disk
	}
	n := int(end - off)
	if fb.populated[b].Load() {
		return fb.reread(off, n)
	}
	mu := &fb.mu[uint64(b)%uint64(len(fb.mu))]
	mu.Lock()
	defer mu.Unlock()
	if fb.populated[b].Load() {
		// Another session populated the block while we waited; ours is still
		// a distinct charged read, so it still preads.
		return fb.reread(off, n)
	}
	if _, err := fb.r.ReadAt(d.buf[off:end], fb.base+off); err != nil {
		return err
	}
	fb.populated[b].Store(true)
	fb.reads.Add(1)
	return nil
}

// reread issues the positional read for a block already mirrored, into
// scratch that is discarded: the bytes are known, but the charge is real, so
// the device read must be too.
func (fb *fileBacking) reread(off int64, n int) error {
	buf := fb.scratch.Get().(*[]byte)
	_, err := fb.r.ReadAt((*buf)[:n], fb.base+off)
	fb.scratch.Put(buf)
	if err != nil {
		return err
	}
	fb.reads.Add(1)
	return nil
}
