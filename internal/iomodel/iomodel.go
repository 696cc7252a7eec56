// Package iomodel simulates the external-memory (I/O) model of Aggarwal and
// Vitter [1] that the paper analyses its structures in: storage is an array
// of blocks of B bits, and the cost of an operation is the number of memory
// blocks read and written ("we count block I/Os and not merely the amount of
// data read").
//
// A Disk stores data at bit granularity so that concatenated compressed
// bitmaps can share blocks exactly as the paper's static layouts require.
// Static data is placed with AllocStream; dynamic structures own whole
// blocks obtained from AllocBlock (with a free list, so rebuilds recycle
// space). Every logical operation on an index opens a Touch session; the
// session records the set of distinct blocks read and written, which is the
// operation's I/O cost.
//
// Substitution note (see DESIGN.md): the paper's experiments would run on a
// physical disk; we instead count block transfers exactly. The theorems bound
// exactly this count, so the simulated device is the most direct way to
// check them, and it is deterministic (no GC or device noise).
package iomodel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitio"
)

// DefaultBlockBits is a typical block size: 4 KiB = 32768 bits.
const DefaultBlockBits = 32768

// Config describes the simulated device.
type Config struct {
	// BlockBits is the block size B in bits. The paper assumes B >= lg n.
	BlockBits int
	// CacheBlocks enables an LRU buffer pool of that many blocks in front of
	// the device: reading a resident block costs no I/O, and Stats reports
	// hits and misses. Zero disables caching, the paper's bare cost model,
	// where every distinct block an operation touches is one I/O.
	CacheBlocks int
	// Faults, when non-nil, gives the device a seeded fault schedule (see
	// FaultConfig). It starts disarmed: nothing faults until ArmFaults.
	Faults *FaultConfig
}

// Stats accumulates global device counters. Counter updates are atomic so
// concurrent read-only sessions (parallel queries against a static index)
// are safe; allocation and writes require external coordination.
type Stats struct {
	BlockReads  atomic.Int64 // distinct block reads summed over all sessions
	BlockWrites atomic.Int64 // distinct block writes summed over all sessions
	Sessions    atomic.Int64
	CacheHits   atomic.Int64 // reads served by the block cache (no I/O)
	CacheMisses atomic.Int64 // cache-enabled reads that went to the device
	// SharedSaved counts block reads avoided by shared-scan batch sessions:
	// blocks that several consumers of one Touch needed but that the session
	// read (and charged) only once (see Touch.StartConsumer). Unlike
	// CacheHits it measures sharing within one batch, not residency across
	// operations.
	SharedSaved atomic.Int64
	// FailedReads counts device read attempts that failed (an injected fault
	// or a file-backed device's real read error; a plain Disk never fails).
	// Failed attempts are not counted in BlockReads.
	FailedReads atomic.Int64
	// FailedWrites counts write calls aborted by an injected write fault.
	// Blocks the call applied before the fault are still counted in
	// BlockWrites — an injected short write is torn, not rolled back.
	FailedWrites atomic.Int64
}

// StatsSnapshot is a plain-value copy of the counters.
type StatsSnapshot struct {
	BlockReads   int64
	BlockWrites  int64
	Sessions     int64
	CacheHits    int64
	CacheMisses  int64
	SharedSaved  int64
	FailedReads  int64
	FailedWrites int64
}

// Extent identifies a bit range on the disk.
type Extent struct {
	Off  int64 // first bit
	Bits int64 // length in bits
}

// End returns the bit position one past the extent.
func (e Extent) End() int64 { return e.Off + e.Bits }

// BlockID identifies a whole block.
type BlockID int64

// Disk is the simulated block device.
type Disk struct {
	cfg      Config
	buf      []byte
	tailBits int64
	free     []BlockID
	freed    int64 // number of blocks currently on the free list
	stats    Stats
	cache    *blockCache // nil unless Config.CacheBlocks > 0
	// file, when non-nil, backs the device with a region of a real file: buf
	// becomes a block mirror (or mmap window) populated on first charged read,
	// and the device is read-only. See FileDisk.
	file *fileBacking
	// frozen marks an immutable device: a point-in-time view produced by
	// Freeze, or a device sealed in place by Seal. A frozen device rejects
	// allocation and writes exactly like a file-backed one, so any number of
	// readers can share it without coordination.
	frozen bool
	// cowPending is set on the live device by Freeze: the next mutation must
	// first clone buf (copy-on-write) so outstanding frozen views keep the
	// bytes they captured. Only the writer mutates, so no lock is needed.
	cowPending bool
	// faults is the seeded fault schedule from Config.Faults, nil without
	// one. Freeze views share it, armed state included.
	faults *faultSched
	// touches recycles Touch sessions: the per-session block sets are maps,
	// and clearing them on Close is far cheaper than reallocating them for
	// every query in the steady-state pooled pipeline.
	touches sync.Pool
}

// ErrInvalidRange reports an out-of-bounds disk access.
var ErrInvalidRange = errors.New("iomodel: access outside allocated storage")

// ErrReadOnly reports a write or allocation on a file-backed or frozen
// device. A FileDisk serves a frozen on-disk image; mutating it would
// desynchronise the mirror from the file.
var ErrReadOnly = errors.New("iomodel: device is read-only")

// maxBlockBits bounds BlockBits so derived quantities (block offsets) cannot
// overflow int64 arithmetic even on hostile configurations decoded from
// untrusted serialized headers.
const maxBlockBits = 1 << 31

// Validate reports whether the configuration is acceptable to
// NewDiskChecked. A zero BlockBits is valid (the default is substituted);
// anything else must be in range.
func (cfg Config) Validate() error {
	if cfg.BlockBits != 0 && (cfg.BlockBits < 0 || cfg.BlockBits%8 != 0) {
		return fmt.Errorf("iomodel: BlockBits %d must be a positive multiple of 8", cfg.BlockBits)
	}
	if cfg.BlockBits > maxBlockBits {
		return fmt.Errorf("iomodel: BlockBits %d exceeds maximum %d", cfg.BlockBits, maxBlockBits)
	}
	if cfg.CacheBlocks < 0 {
		return fmt.Errorf("iomodel: CacheBlocks %d must not be negative", cfg.CacheBlocks)
	}
	if cfg.Faults != nil {
		return cfg.Faults.Validate()
	}
	return nil
}

// NewDiskChecked returns a Disk with the given configuration, or an error if
// the configuration is invalid. A zero BlockBits selects DefaultBlockBits;
// BlockBits must be a positive multiple of 8 so blocks are byte-addressable.
func NewDiskChecked(cfg Config) (*Disk, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.BlockBits == 0 {
		cfg.BlockBits = DefaultBlockBits
	}
	d := &Disk{cfg: cfg}
	if cfg.CacheBlocks > 0 {
		d.cache = newBlockCache(cfg.CacheBlocks)
	}
	if cfg.Faults != nil {
		d.faults = newFaultSched(*cfg.Faults)
	}
	return d, nil
}

// NewDisk is NewDiskChecked for known-good configurations (tests, harness
// code); it panics on an invalid one. Callers holding untrusted
// configurations must use NewDiskChecked.
func NewDisk(cfg Config) *Disk {
	d, err := NewDiskChecked(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// NewDiskFromImage reconstitutes a writable in-memory device from a
// serialised image — the inverse of Image and FreeList. It is how a durable
// handle reopens an append index for further writes: the frozen file image
// becomes live storage again, bit-identical to the device that produced it,
// so rebuilds and appends continue exactly where the original left off. The
// inputs are untrusted (they come from a file): geometry, image size and the
// free list are validated, never trusted.
func NewDiskFromImage(cfg Config, tailBits int64, data []byte, free []BlockID) (*Disk, error) {
	d, err := NewDiskChecked(cfg)
	if err != nil {
		return nil, err
	}
	if tailBits <= 0 || (tailBits+7)/8 != int64(len(data)) {
		return nil, fmt.Errorf("iomodel: image holds %d bytes, tail declares %d bits", len(data), tailBits)
	}
	bb := int64(d.cfg.BlockBits)
	seen := make(map[BlockID]struct{}, len(free))
	for _, id := range free {
		// A free block must lie whole inside the allocated range (AllocBlock
		// zeroes all of it on reuse): id+1 blocks must fit under the tail.
		if id < 0 || int64(id) >= tailBits/bb {
			return nil, fmt.Errorf("iomodel: free block %d outside %d allocated bits", id, tailBits)
		}
		if _, dup := seen[id]; dup {
			return nil, fmt.Errorf("iomodel: free block %d listed twice", id)
		}
		seen[id] = struct{}{}
	}
	d.buf = append(make([]byte, 0, len(data)), data...)
	d.tailBits = tailBits
	d.free = append([]BlockID(nil), free...)
	d.freed = int64(len(free))
	return d, nil
}

// BlockBits returns the block size B in bits.
func (d *Disk) BlockBits() int { return d.cfg.BlockBits }

// Stats returns a copy of the cumulative device counters.
func (d *Disk) Stats() StatsSnapshot {
	return StatsSnapshot{
		BlockReads:   d.stats.BlockReads.Load(),
		BlockWrites:  d.stats.BlockWrites.Load(),
		Sessions:     d.stats.Sessions.Load(),
		CacheHits:    d.stats.CacheHits.Load(),
		CacheMisses:  d.stats.CacheMisses.Load(),
		SharedSaved:  d.stats.SharedSaved.Load(),
		FailedReads:  d.stats.FailedReads.Load(),
		FailedWrites: d.stats.FailedWrites.Load(),
	}
}

// ResetStats zeroes the cumulative counters (allocation state is kept),
// including a file-backed device's real-read count (FileDisk.DeviceReads).
func (d *Disk) ResetStats() {
	if d.file != nil {
		d.file.reads.Store(0)
	}
	d.stats.BlockReads.Store(0)
	d.stats.BlockWrites.Store(0)
	d.stats.Sessions.Store(0)
	d.stats.CacheHits.Store(0)
	d.stats.CacheMisses.Store(0)
	d.stats.SharedSaved.Store(0)
	d.stats.FailedReads.Store(0)
	d.stats.FailedWrites.Store(0)
}

// CachedBlocks returns the number of blocks currently resident in the cache
// (0 when caching is disabled).
func (d *Disk) CachedBlocks() int {
	if d.cache == nil {
		return 0
	}
	return d.cache.Len()
}

// CacheBytes returns the capacity of the block cache in bytes (0 when caching
// is disabled).
func (d *Disk) CacheBytes() int64 { return int64(d.cfg.CacheBlocks) * int64(d.cfg.BlockBits/8) }

// AllocatedBits returns the total bits ever placed on the device, including
// blocks currently on the free list.
func (d *Disk) AllocatedBits() int64 { return d.tailBits }

// UsedBits returns allocated bits minus freed blocks. This is the space
// usage reported by the experiments.
func (d *Disk) UsedBits() int64 { return d.tailBits - d.freed*int64(d.cfg.BlockBits) }

// Image returns the device's allocated size in bits and its raw backing
// bytes, exactly ⌈tailBits/8⌉ of them. The slice aliases live storage:
// callers serialising the device must finish with it (or copy) before any
// further allocation or write.
func (d *Disk) Image() (tailBits int64, data []byte) {
	d.ensure(d.tailBits)
	return d.tailBits, d.buf[:(d.tailBits+7)/8]
}

// FreeList returns a copy of the device's free list, for serialisation.
func (d *Disk) FreeList() []BlockID {
	return append([]BlockID(nil), d.free...)
}

// FileBacked reports whether the device serves a read-only file image.
func (d *Disk) FileBacked() bool { return d.file != nil }

// Frozen reports whether the device is immutable: a Freeze view or a sealed
// device (Seal). A file-backed device is read-only but not Frozen.
func (d *Disk) Frozen() bool { return d.frozen }

// Seal makes the device immutable in place once its owner has finished
// writing it: from then on it rejects allocation and writes as a Freeze view
// does, and keeps its cache, stats and fault schedule, since nothing is
// copied. Every session on a sealed device can be Stable, so a static index
// built on it validates each member once. A no-op on a file-backed device,
// which is read-only already. Like Freeze, Seal must not race with writes.
func (d *Disk) Seal() {
	if d.file != nil {
		return
	}
	d.ensure(d.tailBits)
	d.frozen = true
}

// Freeze returns an immutable point-in-time view of the device: a read-only
// Disk sharing the current backing bytes. The view keeps exactly the bits
// allocated at the call; it has its own Stats and session pool, so reads
// against it never perturb the live device's counters, and it shares the
// live device's fault schedule, so its reads draw the same per-block fates.
// The live device stays writable — its first mutation after a Freeze clones
// the backing array (copy-on-write), so views are stable no matter what the
// writer does next, including freeing and reusing blocks. Freeze is a
// writer-side operation: like allocation, it must not race with writes.
// Panics with ErrReadOnly on a file-backed device (freeze the in-memory
// mirror's owner instead).
func (d *Disk) Freeze() *Disk {
	if d.file != nil {
		panic(ErrReadOnly)
	}
	d.ensure(d.tailBits)
	n := (d.tailBits + 7) / 8
	v := &Disk{
		cfg:      d.cfg,
		buf:      d.buf[:n:n],
		tailBits: d.tailBits,
		frozen:   true,
		faults:   d.faults,
	}
	d.cowPending = true
	return v
}

// prepWrite makes the backing array private to the live device before a
// mutation: if a Freeze view may still share it, the bytes are cloned first.
// Every buf-mutating path (AllocStream, AllocBlock, Touch.WriteBits,
// Touch.WriteStream) calls this; grow-only paths need not, because ensure's
// appended bytes lie beyond every view's captured range.
func (d *Disk) prepWrite() {
	if !d.cowPending {
		return
	}
	d.cowPending = false
	d.buf = append(make([]byte, 0, len(d.buf)+len(d.buf)/2), d.buf...)
}

func (d *Disk) ensure(bits int64) {
	need := int((bits + 7) / 8)
	for len(d.buf) < need {
		d.buf = append(d.buf, make([]byte, need-len(d.buf))...)
	}
}

// putBits writes the low n bits of v at absolute bit position pos,
// overwriting whatever is there. Storage must already cover the range.
func (d *Disk) putBits(pos int64, v uint64, n int) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	if n == 64 && pos&7 == 0 {
		binary.BigEndian.PutUint64(d.buf[pos>>3:], v)
		return
	}
	for n > 0 {
		byteIdx := pos >> 3
		bitIdx := int(pos & 7)
		room := 8 - bitIdx
		take := n
		if take > room {
			take = room
		}
		chunk := byte(v>>uint(n-take)) & (1<<uint(take) - 1)
		shift := uint(room - take)
		mask := byte(1<<uint(take)-1) << shift
		d.buf[byteIdx] = d.buf[byteIdx]&^mask | chunk<<shift
		pos += int64(take)
		n -= take
	}
}

// getBits reads n bits at absolute bit position pos.
func (d *Disk) getBits(pos int64, n int) uint64 {
	if n == 64 && pos&7 == 0 {
		return binary.BigEndian.Uint64(d.buf[pos>>3:])
	}
	var v uint64
	for n > 0 {
		byteIdx := pos >> 3
		bitIdx := int(pos & 7)
		room := 8 - bitIdx
		take := n
		if take > room {
			take = room
		}
		chunk := d.buf[byteIdx] >> uint(room-take) & (1<<uint(take) - 1)
		v = v<<uint(take) | uint64(chunk)
		pos += int64(take)
		n -= take
	}
	return v
}

// AllocStream appends the contents of w to the device with no alignment and
// returns the extent. Adjacent AllocStream calls share blocks, which is how
// the paper's concatenated per-level bitmap layouts are realised. Panics with
// ErrReadOnly on a file-backed device (reopened indexes never allocate).
func (d *Disk) AllocStream(w *bitio.Writer) Extent {
	if d.file != nil || d.frozen {
		panic(ErrReadOnly)
	}
	d.prepWrite()
	ext := Extent{Off: d.tailBits, Bits: int64(w.Len())}
	d.ensure(d.tailBits + ext.Bits)
	d.putStream(ext.Off, bitio.NewReader(w.Bytes(), w.Len()))
	d.tailBits += ext.Bits
	return ext
}

// putStream overwrites the bits at pos with everything left in r: a short
// write up to the next byte boundary, whole bytes a word at a time
// (bitio.Reader.ReadBytes), then the tail. Storage must cover the range.
func (d *Disk) putStream(pos int64, r *bitio.Reader) {
	if head := int(-pos & 7); head != 0 {
		head = min(head, r.Remaining())
		v, _ := r.ReadBits(head)
		d.putBits(pos, v, head)
		pos += int64(head)
	}
	nbytes := int64(r.Remaining() >> 3)
	r.ReadBytes(d.buf[pos>>3 : pos>>3+nbytes])
	pos += nbytes << 3
	rem := r.Remaining()
	v, _ := r.ReadBits(rem)
	d.putBits(pos, v, rem)
}

// Reserve makes room for bits further bits past the allocation tail, so a
// build that knows its streams' lengths grows the image once.
func (d *Disk) Reserve(bits int64) {
	d.buf = slices.Grow(d.buf, max(int((d.tailBits+bits+7)/8)-len(d.buf), 0))
}

// AlignToBlock pads the allocation tail to a block boundary. Panics with
// ErrReadOnly on a file-backed device.
func (d *Disk) AlignToBlock() {
	if d.file != nil || d.frozen {
		panic(ErrReadOnly)
	}
	bb := int64(d.cfg.BlockBits)
	if rem := d.tailBits % bb; rem != 0 {
		d.tailBits += bb - rem
		d.ensure(d.tailBits)
	}
}

// AllocBlock returns a zeroed whole block, reusing freed blocks if possible.
// Panics with ErrReadOnly on a file-backed device.
func (d *Disk) AllocBlock() BlockID {
	if d.file != nil || d.frozen {
		panic(ErrReadOnly)
	}
	d.prepWrite()
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		d.freed--
		// Zero the reused block.
		off := int64(id) * int64(d.cfg.BlockBits)
		for i := 0; i < d.cfg.BlockBits; i += 64 {
			d.putBits(off+int64(i), 0, 64)
		}
		return id
	}
	d.AlignToBlock()
	id := BlockID(d.tailBits / int64(d.cfg.BlockBits))
	d.tailBits += int64(d.cfg.BlockBits)
	d.ensure(d.tailBits)
	return id
}

// FreeBlock returns a block to the free list. Panics with ErrReadOnly on a
// file-backed device.
func (d *Disk) FreeBlock(id BlockID) {
	if d.file != nil || d.frozen {
		panic(ErrReadOnly)
	}
	d.free = append(d.free, id)
	d.freed++
	if d.cache != nil {
		d.cache.drop(id) // a freed block loses residency
	}
}

// BlockOff returns the absolute bit offset of a block.
func (d *Disk) BlockOff(id BlockID) int64 { return int64(id) * int64(d.cfg.BlockBits) }

// BlockExtent is the whole of block id: a single-block WriteStream into it
// fails on a stream that outgrows the block instead of spilling over.
func (d *Disk) BlockExtent(id BlockID) Extent {
	return Extent{Off: d.BlockOff(id), Bits: int64(d.cfg.BlockBits)}
}

// Peek returns a reader over ext's bits, positioned at ext.Off and bounded
// at ext.End(), read outside any session: nothing is charged, cached or
// fault-checked. A file-backed device loads the blocks from its file,
// counted in DeviceReads until the next ResetStats. Opening an index reads
// what it keeps in memory this way, then resets. The reader shares the
// device's bytes: use it before the next write.
func (d *Disk) Peek(ext Extent) (*bitio.Reader, error) {
	if ext.Off < 0 || ext.Bits < 0 || ext.End() > d.tailBits {
		return nil, ErrInvalidRange
	}
	if fb := d.file; fb != nil && ext.Bits > 0 {
		for b := d.blockOf(ext.Off); b <= d.blockOf(ext.End()-1); b++ {
			if err := fb.load(d, b); err != nil {
				return nil, err
			}
		}
	}
	r := bitio.NewReader(d.buf[:(ext.End()+7)/8], int(ext.End()))
	if err := r.Seek(int(ext.Off)); err != nil {
		return nil, err
	}
	return r, nil
}

// blockOf returns the block containing bit position pos.
func (d *Disk) blockOf(pos int64) BlockID { return BlockID(pos / int64(d.cfg.BlockBits)) }

// Touch is an I/O accounting session for one logical operation. Distinct
// blocks read (written) during the session cost one read (write) I/O each,
// no matter how many times they are accessed: the paper's model holds the
// blocks an operation works on in internal memory for the operation's
// duration.
//
// A shared-scan batch is one session too, charging each distinct block once
// for the whole batch, that also attributes blocks to per-query consumers
// (StartConsumer) so the sharing win is measurable (SharedSaved). A session
// is used by one goroutine; only the device counters it feeds are shared.
type Touch struct {
	d      *Disk
	reads  map[BlockID]struct{}
	writes map[BlockID]struct{}
	// charged counts the reads that actually hit the device: with a block
	// cache, reads of resident blocks are free, so charged <= len(reads).
	charged int
	// failed counts this session's failed read attempts, failedW its failed
	// write attempts; corrupt is per-call scratch listing blocks whose data
	// the device's fault schedule silently flips, and flipped records that
	// some call of the session served such data.
	failed  int
	failedW int
	corrupt []BlockID
	flipped bool
	// consumers[q] holds the distinct blocks attributed to consumer q —
	// exactly the blocks query q's own session would have read; ncons are
	// in use, and cur (-1: none) receives attribution. noted is their union,
	// perConsumer the sum of their sizes. The sets keep their buckets across
	// pooled sessions, so a steady-state batch reuses its bookkeeping.
	consumers   []map[BlockID]struct{}
	ncons       int
	cur         int
	noted       map[BlockID]struct{}
	perConsumer int
}

// NewTouch opens an accounting session, reusing a Closed one when available.
func (d *Disk) NewTouch() *Touch {
	d.stats.Sessions.Add(1)
	if t, ok := d.touches.Get().(*Touch); ok {
		return t
	}
	return &Touch{d: d, reads: make(map[BlockID]struct{}), writes: make(map[BlockID]struct{}), cur: -1}
}

// The pool bounds: a rebuild that touched thousands of blocks, or a huge
// batch, leaves maps whose bucket arrays never shrink, and clearing them
// would then dominate every later session that drew the pooled Touch, so
// Close replaces oversized block sets and attribution instead. Every
// consumer set is a subset of noted, so bounding noted bounds them all.
const (
	touchPoolMaxBlocks = 256
	batchPoolMaxBlocks = 512
)

// Close publishes the session's shared-scan savings to the device's Stats
// and returns the session to the disk for reuse by a later NewTouch. The
// Touch must not be used afterwards; sessions that skip Close are simply
// garbage collected (and publish nothing). Read the session's counters
// before closing.
func (t *Touch) Close() {
	if saved := t.SharedSaved(); saved != 0 {
		t.d.stats.SharedSaved.Add(int64(saved))
	}
	if len(t.reads)+len(t.writes) > touchPoolMaxBlocks {
		t.reads, t.writes = make(map[BlockID]struct{}), make(map[BlockID]struct{})
	} else {
		clear(t.reads)
		clear(t.writes)
	}
	if len(t.noted) > batchPoolMaxBlocks || len(t.consumers) > batchPoolMaxBlocks {
		t.consumers, t.noted = nil, nil
	} else {
		clear(t.noted)
		for _, set := range t.consumers[:t.ncons] {
			clear(set)
		}
	}
	t.charged, t.failed, t.failedW, t.flipped = 0, 0, 0, false
	t.corrupt = t.corrupt[:0]
	t.ncons, t.cur, t.perConsumer = 0, -1, 0
	t.d.touches.Put(t)
}

// StartConsumer directs subsequent attribution at consumer q (0-based): from
// now on ReadBits and NoteExtent credit the blocks they span to q, and
// SharedSaved counts the blocks several consumers share. Consumers may be
// revisited: whatever is attributed to q lands in the one per-query block
// set, so the saved count stays exact.
func (t *Touch) StartConsumer(q int) {
	for len(t.consumers) <= q {
		t.consumers = append(t.consumers, nil)
	}
	if t.consumers[q] == nil {
		t.consumers[q] = make(map[BlockID]struct{})
	}
	if t.noted == nil {
		t.noted = make(map[BlockID]struct{})
	}
	t.ncons = max(t.ncons, q+1)
	t.cur = q
}

// note attributes the blocks [from,to] to the current consumer, if any.
func (t *Touch) note(from, to BlockID) {
	if t.cur < 0 {
		return
	}
	set := t.consumers[t.cur]
	for b := from; b <= to; b++ {
		if _, ok := set[b]; ok {
			continue
		}
		set[b] = struct{}{}
		t.perConsumer++
		t.noted[b] = struct{}{}
	}
}

// NoteExtent attributes ext's blocks to the current consumer without reading
// anything: the bits were already materialised by a ReaderInto covering ext.
// ReaderInto itself attributes nothing, since a coalesced extent serves
// several consumers, each of which claims its own sub-extent here.
func (t *Touch) NoteExtent(ext Extent) {
	if ext.Bits == 0 {
		return
	}
	t.note(t.d.blockOf(ext.Off), t.d.blockOf(ext.End()-1))
}

// SharedSaved returns the block reads the session avoided versus running
// every consumer in its own session: the sum over consumers of their
// distinct blocks minus the distinct blocks overall (0 without consumers).
// It is independent of the block cache: a cache hit is a block resident
// from an earlier operation, a shared read one session reading a block once
// for several of its own consumers, and Stats reports the two separately.
func (t *Touch) SharedSaved() int { return t.perConsumer - len(t.noted) }

// Reads returns the number of block reads this session paid for: distinct
// blocks read, minus reads served by the block cache when one is configured.
func (t *Touch) Reads() int { return t.charged }

// Writes returns the number of distinct blocks written in this session.
func (t *Touch) Writes() int { return len(t.writes) }

// FailedReads returns the number of device read attempts that failed during
// this session (always 0 on a plain Disk).
func (t *Touch) FailedReads() int { return t.failed }

// FailedWrites returns the number of write attempts that failed during this
// session (always 0 on a plain Disk).
func (t *Touch) FailedWrites() int { return t.failedW }

// Stable reports whether every bit this session has served is the device's
// stable bit: the device cannot be written (a file image, whose served bits
// never change, a Freeze view or a sealed device) and no read of the session
// has had a bit flipped by the fault schedule. Bits validated in a stable
// session may be taken on faith by a later session that is stable too; a
// writable Disk is never stable, since a write may change bits already
// validated.
func (t *Touch) Stable() bool { return (t.d.file != nil || t.d.frozen) && !t.flipped }

// markRead charges the device reads for blocks [from,to]. With a fault
// schedule attached and faulty set, each charged read consults the schedule
// before it is paid for: an injected failure aborts the call (the block is
// neither charged, recorded in the session, nor inserted into the cache, so
// a retry attempts the device again), and silently corrupting blocks are
// collected into the returned slice (valid until the next markRead) for the
// caller to flip bits in the data it hands back. Write-path charges pass
// faulty=false: the fault model only fails reads.
func (t *Touch) markRead(from, to BlockID, faulty bool) ([]BlockID, error) {
	fs := t.d.faults
	t.corrupt = t.corrupt[:0]
	for b := from; b <= to; b++ {
		if _, ok := t.reads[b]; ok {
			continue // session-resident: already charged (or cache-hit)
		}
		if c := t.d.cache; c != nil && c.peek(b) {
			t.reads[b] = struct{}{}
			t.d.stats.CacheHits.Add(1)
			continue // cache-resident: no device read, so no fault
		}
		if fs != nil && faulty {
			cor, err := fs.onRead(b, &t.d.stats)
			if err != nil {
				t.failed++
				return nil, err
			}
			if cor {
				t.corrupt = append(t.corrupt, b)
			}
		}
		// File-backed devices serve every charged read with a real positional
		// read: the first read of a block populates the in-memory mirror, and
		// later charged reads of the same block still pread (into discarded
		// scratch) so the device's real I/O count equals its charged count by
		// construction. The load sits after the fault consult — a failed read
		// transfers nothing — and before the charge, so a real read error
		// aborts the access exactly like an injected permanent fault.
		if fb := t.d.file; fb != nil {
			if err := fb.load(t.d, b); err != nil {
				t.failed++
				t.d.stats.FailedReads.Add(1)
				return nil, err
			}
		}
		t.reads[b] = struct{}{}
		if c := t.d.cache; c != nil {
			t.d.stats.CacheMisses.Add(1)
			c.note(b)
		}
		t.charged++
		t.d.stats.BlockReads.Add(1)
	}
	return t.corrupt, nil
}

// faultWrite consults the write-fault schedule for a write covering blocks
// [from,to] over bit span [pos,end). It returns how many leading bits of the
// span must still be applied — the torn prefix — and the injected error; a
// clean write returns (end-pos, nil). Blocks are consulted in span order up
// to the first faulty one: a writeFail fate tears the write at that block's
// start, writeShort at its end.
func (t *Touch) faultWrite(from, to BlockID, pos, end int64) (int64, error) {
	fs := t.d.faults
	if fs == nil || !fs.armed.Load() {
		return end - pos, nil
	}
	for b := from; b <= to; b++ {
		fate := fs.onWrite(b)
		if fate == writeOK {
			continue
		}
		limit := t.d.BlockOff(b)
		if fate == writeShort {
			limit += int64(t.d.cfg.BlockBits)
		}
		limit = min(max(limit, pos), end)
		t.failedW++
		t.d.stats.FailedWrites.Add(1)
		return limit - pos, fmt.Errorf("iomodel: block %d: %w", b, ErrFailedWrite)
	}
	return end - pos, nil
}

func (t *Touch) markWrite(from, to BlockID) {
	for b := from; b <= to; b++ {
		if _, ok := t.writes[b]; !ok {
			t.writes[b] = struct{}{}
			t.d.stats.BlockWrites.Add(1)
			if c := t.d.cache; c != nil {
				c.note(b) // a written block is resident afterwards
			}
		}
	}
}

// ReadBits reads n bits (n <= 64) at bit position pos, charging I/Os and
// attributing the spanned blocks to the current consumer, if any.
func (t *Touch) ReadBits(pos int64, n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("iomodel: ReadBits width %d out of range", n)
	}
	if pos < 0 || pos+int64(n) > t.d.tailBits {
		return 0, ErrInvalidRange
	}
	if n == 0 {
		return 0, nil
	}
	from, to := t.d.blockOf(pos), t.d.blockOf(pos+int64(n)-1)
	corrupt, err := t.markRead(from, to, true)
	if err != nil {
		return 0, err
	}
	t.note(from, to)
	v := t.d.getBits(pos, n)
	t.flipped = t.flipped || len(corrupt) > 0
	for _, b := range corrupt {
		p := t.d.BlockOff(b) + t.d.faults.corruptBit(b, int64(t.d.cfg.BlockBits))
		if p >= pos && p < pos+int64(n) {
			// The read's first bit lands in the high position of v.
			v ^= 1 << uint(int64(n)-1-(p-pos))
		}
	}
	return v, nil
}

// WriteBits writes the low n bits of v at bit position pos, charging I/Os.
// In the I/O model a sub-block write requires the block to be resident, so
// written blocks are charged as reads as well.
func (t *Touch) WriteBits(pos int64, v uint64, n int) error {
	if n < 0 || n > 64 {
		return fmt.Errorf("iomodel: WriteBits width %d out of range", n)
	}
	if pos < 0 || pos+int64(n) > t.d.tailBits {
		return ErrInvalidRange
	}
	if t.d.file != nil || t.d.frozen {
		return ErrReadOnly
	}
	if n == 0 {
		return nil
	}
	from, to := t.d.blockOf(pos), t.d.blockOf(pos+int64(n)-1)
	_, _ = t.markRead(from, to, false) // residency charge: read faults don't fire here
	keep, ferr := t.faultWrite(from, to, pos, pos+int64(n))
	if keep > 0 {
		// Apply the (possibly torn) prefix: the high keep bits of v. Applied
		// blocks stay applied — an injected fault tears, it never rolls back.
		t.d.prepWrite()
		t.markWrite(from, t.d.blockOf(pos+keep-1))
		t.d.putBits(pos, v>>uint(int64(n)-keep), int(keep))
	}
	return ferr
}

// Reader returns a bitio.Reader over the extent, charging a read for every
// block the extent spans (the query algorithms scan whole bitmaps).
func (t *Touch) Reader(ext Extent) (*bitio.Reader, error) {
	w := bitio.NewWriter(int(ext.Bits))
	if err := t.ReaderInto(ext, w); err != nil {
		return nil, err
	}
	return bitio.NewReader(w.Bytes(), w.Len()), nil
}

// ReaderInto materialises the extent into w (which is reset first), charging
// the same block reads as Reader; the caller then reads the bits back from
// w's buffer. Passing a writer retained across operations makes repeated
// extent reads allocation-free, which is how the fused query pipeline keeps
// its per-chunk scratch out of the garbage collector.
func (t *Touch) ReaderInto(ext Extent, w *bitio.Writer) error {
	w.Reset()
	if ext.Bits == 0 {
		return nil
	}
	if ext.Off < 0 || ext.End() > t.d.tailBits {
		return ErrInvalidRange
	}
	corrupt, err := t.markRead(t.d.blockOf(ext.Off), t.d.blockOf(ext.End()-1), true)
	if err != nil {
		return err
	}
	// Materialise the extent as a byte-aligned buffer (a copy, so later
	// writes to the device never alias a live reader), whole words at a time.
	var src bitio.Reader
	src.Init(t.d.buf[:(ext.End()+7)/8], int(ext.End()))
	if err := src.Seek(int(ext.Off)); err != nil {
		return err
	}
	w.Grow(int(ext.Bits))
	if err := w.CopyBits(&src, int(ext.Bits)); err != nil {
		return err
	}
	t.flipped = t.flipped || len(corrupt) > 0
	for _, b := range corrupt {
		p := t.d.BlockOff(b) + t.d.faults.corruptBit(b, int64(t.d.cfg.BlockBits))
		if p >= ext.Off && p < ext.End() {
			// Flip the bad bit in the materialised copy (MSB-first packing);
			// the device's stored bits stay intact, as with a real transfer.
			rel := p - ext.Off
			w.Bytes()[rel>>3] ^= 0x80 >> uint(rel&7)
		}
	}
	return nil
}

// WriteStream overwrites the bits of ext with the contents of w, whose
// length must not exceed ext.Bits. Charges write I/Os for spanned blocks.
func (t *Touch) WriteStream(ext Extent, w *bitio.Writer) error {
	if int64(w.Len()) > ext.Bits {
		return fmt.Errorf("iomodel: stream of %d bits exceeds extent of %d bits", w.Len(), ext.Bits)
	}
	if ext.Off < 0 || ext.End() > t.d.tailBits {
		return ErrInvalidRange
	}
	if t.d.file != nil || t.d.frozen {
		return ErrReadOnly
	}
	if w.Len() == 0 {
		return nil
	}
	from, to := t.d.blockOf(ext.Off), t.d.blockOf(ext.Off+int64(w.Len())-1)
	_, _ = t.markRead(from, to, false) // residency charge: read faults don't fire here
	keep, ferr := t.faultWrite(from, to, ext.Off, ext.Off+int64(w.Len()))
	if keep > 0 {
		t.d.prepWrite()
		t.markWrite(from, t.d.blockOf(ext.Off+keep-1))
		t.d.putStream(ext.Off, bitio.NewReader(w.Bytes(), int(keep)))
	}
	return ferr
}
