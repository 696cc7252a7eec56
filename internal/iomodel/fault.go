package iomodel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Fault-injecting device. A FaultDisk wraps a Disk and makes its I/O paths
// fallible according to a deterministic, seeded schedule. On the read path:
// transient read errors that heal after a bounded number of attempts,
// permanent per-block failures, silent single-bit corruption of the data
// returned, and injected per-read latency. On the write path: failed writes
// (the faulty block's bits are not applied) and short writes (they are
// applied, but the call still errors) — both torn, in that blocks earlier in
// the write's span stay applied and are not rolled back, which is exactly
// the partial state a crashed device write leaves and what the durability
// layer's write-ahead logging must absorb. Allocation is never faulted.
//
// Every fault decision is a pure function of (Seed, BlockID) plus a per-block
// read counter, so a fault schedule is reproducible across runs and — because
// it does not depend on the interleaving of concurrent sessions — across
// worker-pool schedules. A transient block fails its first TransientCount
// charged reads and then heals, which gives bounded retries a convergence
// guarantee: any retry budget larger than the faulty blocks a query touches
// reaches the fault-free answer, the property the chaos differential harness
// pins.

// ErrTransientRead reports an injected transient read fault: retrying the
// read (a fresh session over the same blocks) will eventually succeed.
var ErrTransientRead = errors.New("iomodel: transient read fault")

// ErrPermanentRead reports an injected permanent block failure: every read
// of the block fails, so retries cannot help and the caller must degrade
// (exclude the device) or fail the operation.
var ErrPermanentRead = errors.New("iomodel: permanent block failure")

// ErrFailedWrite reports an injected write fault. The write is torn: blocks
// of the span before the faulty one are applied and stay applied (and, for a
// short write, so is the faulty block itself); nothing after it is. The
// faulty block heals, so a retry of the same write succeeds.
var ErrFailedWrite = errors.New("iomodel: injected write fault")

// FaultConfig describes a seeded fault schedule. Probabilities are drawn
// once per block from the seed, in parts per ten thousand, so the same
// configuration over the same device always faults the same blocks.
type FaultConfig struct {
	// Seed determines which blocks fault and which bits corruption flips.
	Seed int64
	// TransientPer10k is the per-block probability (in 1/10000) that a block
	// is transiently faulty: its first TransientCount charged reads fail with
	// ErrTransientRead, after which the block heals and reads succeed.
	TransientPer10k int
	// TransientCount is how many reads of a transiently faulty block fail
	// before it heals (default 1).
	TransientCount int
	// PermanentPer10k is the per-block probability (in 1/10000) that a block
	// is dead: every read fails with ErrPermanentRead.
	PermanentPer10k int
	// CorruptPer10k is the per-block probability (in 1/10000) that a block is
	// a silent corruptor: every read covering it has one deterministic bit of
	// the returned data flipped. The device reports no error — corruption is
	// caught (or not) by the decode-validation layer above.
	CorruptPer10k int
	// ReadLatency is slept once per charged device read while armed,
	// simulating device service time.
	ReadLatency time.Duration
	// FailedWritePer10k is the per-block probability (in 1/10000) that the
	// block's first faulted write fails *before* its bits are applied: the
	// write is torn at the block's start (earlier blocks of the span stay
	// applied), the call returns ErrFailedWrite, and the block heals.
	FailedWritePer10k int
	// ShortWritePer10k is the per-block probability (in 1/10000) that the
	// block's first faulted write is short: the block's bits *are* applied but
	// the call still returns ErrFailedWrite, tearing the write at the block's
	// end. The block heals afterwards. A block drawn by both fates fails
	// first, then writes short, then heals.
	ShortWritePer10k int
}

// Validate reports whether the configuration is well-formed.
func (fc FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    int
	}{
		{"TransientPer10k", fc.TransientPer10k},
		{"PermanentPer10k", fc.PermanentPer10k},
		{"CorruptPer10k", fc.CorruptPer10k},
		{"FailedWritePer10k", fc.FailedWritePer10k},
		{"ShortWritePer10k", fc.ShortWritePer10k},
	} {
		if p.v < 0 || p.v > 10000 {
			return fmt.Errorf("iomodel: %s %d outside [0,10000]", p.name, p.v)
		}
	}
	if fc.TransientCount < 0 {
		return fmt.Errorf("iomodel: TransientCount %d must not be negative", fc.TransientCount)
	}
	if fc.ReadLatency < 0 {
		return fmt.Errorf("iomodel: ReadLatency %v must not be negative", fc.ReadLatency)
	}
	return nil
}

func (fc FaultConfig) transientCount() int32 {
	if fc.TransientCount == 0 {
		return 1
	}
	return int32(fc.TransientCount)
}

// blockFault is the decided fate of one block plus its remaining transient
// failure budgets (read and write fates are drawn independently).
type blockFault struct {
	transLeft  int32
	permanent  bool
	corrupt    bool
	wfailLeft  int32
	wshortLeft int32
}

// faultSched executes a FaultConfig. It is shared by every session the
// owning FaultDisk hands out; the per-block state is mutex-protected so
// concurrent queries draw a consistent schedule.
type faultSched struct {
	cfg    FaultConfig
	armed  atomic.Bool
	mu     sync.Mutex
	blocks map[BlockID]*blockFault
}

func newFaultSched(cfg FaultConfig) *faultSched {
	return &faultSched{cfg: cfg, blocks: make(map[BlockID]*blockFault)}
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash for
// deterministic per-block draws.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Each fate draws with its own salt, so adding a salt never perturbs the
// draws of the others: enabling write faults leaves a seed's read-fault
// schedule bit-identical to what it was before write faults existed.
const (
	saltTransient  uint64 = 0x7472616e7369656e // "transien"
	saltPermanent  uint64 = 0x7065726d616e656e // "permanen"
	saltCorrupt    uint64 = 0x636f727275707462 // "corruptb"
	saltBit        uint64 = 0x666c697062697421 // "flipbit!"
	saltFailWrite  uint64 = 0x6661696c77726974 // "failwrit"
	saltShortWrite uint64 = 0x73686f7274777274 // "shortwrt"
)

func (f *faultSched) draw(b BlockID, salt uint64) uint64 {
	return mix64(uint64(f.cfg.Seed) ^ mix64(uint64(b)^salt))
}

func (f *faultSched) hits(b BlockID, salt uint64, per10k int) bool {
	return per10k > 0 && f.draw(b, salt)%10000 < uint64(per10k)
}

// stateOf decides (once) and returns block b's fate. Caller holds f.mu.
func (f *faultSched) stateOf(b BlockID) *blockFault {
	if st, ok := f.blocks[b]; ok {
		return st
	}
	st := &blockFault{}
	switch {
	case f.hits(b, saltPermanent, f.cfg.PermanentPer10k):
		st.permanent = true
	case f.hits(b, saltTransient, f.cfg.TransientPer10k):
		st.transLeft = f.cfg.transientCount()
	}
	st.corrupt = f.hits(b, saltCorrupt, f.cfg.CorruptPer10k)
	if f.hits(b, saltFailWrite, f.cfg.FailedWritePer10k) {
		st.wfailLeft = 1
	}
	if f.hits(b, saltShortWrite, f.cfg.ShortWritePer10k) {
		st.wshortLeft = 1
	}
	f.blocks[b] = st
	return st
}

// writeFate is the schedule's verdict for one block of a write's span.
type writeFate int

const (
	writeOK    writeFate = iota
	writeFail            // error before the block's bits are applied
	writeShort           // the block's bits are applied, then the error surfaces
)

// onWrite is consulted for each block of a write's span, in span order, until
// the first non-OK fate; a faulty fate consumes the block's budget.
func (f *faultSched) onWrite(b BlockID) writeFate {
	if f == nil || !f.armed.Load() {
		return writeOK
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stateOf(b)
	switch {
	case st.wfailLeft > 0:
		st.wfailLeft--
		return writeFail
	case st.wshortLeft > 0:
		st.wshortLeft--
		return writeShort
	}
	return writeOK
}

// onRead is consulted once per charged device read of block b. It returns
// whether the read's data must be silently corrupted, or the injected error.
func (f *faultSched) onRead(b BlockID, stats *Stats) (corrupt bool, err error) {
	if f == nil || !f.armed.Load() {
		return false, nil
	}
	if f.cfg.ReadLatency > 0 {
		time.Sleep(f.cfg.ReadLatency)
	}
	f.mu.Lock()
	st := f.stateOf(b)
	switch {
	case st.permanent:
		f.mu.Unlock()
		stats.FailedReads.Add(1)
		return false, fmt.Errorf("iomodel: block %d: %w", b, ErrPermanentRead)
	case st.transLeft > 0:
		st.transLeft--
		f.mu.Unlock()
		stats.FailedReads.Add(1)
		return false, fmt.Errorf("iomodel: block %d: %w", b, ErrTransientRead)
	}
	corrupt = st.corrupt
	f.mu.Unlock()
	return corrupt, nil
}

// corruptBit returns the deterministic bit offset (within a span of width
// bits) that reads covering corrupt block b flip.
func (f *faultSched) corruptBit(b BlockID, width int64) int64 {
	if width <= 0 {
		return 0
	}
	return int64(f.draw(b, saltBit) % uint64(width))
}

// FaultDisk is a Disk whose read sessions fault according to a seeded
// schedule. It implements Device; builds and writes pass through unfaulted,
// and the schedule only fires while armed, so the usual pattern is to build
// on a disarmed FaultDisk and Arm it before querying.
type FaultDisk struct {
	*Disk
	sched *faultSched
}

// NewFaultDisk is NewFaultDiskOn over a fresh Disk, for known-good
// configurations (tests, benchmarks); it panics on an invalid one. The
// schedule starts disarmed.
func NewFaultDisk(cfg Config, fc FaultConfig) *FaultDisk {
	fd, err := NewFaultDiskOn(NewDisk(cfg), fc)
	if err != nil {
		panic(err)
	}
	return fd
}

// NewFaultDiskOn wraps an existing Disk with a fault schedule, leaving the
// disk's storage and counters untouched. This is how a file-backed device
// gains fault injection: the schedule's verdict is consulted before the real
// read, so an injected failure transfers nothing from the file.
func NewFaultDiskOn(d *Disk, fc FaultConfig) (*FaultDisk, error) {
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	return &FaultDisk{Disk: d, sched: newFaultSched(fc)}, nil
}

// FreezeView returns a read-only FaultDisk over a Freeze view of the wrapped
// disk, sharing the same fault schedule (and its armed state), so snapshot
// readers draw the same deterministic per-block fates as live readers.
func (fd *FaultDisk) FreezeView() *FaultDisk {
	return &FaultDisk{Disk: fd.Disk.Freeze(), sched: fd.sched}
}

// Arm enables the fault schedule for subsequently opened sessions and reads.
func (fd *FaultDisk) Arm() { fd.sched.armed.Store(true) }

// Disarm disables the fault schedule; in-flight reads finish with whatever
// verdict they already drew.
func (fd *FaultDisk) Disarm() { fd.sched.armed.Store(false) }

// NewTouch opens an accounting session whose reads consult the fault
// schedule.
func (fd *FaultDisk) NewTouch() *Touch {
	t := fd.Disk.NewTouch()
	t.faults = fd.sched
	return t
}

// NewBatchTouch opens a shared-scan batch session whose reads consult the
// fault schedule.
func (fd *FaultDisk) NewBatchTouch() *BatchTouch {
	bt := fd.Disk.NewBatchTouch()
	bt.t.faults = fd.sched
	return bt
}

var _ Device = (*FaultDisk)(nil)
