package secidx

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sync"

	"repro/internal/container"
	"repro/internal/wal"
)

// Crash-consistent durability. OpenFile with OpenOptions.WAL reopens an
// append or dynamic container *writable*: every update is appended to a
// write-ahead log before it is applied, the base container is atomically
// rewritten (checkpoint) when the log grows past a threshold or the handle
// closes, and a reopen after a crash replays the log suffix beyond the
// base's watermark. The invariants the crash-injection harness pins:
//
//   - Atomicity: after a crash at any byte of the write history, reopening
//     recovers the index to exactly some prefix of the acknowledged
//     operations (plus at most the single in-flight one) — never a torn
//     state, never an interior gap.
//   - Durability: every operation acknowledged at or before a sync barrier
//     (per the SyncPolicy) survives.
//   - Recovery either succeeds or reports ErrCorrupt for genuine mid-log
//     damage; it never panics and never silently drops interior records.

// SyncPolicy selects when the write-ahead log makes acknowledged operations
// durable.
type SyncPolicy int

const (
	// SyncEveryOp syncs the log after every operation: an acknowledged
	// operation is durable. The safest and slowest policy.
	SyncEveryOp SyncPolicy = iota
	// SyncGrouped group-commits: the log is synced when the unsynced window
	// reaches GroupOps operations. An acknowledged operation may be lost to
	// a crash until the next barrier.
	SyncGrouped
)

// WALOptions configures the durability layer of OpenFile. The zero value of
// Path places the log next to the container as <path>.wal.
type WALOptions struct {
	// Path is the log file's path (default: container path + ".wal").
	Path string
	// Policy selects the sync policy (default SyncEveryOp).
	Policy SyncPolicy
	// GroupOps bounds the unsynced window under SyncGrouped (default 16).
	GroupOps int
	// CheckpointBytes rewrites the base container once the log exceeds this
	// many bytes (0: 4 MiB default; negative: no byte trigger — the base is
	// rewritten only on Close or an op-count trigger).
	CheckpointBytes int64
	// CheckpointOps rewrites the base container every this many applied
	// operations (0: no op-count trigger).
	CheckpointOps int

	// fsys overrides the filesystem — the crash-injection harness's hook.
	// nil means the real filesystem.
	fsys wal.FS
}

// defaultCheckpointBytes is the log-size checkpoint threshold when
// WALOptions.CheckpointBytes is zero.
const defaultCheckpointBytes = 4 << 20

// walPolicy maps the public sync policy to the log writer's. group selects
// the group-commit stage of a Concurrent open: SyncEveryOp then becomes
// manual sync — appends never sync inline, the commit stage issues one sync
// per batch of waiting writers — without weakening the contract, because an
// operation is not acknowledged until the shared durable watermark covers it.
func (wo *WALOptions) walPolicy(group bool) wal.Policy {
	switch wo.Policy {
	case SyncGrouped:
		gops := wo.GroupOps
		if gops == 0 {
			gops = 16
		}
		return wal.Policy{Mode: wal.SyncWindow, WindowOps: gops}
	}
	if group {
		return wal.Policy{Mode: wal.SyncManual}
	}
	return wal.Policy{Mode: wal.SyncEveryRecord}
}

// Log record opcodes. A record is opcode + operands, varint-packed.
const (
	opAppend = 1 // operand: ch
	opChange = 2 // operands: i, ch
	opDelete = 3 // operand: i
)

// walOp is one update: what Append/Change/Delete hand to the write
// pipeline, and one decoded log record.
type walOp struct {
	op uint64
	i  int64
	ch uint32
}

func (o walOp) encode() []byte {
	var e container.Encoder
	e.U(o.op)
	if o.op != opAppend {
		e.U(uint64(o.i))
	}
	if o.op != opDelete {
		e.U(uint64(o.ch))
	}
	return e.Bytes()
}

func decodeOp(payload []byte) (walOp, error) {
	dec := container.NewDecoder(payload)
	var o walOp
	o.op = dec.UN(opDelete)
	switch o.op {
	case opAppend:
		o.ch = uint32(dec.UN(container.MaxSigma - 1))
	case opChange:
		o.i = int64(dec.UN(container.MaxRows))
		o.ch = uint32(dec.UN(container.MaxSigma - 1))
	case opDelete:
		o.i = int64(dec.UN(container.MaxRows))
	default:
		if dec.Err() == nil {
			return o, fmt.Errorf("invalid opcode %d", o.op)
		}
	}
	if err := dec.Finish(); err != nil {
		return o, err
	}
	return o, nil
}

// ErrClosed reports an operation on a handle after Close. It is a typed,
// stable answer: a racing Close never panics an in-flight operation, it
// serializes before or after it, and everything later gets ErrClosed.
var ErrClosed = errors.New("secidx: handle is closed")

// durable is the durability state behind a writable handle: the live log
// writer, the watermark the base container reflects, and the checkpoint
// thresholds. Errors are sticky — after a failed log write, apply, or
// checkpoint, the handle's offset bookkeeping can no longer be trusted, so
// every later operation is refused; the data on disk stays recoverable.
//
// All mutable state is guarded by mu, so concurrent writers on one handle
// serialize through it (validate → log → apply → publish). In group-commit
// mode the sync policy is manual: an operation releases mu after applying
// and then waits for the shared durable watermark; the first waiter to take
// mu syncs the log once for every record appended so far, so a convoy of
// writers shares one sync (see waitDurable).
type durable struct {
	fsys     wal.FS
	dir      string
	basePath string
	walPath  string
	kind     uint64
	pol      wal.Policy
	group    bool // group-commit mode: ack at the durable watermark

	ckptBytes int64
	ckptOps   int

	mu       sync.Mutex
	closed   bool
	w        *wal.Writer
	ckptSeq  uint64 // watermark: seq the base container on disk reflects
	opsSince int    // ops applied since the last checkpoint
	// emit writes the base container's sections at watermark seq.
	emit func(cw *container.Writer, seq uint64) error
	err  error
}

func (du *durable) fail(err error) error {
	if du.err == nil {
		du.err = err
	}
	return err
}

// log appends one operation record and applies the sync policy. On return
// the operation is acknowledged under the policy's durability contract; an
// error means it was not acknowledged and the handle is broken. Callers
// hold mu.
func (du *durable) log(payload []byte) error {
	if du.err != nil {
		return du.err
	}
	if _, err := du.w.Append(payload); err != nil {
		return du.fail(err)
	}
	return nil
}

// sync is an explicit durability barrier over the whole log: a wait for a
// watermark no record can reach.
func (du *durable) sync() error { return du.waitDurable(math.MaxUint64) }

// waitDurable blocks until the durable watermark covers seq — the group
// commit stage. The first writer to take mu syncs the log once, covering
// its own record and every record appended behind it; the writers convoyed
// on mu then observe the advanced watermark and return without syncing.
// This is what makes syncs per op measurably below one under concurrent
// load while keeping SyncEveryOp's contract: no operation is acknowledged
// before it is durable.
func (du *durable) waitDurable(seq uint64) error {
	du.mu.Lock()
	defer du.mu.Unlock()
	if du.durableSeqLocked() >= seq {
		return nil
	}
	if du.err != nil {
		return du.err
	}
	if du.closed {
		// close syncs everything it can; an undurable record here means the
		// close path failed and the sticky error above reported it.
		return ErrClosed
	}
	if err := du.w.Sync(); err != nil {
		return du.fail(err)
	}
	return nil
}

// maybeCheckpoint rewrites the base container when the log has grown past
// the configured thresholds. A checkpoint failure does not un-acknowledge
// the operation that triggered it — it is logged and applied — but the
// handle goes sticky-broken so no further operations are accepted. Callers
// hold mu.
func (du *durable) maybeCheckpoint() {
	if du.err != nil || du.opsSince == 0 {
		return
	}
	if (du.ckptBytes > 0 && du.w.Written() >= du.ckptBytes) ||
		(du.ckptOps > 0 && du.opsSince >= du.ckptOps) {
		du.checkpointLocked()
	}
}

// checkpoint makes the base container reflect every logged operation and
// resets the log. The ordering is what makes a crash at any point safe:
// sync the log (nothing acknowledged may outrun what recovery can see),
// atomically rewrite the base at the log's last sequence (temp file, rename,
// directory sync), then swing a fresh log starting at that sequence into
// place the same way. A crash between the two rewrites leaves a new base
// with a stale log, which recovery detects by the watermark and discards.
func (du *durable) checkpoint() error {
	du.mu.Lock()
	defer du.mu.Unlock()
	if du.closed {
		return ErrClosed
	}
	return du.checkpointLocked()
}

func (du *durable) checkpointLocked() error {
	if du.err != nil {
		return du.err
	}
	if err := du.w.Sync(); err != nil {
		return du.fail(err)
	}
	seq := du.w.Seq()
	if err := writeContainerFS(du.fsys, du.basePath, du.kind, func(cw *container.Writer) error {
		return du.emit(cw, seq)
	}); err != nil {
		return du.fail(err)
	}
	if err := du.w.Close(); err != nil {
		return du.fail(err)
	}
	w, err := du.rotateWAL(seq)
	if err != nil {
		return du.fail(err)
	}
	du.w = w
	du.ckptSeq = seq
	du.opsSince = 0
	return nil
}

// rotateWAL installs a fresh log starting at startSeq via temp file and
// rename — never by truncating in place, which could mix old and new bytes
// if interrupted. The returned writer's handle survives the rename (the
// name moves, the object does not).
func (du *durable) rotateWAL(startSeq uint64) (*wal.Writer, error) {
	tmp := du.walPath + ".tmp"
	f, err := du.fsys.Create(tmp)
	if err != nil {
		return nil, err
	}
	w, err := wal.Create(f, du.kind, startSeq, du.pol)
	if err != nil {
		f.Close()
		du.fsys.Remove(tmp)
		return nil, err
	}
	if err := du.fsys.Rename(tmp, du.walPath); err != nil {
		f.Close()
		du.fsys.Remove(tmp)
		return nil, err
	}
	if err := du.fsys.SyncDir(du.dir); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// close checkpoints outstanding operations and closes the log. After a clean
// close the base container alone carries the index and the log is empty.
// close serializes against in-flight operations through mu: whoever holds mu
// finishes first; everything after gets ErrClosed. Closing twice is a no-op.
func (du *durable) close() error {
	du.mu.Lock()
	defer du.mu.Unlock()
	if du.closed {
		return nil
	}
	du.closed = true
	var first error
	if du.err == nil && du.opsSince > 0 {
		first = du.checkpointLocked()
	}
	if du.w != nil {
		err := du.w.Close()
		du.w = nil
		if first == nil {
			first = err
		}
	}
	return first
}

// lastSeq returns the sequence number of the last acknowledged operation.
func (du *durable) lastSeq() uint64 {
	du.mu.Lock()
	defer du.mu.Unlock()
	return du.lastSeqLocked()
}

func (du *durable) lastSeqLocked() uint64 {
	if du.w == nil {
		return du.ckptSeq
	}
	return du.w.Seq()
}

// durableSeq returns the last sequence number guaranteed to survive a crash.
func (du *durable) durableSeq() uint64 {
	du.mu.Lock()
	defer du.mu.Unlock()
	return du.durableSeqLocked()
}

func (du *durable) durableSeqLocked() uint64 {
	if du.w == nil {
		return du.ckptSeq
	}
	if s := du.w.SyncedSeq(); s > du.ckptSeq {
		return s
	}
	return du.ckptSeq
}

// openDurable recovers the durability state for a base container opened at
// watermark appliedSeq: scan the log, replay the suffix beyond the watermark
// through ix.applyOp, and return a handle whose writer resumes at the log's
// valid end. A torn log tail (a crash mid-append) is truncated and
// overwritten; mid-log damage, a log/base kind mismatch, or a log that starts
// beyond the base's watermark (acknowledged operations missing) is
// ErrCorrupt.
func openDurable(wo *WALOptions, basePath string, kind uint64, appliedSeq uint64, group bool, ix writable) (*durable, error) {
	fsys := wo.fsys
	if fsys == nil {
		fsys = wal.OS
	}
	walPath := wo.Path
	if walPath == "" {
		walPath = basePath + ".wal"
	}
	du := &durable{
		fsys: fsys, dir: filepath.Dir(walPath), basePath: basePath, walPath: walPath,
		kind: kind, pol: wo.walPolicy(group), group: group && wo.Policy == SyncEveryOp,
		ckptBytes: wo.CheckpointBytes, ckptOps: wo.CheckpointOps,
		ckptSeq: appliedSeq, emit: ix.emitSections,
	}
	if du.ckptBytes == 0 {
		du.ckptBytes = defaultCheckpointBytes
	} else if du.ckptBytes < 0 {
		du.ckptBytes = 0
	}

	data, err := fsys.ReadFile(walPath)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		data = nil
	}
	fresh := func() (*durable, error) {
		w, err := du.rotateWAL(appliedSeq)
		if err != nil {
			return nil, err
		}
		du.w = w
		return du, nil
	}
	if data == nil {
		// First durable open: no log yet.
		return fresh()
	}
	sr, serr := wal.Scan(data)
	if serr != nil {
		return nil, fmt.Errorf("%w: log %s: %v", ErrCorrupt, walPath, serr)
	}
	if !sr.HeaderOK {
		// The file is shorter than a log header — a crash during log
		// creation, before anything could have been acknowledged against it.
		return fresh()
	}
	if sr.Kind != kind {
		return nil, corruptf("log %s belongs to container kind %d, base is kind %d", walPath, sr.Kind, kind)
	}
	if sr.StartSeq > appliedSeq {
		return nil, corruptf("log %s starts at sequence %d but the base reflects only %d: acknowledged operations are missing", walPath, sr.StartSeq, appliedSeq)
	}
	last := sr.StartSeq
	for _, rec := range sr.Recs {
		last = rec.Seq
		if rec.Seq <= appliedSeq {
			continue // the base already reflects it
		}
		op, derr := decodeOp(rec.Payload)
		if derr != nil {
			return nil, corruptf("log %s record %d: %v", walPath, rec.Seq, derr)
		}
		if _, err := ix.applyOp(op); err != nil {
			return nil, corruptf("log %s: replaying record %d: %v", walPath, rec.Seq, err)
		}
		du.opsSince++
	}
	if last < appliedSeq {
		// The base is newer than the whole log: a crash fell between the
		// checkpoint's base rewrite and its log rotation. The log is stale.
		return fresh()
	}
	f, err := fsys.OpenResume(walPath, sr.ValidLen)
	if err != nil {
		return nil, err
	}
	w, err := wal.Resume(f, kind, last, sr.ValidLen, du.pol)
	if err != nil {
		f.Close()
		return nil, err
	}
	du.w = w
	return du, nil
}
